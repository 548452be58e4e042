// Package cache models the Pentium 4 cache hierarchy used in the paper:
// an 8 KB 4-way set-associative L1 data cache, a 12 Kµop trace cache in
// place of a conventional L1 instruction cache, and a 1 MB 8-way unified
// L2, all with 64-byte lines.
//
// Two sharing disciplines matter for the paper's results and both are
// modelled here:
//
//   - Physically-tagged caches (L1D, L2) are shared by the two logical
//     processors without thread tags, so identical addresses hit for both
//     contexts — this is the constructive interference that makes L2
//     behave *better* under Hyper-Threading for benchmarks whose data fits.
//
//   - The trace cache tags its lines with the logical-processor ID
//     (as the real P4 does), so even two threads running the very same
//     JVM handler code cannot share lines; enabling HT halves the
//     effective capacity and adds conflicts, which is why trace-cache
//     misses consistently rise under HT in the paper.
package cache

import "javasmt/internal/check"

// Config describes one set-associative cache.
type Config struct {
	// Name appears in counter reports ("L1D", "L2", "TC").
	Name string
	// Size is the total capacity in bytes (or in µops for the trace
	// cache, see TraceCacheConfig).
	Size int
	// LineSize is the block size in bytes.
	LineSize int
	// Assoc is the number of ways per set.
	Assoc int
	// HitLatency is the access time in cycles on a hit.
	HitLatency int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.Size / (c.LineSize * c.Assoc) }

// Stats accumulates per-cache event totals over every requesting
// context.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// line is one cache line's bookkeeping, packed to 16 bytes so a 4-way set
// is exactly one host cache line and an 8-way set two — the structure
// walk is the hottest loop in the whole simulator (every load, store and
// trace refill in both the detailed and functional engines lands here).
// key packs the match state into one comparable word:
//
//	bit 0     valid
//	bits 1-5  logical-processor tag + 1 for thread-tagged caches
//	          (0 = untagged/shared line; up to 16 contexts per core)
//	bits 6-9  owner: last toucher, counted by OccupancyInto
//	bits 10+  line address
//
// A lookup compares key with the owner bits masked off, so hit detection
// is a single AND+compare per way. Invalidation clears only the valid
// bit: like the previous representation, the LRU stamp of an invalidated
// line survives and continues to steer victim selection.
type line struct {
	key uint64
	lru uint64
}

const (
	keyValid      = 1
	keyTidShift   = 1
	keyTidMask    = 31 << keyTidShift
	keyOwnerShift = 6
	keyOwnerMask  = 15 << keyOwnerShift
	keyAddrShift  = 10
)

// Cache is a set-associative cache with true-LRU replacement.
//
// It is a timing/occupancy model only: no data is stored. Lookup returns
// hit/miss; on miss the line is filled immediately (the latency cost is
// applied by the caller, which knows what the next level returned).
type Cache struct {
	cfg      Config
	lines    []line // flat [set*assoc+way]
	assoc    int
	setMask  uint64
	lineBits uint
	tick     uint64
	// tagged selects thread-tagged lines (trace cache style).
	tagged bool
	stats  Stats
	// ckHits counts hit-path exits, maintained only under -tags checks so
	// the hits+misses==accesses invariant can be asserted without adding a
	// counter to the default build's hot path.
	ckHits uint64
}

// New builds a cache from cfg. It panics if the geometry is not a power
// of two, which would indicate a configuration bug rather than a runtime
// condition.
func New(cfg Config) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: number of sets must be a positive power of two: " + cfg.Name)
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic("cache: line size must be a power of two: " + cfg.Name)
	}
	c := &Cache{cfg: cfg, assoc: cfg.Assoc, setMask: uint64(sets - 1)}
	for cfg.LineSize>>c.lineBits > 1 {
		c.lineBits++
	}
	c.lines = make([]line, sets*cfg.Assoc)
	return c
}

// NewTagged builds a thread-tagged cache: lines are private to the logical
// processor that filled them, as in the P4 trace cache and BTB.
func NewTagged(cfg Config) *Cache {
	c := New(cfg)
	c.tagged = true
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset returns the cache to its just-built state — contents, LRU clock
// and statistics — while keeping the line array allocated. Unlike
// Flush it also zeroes each line's LRU stamp: victim selection consults
// the stamps of lines it is about to fill over, so stale values would
// steer fills differently than on a fresh cache.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.tick = 0
	c.stats = Stats{}
	c.ckHits = 0
}

// Flush invalidates every line (used on simulated process teardown).
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i].key &^= keyValid
	}
}

// FlushThread invalidates all lines belonging to logical processor ctx in
// a thread-tagged cache; untagged caches are unaffected. The OS model
// calls this when a different address space is switched onto a context.
func (c *Cache) FlushThread(ctx int) {
	if !c.tagged {
		return
	}
	tid := (uint64(ctx) + 1) << keyTidShift
	for i := range c.lines {
		l := &c.lines[i]
		if l.key&keyValid != 0 && l.key&keyTidMask == tid {
			l.key &^= keyValid
		}
	}
}

// Access performs a lookup for addr by logical processor ctx, filling the
// line on a miss. It returns true on hit.
func (c *Cache) Access(addr uint64, ctx int) bool {
	c.tick++
	c.stats.Accesses++
	lineAddr := addr >> c.lineBits
	base := int(lineAddr&c.setMask) * c.assoc
	set := c.lines[base : base+c.assoc]
	want := lineAddr<<keyAddrShift | keyValid
	if c.tagged {
		want |= (uint64(ctx) + 1) << keyTidShift
	}
	owner := uint64(ctx&15) << keyOwnerShift
	// Hit path.
	for i := range set {
		l := &set[i]
		if l.key&^uint64(keyOwnerMask) == want {
			l.lru = c.tick
			l.key = want | owner
			if check.Enabled && check.On {
				c.ckHits++
				check.Assert(c.ckHits+c.stats.Misses == c.stats.Accesses,
					c.cfg.Name, "hits %d + misses %d != accesses %d",
					c.ckHits, c.stats.Misses, c.stats.Accesses)
			}
			return true
		}
	}
	// Miss: fill over the LRU way (invalid ways first, by index).
	c.stats.Misses++
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].key&keyValid == 0 {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = line{key: want | owner, lru: c.tick}
	if check.Enabled && check.On {
		check.Assert(c.Probe(addr, ctx), c.cfg.Name,
			"line %#x not resident immediately after a miss fill (ctx %d)", lineAddr, ctx)
		check.Assert(c.ckHits+c.stats.Misses == c.stats.Accesses,
			c.cfg.Name, "hits %d + misses %d != accesses %d",
			c.ckHits, c.stats.Misses, c.stats.Accesses)
	}
	return false
}

// OccupancyInto counts valid lines per owning context into out (indexed
// by the context id used in Access) and returns it: by line tag for
// thread-tagged caches, by last toucher for shared ones. The
// observability layer samples it to show how contexts split a
// structure's capacity over time, the mechanism behind the paper's
// trace-cache degradation under HT. Lines owned by a context beyond
// len(out) are dropped.
func (c *Cache) OccupancyInto(out []int) []int {
	for i := range out {
		out[i] = 0
	}
	for i := range c.lines {
		if k := c.lines[i].key; k&keyValid != 0 {
			if owner := int(k>>keyOwnerShift) & 15; owner < len(out) {
				out[owner]++
			}
		}
	}
	return out
}

// Probe reports whether addr would hit without updating LRU state or
// statistics. Tests use it to inspect cache contents.
func (c *Cache) Probe(addr uint64, ctx int) bool {
	lineAddr := addr >> c.lineBits
	base := int(lineAddr&c.setMask) * c.assoc
	set := c.lines[base : base+c.assoc]
	want := lineAddr<<keyAddrShift | keyValid
	if c.tagged {
		want |= (uint64(ctx) + 1) << keyTidShift
	}
	for i := range set {
		if set[i].key&^uint64(keyOwnerMask) == want {
			return true
		}
	}
	return false
}
