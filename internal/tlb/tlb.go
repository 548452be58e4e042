// Package tlb models the Pentium 4 translation look-aside buffers.
//
// The detail that matters for the paper is the ITLB sharing discipline:
// "In the Pentium 4, the ITLB is partitioned among hardware contexts to
// support Hyper-Threading. Each logical processor has its own ITLB" —
// so enabling HT halves the ITLB reach of each context even when only the
// code footprint of one thread is active, and benchmarks with large code
// footprints (PseudoJBB) degrade sharply. The DTLB, by contrast, is a
// shared structure.
package tlb

import "javasmt/internal/check"

// Config describes one TLB.
type Config struct {
	// Name appears in counter reports ("ITLB", "DTLB").
	Name string
	// Entries is the total entry count across all contexts.
	Entries int
	// Assoc is the set associativity; Entries/Assoc sets must be a
	// power of two.
	Assoc int
	// PageSize in bytes (4 KiB on the paper machine).
	PageSize int
	// MissPenalty is the page-walk cost in cycles.
	MissPenalty int
	// Partitioned statically splits the entries between the logical
	// processors of a multi-context core (the P4 ITLB design under HT).
	// When false the structure is fully shared (the DTLB design).
	Partitioned bool
}

// DefaultITLBConfig is the paper machine's instruction TLB: 128 entries,
// fully partitioned per logical processor under HT.
func DefaultITLBConfig() Config {
	return Config{Name: "ITLB", Entries: 128, Assoc: 4, PageSize: 4096, MissPenalty: 30, Partitioned: true}
}

// DefaultDTLBConfig is the paper machine's shared data TLB (64 entries).
func DefaultDTLBConfig() Config {
	return Config{Name: "DTLB", Entries: 64, Assoc: 4, PageSize: 4096, MissPenalty: 30, Partitioned: false}
}

// Stats accumulates access and miss totals over every requesting
// context.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// entry is one translation, packed to 16 bytes so a 4-way set is one
// host cache line (this is the second-hottest structure walk after the
// caches). key holds vpn<<1|valid; invalidation clears only the valid
// bit, so — as in the previous representation — the LRU stamp of a
// dropped translation survives and continues to steer victim selection.
type entry struct {
	key uint64
	lru uint64
}

// TLB is a set-associative translation buffer with optional static
// partitioning between logical processors.
type TLB struct {
	cfg        Config
	entries    []entry // flat [partition*sets*assoc + set*assoc + way]
	assoc      int
	nsets      int // sets per partition
	pageBits   uint
	tick       uint64
	partitions int
	stats      Stats
	// ckHits counts hit-path exits, maintained only under -tags checks so
	// hits+misses==accesses can be asserted without touching the default
	// build's hot path.
	ckHits uint64
}

// New builds a TLB from cfg.
func New(cfg Config) *TLB {
	if cfg.Entries%cfg.Assoc != 0 {
		panic("tlb: entries must divide evenly into ways: " + cfg.Name)
	}
	t := &TLB{cfg: cfg}
	for cfg.PageSize>>t.pageBits > 1 {
		t.pageBits++
	}
	t.rebuild(1)
	return t
}

// rebuild lays out the entry array for the given number of contexts. A
// partitioned TLB serving n > 1 contexts becomes n structures of 1/n the
// entries each; otherwise one full-size structure serves all requests.
func (t *TLB) rebuild(nctx int) {
	parts := 1
	entries := t.cfg.Entries
	if t.cfg.Partitioned && nctx > 1 {
		parts = nctx
		entries /= nctx
	}
	sets := entries / t.cfg.Assoc
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("tlb: sets must be a positive power of two: " + t.cfg.Name)
	}
	t.partitions = parts
	t.assoc = t.cfg.Assoc
	t.nsets = sets
	t.entries = make([]entry, parts*sets*t.cfg.Assoc)
}

// SetContexts reconfigures the TLB for n logical processors: a
// partitioned structure becomes n equal slices, a shared one is
// unaffected beyond dropping its contents (the machine in the paper is
// rebooted between HT modes).
func (t *TLB) SetContexts(n int) { t.rebuild(n) }

// Config returns the TLB geometry.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a snapshot of the statistics.
func (t *TLB) Stats() Stats { return t.stats }

// Reset returns the TLB to its just-built state for its current context
// count: translations dropped, LRU clock and statistics zeroed. Entries are
// zeroed outright (not just invalidated) because victim selection reads
// the LRU stamps of slots it fills over; the entry arrays are reused.
func (t *TLB) Reset() {
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	t.tick = 0
	t.stats = Stats{}
	t.ckHits = 0
}

// OccupancyInto counts valid translations per partition into out (all
// under index 0 for a shared structure) and returns it. The
// observability layer samples it to show TLB reach shrinking when HT
// splits a partitioned structure between contexts. Partitions beyond
// len(out) are dropped.
func (t *TLB) OccupancyInto(out []int) []int {
	for i := range out {
		out[i] = 0
	}
	n := len(t.entries) / t.partitions
	for i := range t.entries {
		if t.entries[i].key&1 != 0 {
			if p := i / n; p < len(out) {
				out[p]++
			}
		}
	}
	return out
}

// Flush drops every translation (address-space switch).
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].key &^= 1
	}
}

// FlushContext drops translations visible to logical processor ctx: its
// partition if partitioned, everything otherwise.
func (t *TLB) FlushContext(ctx int) {
	if t.partitions == 1 {
		t.Flush()
		return
	}
	part := ctx % t.partitions
	n := len(t.entries) / t.partitions
	for i := part * n; i < (part+1)*n; i++ {
		t.entries[i].key &^= 1
	}
}

// Access translates addr for logical processor ctx. It returns true on a
// hit; on a miss the translation is installed and the caller should charge
// Config().MissPenalty cycles.
func (t *TLB) Access(addr uint64, ctx int) bool {
	t.tick++
	t.stats.Accesses++
	vpn := addr >> t.pageBits
	part := 0
	if t.partitions > 1 {
		part = ctx % t.partitions
	}
	if check.Enabled && check.On && t.cfg.Partitioned && t.partitions > 1 {
		// Partition isolation: a context's lookups must stay inside its
		// own slice of a statically-partitioned structure.
		check.Assert(part == ctx%t.partitions, t.cfg.Name,
			"ctx %d routed to partition %d", ctx, part)
	}
	base := (part*t.nsets + int(vpn)&(t.nsets-1)) * t.assoc
	set := t.entries[base : base+t.assoc]
	want := vpn<<1 | 1
	for i := range set {
		if set[i].key == want {
			set[i].lru = t.tick
			if check.Enabled && check.On {
				t.ckHits++
				check.Assert(t.ckHits+t.stats.Misses == t.stats.Accesses,
					t.cfg.Name, "hits %d + misses %d != accesses %d",
					t.ckHits, t.stats.Misses, t.stats.Accesses)
			}
			return true
		}
	}
	t.stats.Misses++
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].key&1 == 0 {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = entry{key: want, lru: t.tick}
	if check.Enabled && check.On {
		// The translation just installed must be visible to an immediate
		// replay of the same lookup.
		found := false
		for i := range set {
			if set[i].key == want {
				found = true
				break
			}
		}
		check.Assert(found, t.cfg.Name,
			"vpn %#x not resident immediately after a miss fill (ctx %d)", vpn, ctx)
		check.Assert(t.ckHits+t.stats.Misses == t.stats.Accesses,
			t.cfg.Name, "hits %d + misses %d != accesses %d",
			t.ckHits, t.stats.Misses, t.stats.Accesses)
	}
	return false
}
