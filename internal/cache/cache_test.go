package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{Name: "T", Size: 1 << 10, LineSize: 64, Assoc: 2, HitLatency: 1}
}

func TestConfigSets(t *testing.T) {
	cfg := smallConfig()
	if got := cfg.Sets(); got != 8 {
		t.Fatalf("Sets() = %d, want 8", got)
	}
	d := DefaultHierarchyConfig()
	if got := d.L1D.Sets(); got != 32 {
		t.Fatalf("L1D sets = %d, want 32", got)
	}
	if got := d.L2.Sets(); got != 2048 {
		t.Fatalf("L2 sets = %d, want 2048", got)
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	New(Config{Name: "bad", Size: 3 * 64, LineSize: 64, Assoc: 1})
}

func TestColdMissThenHit(t *testing.T) {
	c := New(smallConfig())
	if c.Access(0x1000, 0) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0x1000, 0) {
		t.Fatal("second access should hit")
	}
	if !c.Access(0x1038, 0) {
		t.Fatal("same-line access should hit")
	}
	s := c.Stats()
	if s.TotalAccesses() != 3 || s.TotalMisses() != 1 {
		t.Fatalf("stats = %+v, want 3 accesses / 1 miss", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(smallConfig()) // 8 sets, 2 ways, 64B lines
	// Three addresses mapping to set 0: 0, 8*64, 16*64.
	a, b, d := uint64(0), uint64(8*64), uint64(16*64)
	c.Access(a, 0)
	c.Access(b, 0)
	c.Access(a, 0) // a is now MRU, b is LRU
	c.Access(d, 0) // evicts b
	if !c.Probe(a, 0) {
		t.Fatal("a should survive (MRU)")
	}
	if c.Probe(b, 0) {
		t.Fatal("b should have been evicted (LRU)")
	}
	if !c.Probe(d, 0) {
		t.Fatal("d should be resident")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestUntaggedSharingIsConstructive(t *testing.T) {
	c := New(smallConfig())
	c.Access(0x2000, 0)
	if !c.Access(0x2000, 1) {
		t.Fatal("context 1 should hit on a line filled by context 0 in an untagged cache")
	}
	if ch := c.Stats().CrossHits; ch != 1 {
		t.Fatalf("cross hits = %d, want 1", ch)
	}
}

func TestTaggedLinesArePrivate(t *testing.T) {
	c := NewTagged(smallConfig())
	c.Access(0x2000, 0)
	if c.Access(0x2000, 1) {
		t.Fatal("context 1 must miss on context 0's private line in a tagged cache")
	}
	// Both copies coexist afterwards.
	if !c.Probe(0x2000, 0) || !c.Probe(0x2000, 1) {
		t.Fatal("both contexts should now have private copies")
	}
}

func TestFlushThread(t *testing.T) {
	c := NewTagged(smallConfig())
	c.Access(0x1000, 0)
	c.Access(0x2000, 1)
	c.FlushThread(0)
	if c.Probe(0x1000, 0) {
		t.Fatal("context 0 line should be flushed")
	}
	if !c.Probe(0x2000, 1) {
		t.Fatal("context 1 line should survive a context-0 flush")
	}
	// Untagged caches ignore FlushThread.
	u := New(smallConfig())
	u.Access(0x1000, 0)
	u.FlushThread(0)
	if !u.Probe(0x1000, 0) {
		t.Fatal("FlushThread must not touch untagged caches")
	}
}

func TestFlushAndResetStats(t *testing.T) {
	c := New(smallConfig())
	c.Access(0x1000, 0)
	c.Flush()
	if c.Probe(0x1000, 0) {
		t.Fatal("line should be gone after Flush")
	}
	c.ResetStats()
	if s := c.Stats(); s.TotalAccesses() != 0 || s.TotalMisses() != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
}

// Property: misses never exceed accesses, per context and in total.
func TestMissesNeverExceedAccesses(t *testing.T) {
	f := func(addrs []uint16, ctxBits uint64) bool {
		c := New(smallConfig())
		for i, a := range addrs {
			c.Access(uint64(a)<<3, int(ctxBits>>uint(i%64))&1)
		}
		s := c.Stats()
		return s.Misses[0] <= s.Accesses[0] && s.Misses[1] <= s.Accesses[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the working set of at most Assoc lines per set always hits
// after the first touch (LRU never evicts within-capacity working sets).
func TestWithinSetCapacityAlwaysHits(t *testing.T) {
	c := New(smallConfig()) // 2 ways
	a, b := uint64(0x0), uint64(8*64)
	c.Access(a, 0)
	c.Access(b, 0)
	for i := 0; i < 100; i++ {
		if !c.Access(a, 0) || !c.Access(b, 0) {
			t.Fatal("within-capacity working set must not miss")
		}
	}
}

// Tagged caches share physical ways but cannot share lines, so a second
// context replaying the very same address trace *increases* the first
// context's misses — the destructive interference the paper measures in
// the trace cache. An untagged cache sees no such increase.
func TestTaggedSharingIsDestructive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trace := make([]uint64, 400)
	for i := range trace {
		trace[i] = uint64(rng.Intn(64)) * 64
	}
	run := func(tagged bool) (solo, both uint64) {
		mk := New
		if tagged {
			mk = NewTagged
		}
		s := mk(smallConfig())
		for _, a := range trace {
			s.Access(a, 0)
		}
		b := mk(smallConfig())
		for _, a := range trace {
			b.Access(a, 0)
			b.Access(a, 1)
		}
		return s.Stats().Misses[0], b.Stats().Misses[0]
	}
	if solo, both := run(true); both <= solo {
		t.Fatalf("tagged: interleaving should increase misses, solo=%d both=%d", solo, both)
	}
	if solo, both := run(false); both != solo {
		t.Fatalf("untagged: identical traces should share perfectly, solo=%d both=%d", solo, both)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h := NewHierarchy(cfg, flatMemory(200))
	l1, l2 := cfg.L1D.HitLatency, cfg.L2.HitLatency
	// Cold: L1 miss + L2 miss + DRAM.
	lat := h.Data(0x10000, false, 0, 0)
	if want := l1 + l2 + 200; lat != want {
		t.Fatalf("cold load latency = %d, want %d", lat, want)
	}
	// Warm L1.
	if lat := h.Data(0x10000, false, 0, 1); lat != l1 {
		t.Fatalf("L1 hit latency = %d, want %d", lat, l1)
	}
	// Evict from L1 by sweeping its capacity; should then hit in L2.
	for i := 0; i < 4096; i++ {
		h.Data(0x100000+uint64(i)*64, false, 0, 2)
	}
	if lat := h.Data(0x10000, false, 0, 3); lat != l1+l2 {
		t.Fatalf("L2 hit latency = %d, want %d", lat, l1+l2)
	}
}

func TestHierarchyFillUsesL2(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h := NewHierarchy(cfg, flatMemory(200))
	if lat := h.Fill(0x400000, 0, 0); lat != cfg.L2.HitLatency+200 {
		t.Fatalf("cold fill latency = %d, want %d", lat, cfg.L2.HitLatency+200)
	}
	if lat := h.Fill(0x400000, 0, 1); lat != cfg.L2.HitLatency {
		t.Fatalf("warm fill latency = %d, want %d", lat, cfg.L2.HitLatency)
	}
}

func TestTraceCacheGeometry(t *testing.T) {
	tc := NewTraceCache(DefaultTraceCacheConfig())
	if got := tc.inner.cfg.Sets(); got != 256 {
		t.Fatalf("trace cache sets = %d, want 256", got)
	}
}

// lookupPC looks up the trace line holding µop pc, dividing as the core's
// front end does on a line crossing.
func lookupPC(tc *TraceCache, pc uint64, ctx int) (bool, int) {
	return tc.LookupLine(pc/uint64(tc.Config().LineUops), ctx)
}

func TestTraceCacheHitMissLatency(t *testing.T) {
	tc := NewTraceCache(DefaultTraceCacheConfig())
	hit, lat := lookupPC(tc, 100, 0)
	if hit || lat != DefaultTraceCacheConfig().MissPenalty {
		t.Fatalf("cold lookup = (%v,%d), want (false,%d)", hit, lat, DefaultTraceCacheConfig().MissPenalty)
	}
	hit, lat = lookupPC(tc, 100, 0)
	if !hit || lat != 1 {
		t.Fatalf("warm lookup = (%v,%d), want (true,1)", hit, lat)
	}
}

func TestTraceCacheLineGrouping(t *testing.T) {
	tc := NewTraceCache(DefaultTraceCacheConfig())
	lookupPC(tc, 96, 0) // line 16 covers PCs 96..101
	for pc := uint64(97); pc <= 101; pc++ {
		if hit, _ := lookupPC(tc, pc, 0); !hit {
			t.Fatalf("pc %d should share the trace line of pc 96", pc)
		}
	}
	if hit, _ := lookupPC(tc, 102, 0); hit {
		t.Fatal("pc 102 starts a new trace line and must miss")
	}
}

func TestTraceCacheTagsPrivatePerContext(t *testing.T) {
	tc := NewTraceCache(DefaultTraceCacheConfig())
	lookupPC(tc, 500, 0)
	hit, _ := lookupPC(tc, 500, 1)
	if hit {
		t.Fatal("default trace cache must not share lines across contexts")
	}
	shared := NewTraceCache(TraceCacheConfig{CapacityUops: 12288, LineUops: 6, Assoc: 8, SharedTags: true, MissPenalty: 22})
	lookupPC(shared, 500, 0)
	if hit, _ := lookupPC(shared, 500, 1); !hit {
		t.Fatal("SharedTags trace cache should hit across contexts")
	}
}

func TestTraceCacheFlushThread(t *testing.T) {
	tc := NewTraceCache(DefaultTraceCacheConfig())
	lookupPC(tc, 64, 0)
	lookupPC(tc, 4096, 1)
	tc.FlushThread(0)
	if hit, _ := lookupPC(tc, 64, 0); hit {
		t.Fatal("context 0 trace line should be flushed")
	}
	if hit, _ := lookupPC(tc, 4096, 1); !hit {
		t.Fatal("context 1 trace line should survive")
	}
}
