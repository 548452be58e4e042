package tlb

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestColdMissThenHit(t *testing.T) {
	tl := New(DefaultITLBConfig())
	if tl.Access(0x400000, 0) {
		t.Fatal("cold translation should miss")
	}
	if !tl.Access(0x400000, 0) {
		t.Fatal("second translation should hit")
	}
	if !tl.Access(0x400ffc, 0) {
		t.Fatal("same-page address should hit")
	}
	if tl.Access(0x401000, 0) {
		t.Fatal("next page should miss")
	}
	if s := tl.Stats(); s != (Stats{Accesses: 4, Misses: 2}) {
		t.Fatalf("stats = %+v, want 4 accesses / 2 misses", s)
	}
}

// A partitioned ITLB serving n contexts gives each 1/n of the entries: a
// working set of 128/n pages fits a context's slice, twice that thrashes.
func TestPartitioningHalvesReach(t *testing.T) {
	missesAfterWarm := func(tl *TLB, npages, ctx int) uint64 {
		var warm uint64
		for pass := 0; pass < 4; pass++ {
			for i := 0; i < npages; i++ {
				tl.Access(uint64(i)<<12, ctx)
			}
			if pass == 0 {
				warm = tl.Stats().Misses
			}
		}
		return tl.Stats().Misses - warm
	}
	for _, n := range []int{1, 2, 4} {
		reach := DefaultITLBConfig().Entries / n
		for _, ctx := range []int{0, n - 1} {
			fits := New(DefaultITLBConfig())
			fits.SetContexts(n)
			if m := missesAfterWarm(fits, reach, ctx); m != 0 {
				t.Fatalf("n=%d ctx %d: %d-page set should fit its slice, got %d misses", n, ctx, reach, m)
			}
			thrash := New(DefaultITLBConfig())
			thrash.SetContexts(n)
			if m := missesAfterWarm(thrash, 2*reach, ctx); m == 0 {
				t.Fatalf("n=%d ctx %d: %d-page set must thrash a %d-entry slice", n, ctx, 2*reach, reach)
			}
		}
	}
}

func TestUnpartitionedSharedUnderHT(t *testing.T) {
	for _, n := range []int{2, 4} {
		tl := New(DefaultDTLBConfig())
		tl.SetContexts(n)
		tl.Access(0x8000, 0)
		for ctx := 1; ctx < n; ctx++ {
			if !tl.Access(0x8000, ctx) {
				t.Fatalf("n=%d: shared DTLB should hit for context %d", n, ctx)
			}
		}
	}
}

// Partition isolation: no context of a partitioned ITLB sees another's
// translations, at two contexts and at four.
func TestPartitionedIsPrivateUnderHT(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for owner := 0; owner < n; owner++ {
				tl := New(DefaultITLBConfig())
				tl.SetContexts(n)
				tl.Access(0x8000, owner)
				for ctx := 0; ctx < n; ctx++ {
					if ctx != owner && tl.Access(0x8000, ctx) {
						t.Fatalf("context %d sees context %d's translation", ctx, owner)
					}
				}
				if !tl.Access(0x8000, owner) {
					t.Fatalf("context %d lost its own translation", owner)
				}
			}
		})
	}
}

// OccupancyInto counts each partition's translations exactly, at two
// contexts and at four; a shared TLB counts everything under index 0.
func TestOccupancyIntoPerPartition(t *testing.T) {
	for _, n := range []int{2, 4} {
		it, dt := New(DefaultITLBConfig()), New(DefaultDTLBConfig())
		it.SetContexts(n)
		dt.SetContexts(n)
		want := make([]int, n)
		total := 0
		for ctx := 0; ctx < n; ctx++ {
			for i := 0; i <= ctx; i++ {
				it.Access(uint64(ctx*8+i)<<12, ctx)
				dt.Access(uint64(ctx*8+i)<<12, ctx)
			}
			want[ctx] = ctx + 1
			total += ctx + 1
		}
		got := it.OccupancyInto(make([]int, n))
		for p := range want {
			if got[p] != want[p] {
				t.Fatalf("n=%d: ITLB occupancy %v, want %v", n, got, want)
			}
		}
		if got := dt.OccupancyInto(make([]int, n)); got[0] != total {
			t.Fatalf("n=%d: DTLB occupancy %v, want %d under index 0", n, got, total)
		}
		if short := it.OccupancyInto(make([]int, 1)); short[0] != want[0] {
			t.Fatalf("n=%d: ITLB occupancy[:1] = %v, want [%d]", n, short, want[0])
		}
	}
}

func TestFlushContext(t *testing.T) {
	for _, n := range []int{2, 4} {
		tl := New(DefaultITLBConfig())
		tl.SetContexts(n)
		for ctx := 0; ctx < n; ctx++ {
			tl.Access(uint64(ctx+1)<<12, ctx)
		}
		tl.FlushContext(0)
		if tl.Access(1<<12, 0) {
			t.Fatalf("n=%d: context 0 translation should be flushed", n)
		}
		for ctx := 1; ctx < n; ctx++ {
			if !tl.Access(uint64(ctx+1)<<12, ctx) {
				t.Fatalf("n=%d: context %d translation should survive", n, ctx)
			}
		}
	}
	// Unpartitioned (or single-context): FlushContext flushes everything.
	sh := New(DefaultDTLBConfig())
	sh.Access(0x1000, 0)
	sh.FlushContext(1)
	if sh.Access(0x1000, 0) {
		t.Fatal("shared TLB FlushContext should drop all translations")
	}
}

// Property: every translation is counted once, at one, two or four
// contexts, and misses never exceed accesses.
func TestMissesNeverExceedAccesses(t *testing.T) {
	f := func(addrs []uint32, nctx uint8) bool {
		n := 1 << (nctx % 3)
		tl := New(DefaultITLBConfig())
		tl.SetContexts(n)
		for i, a := range addrs {
			tl.Access(uint64(a), i%n)
		}
		s := tl.Stats()
		return s.Accesses == uint64(len(addrs)) && s.Misses <= s.Accesses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Name: "bad", Entries: 12, Assoc: 5, PageSize: 4096})
}
