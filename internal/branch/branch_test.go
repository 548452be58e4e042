package branch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAlwaysTakenLoopLearns(t *testing.T) {
	p := New(DefaultConfig())
	pc, target := uint64(100), uint64(40)
	warmup, steady := 0, 0
	for i := 0; i < 100; i++ {
		ok, _ := p.Predict(pc, true, target, false, 0)
		if !ok {
			if i < 50 {
				warmup++
			} else {
				steady++
			}
		}
	}
	// Gshare needs ~HistoryBits predictions for the history register to
	// saturate before the PHT index stabilizes; after that, a
	// monomorphic taken branch must never mispredict.
	if warmup > 20 {
		t.Fatalf("warmup misses = %d, want <= 20", warmup)
	}
	if steady != 0 {
		t.Fatalf("steady-state misses = %d, want 0", steady)
	}
	s := p.Stats()
	if s.Branches != 100 {
		t.Fatalf("branches = %d, want 100", s.Branches)
	}
	if s.BTBMisses != 1 {
		t.Fatalf("BTB misses = %d, want 1 (cold only)", s.BTBMisses)
	}
}

func TestNotTakenDefaultWithoutBTBEntry(t *testing.T) {
	p := New(DefaultConfig())
	// A never-taken branch never allocates a BTB entry, is predicted
	// fall-through, and is always correct — but counts as a BTB miss
	// every time (no entry exists), matching P4 event semantics.
	for i := 0; i < 50; i++ {
		ok, pen := p.Predict(200, false, 0, false, 0)
		if !ok || pen != 0 {
			t.Fatalf("iteration %d: not-taken branch should predict correctly", i)
		}
	}
	if m := p.Stats().BTBMisses; m != 50 {
		t.Fatalf("BTB misses = %d, want 50", m)
	}
}

func TestIndirectTargetChangesMispredict(t *testing.T) {
	p := New(DefaultConfig())
	// Interpreter-style dispatch: same PC, rotating targets.
	targets := []uint64{10, 20, 30, 40}
	mis := 0
	for i := 0; i < 400; i++ {
		if ok, _ := p.Predict(300, true, targets[i%len(targets)], true, 0); !ok {
			mis++
		}
	}
	if mis < 200 {
		t.Fatalf("rotating indirect targets should mispredict heavily, got %d/400", mis)
	}
}

func TestMispredictPenalty(t *testing.T) {
	p := New(DefaultConfig())
	_, pen := p.Predict(100, true, 50, false, 0) // cold: no BTB entry, taken => wrong
	if pen != DefaultConfig().MispredictPenalty {
		t.Fatalf("penalty = %d, want %d", pen, DefaultConfig().MispredictPenalty)
	}
}

// BTB entries are thread-tagged: no other context hits on context 0's
// entry, at two contexts and at four.
func TestBTBEntriesArePerContext(t *testing.T) {
	for _, n := range []int{2, 4} {
		p := NewFor(DefaultConfig(), n)
		pc, tgt := uint64(64), uint64(8)
		// Warm context 0.
		for i := 0; i < 10; i++ {
			p.Predict(pc, true, tgt, false, 0)
		}
		for ctx := 1; ctx < n; ctx++ {
			before := p.Stats().BTBMisses
			p.Predict(pc, true, tgt, false, ctx)
			if p.Stats().BTBMisses != before+1 {
				t.Fatalf("n=%d: context %d must not hit on context 0's BTB entry (thread-tagged)", n, ctx)
			}
		}
		before := p.Stats().BTBMisses
		p.Predict(pc, true, tgt, false, 0)
		if p.Stats().BTBMisses != before {
			t.Fatalf("n=%d: context 0 lost its BTB entry", n)
		}
	}
}

func TestSharedCapacityIsDestructive(t *testing.T) {
	cfg := DefaultConfig()
	run := func(dual bool) float64 {
		p := New(cfg)
		rng := rand.New(rand.NewSource(42))
		// Enough distinct branch PCs to stress a 4096-entry BTB when doubled.
		pcs := make([]uint64, 3000)
		for i := range pcs {
			pcs[i] = uint64(rng.Intn(1 << 20))
		}
		for iter := 0; iter < 20; iter++ {
			for _, pc := range pcs {
				p.Predict(pc, true, pc+1, false, 0)
				if dual {
					p.Predict(pc, true, pc+1, false, 1)
				}
			}
		}
		s := p.Stats()
		return float64(s.BTBMisses) / float64(s.Branches)
	}
	solo, dual := run(false), run(true)
	if dual <= solo {
		t.Fatalf("BTB miss ratio should rise when a second context shares capacity: solo=%.4f dual=%.4f", solo, dual)
	}
}

func TestFlushThread(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		p.Predict(128, true, 4, false, 0)
		p.Predict(129, true, 4, false, 1)
	}
	p.FlushThread(0)
	before := p.Stats().BTBMisses
	p.Predict(128, true, 4, false, 0)
	if p.Stats().BTBMisses != before+1 {
		t.Fatal("context 0 BTB entry should have been flushed")
	}
	p.Predict(129, true, 4, false, 1)
	if p.Stats().BTBMisses != before+1 {
		t.Fatal("context 1 BTB entry should survive a context 0 flush")
	}
}

// Property: every transfer is counted once, from up to four contexts,
// and neither BTB misses nor mispredictions exceed branches.
func TestStatsInvariants(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		p := NewFor(DefaultConfig(), 4)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			p.Predict(uint64(rng.Intn(512)), rng.Intn(2) == 0, uint64(rng.Intn(512)), rng.Intn(4) == 0, rng.Intn(4))
		}
		s := p.Stats()
		return s.Branches == uint64(n) && s.BTBMisses <= s.Branches && s.Mispredicts <= s.Branches
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
	New(Config{BTBEntries: 12, BTBAssoc: 4, HistoryBits: 4})
}
