package harness

import (
	"sync"
	"testing"

	"javasmt/internal/bench"
	"javasmt/internal/sampling"
)

// resetSoloCache clears the solo-time cache so a test can observe cold
// computations.
func resetSoloCache() {
	soloMu.Lock()
	soloCache = map[string]*soloEntry{}
	soloMu.Unlock()
}

// TestSoloTimeSingleflight asserts the singleflight property: many
// concurrent SoloTimePlan calls for the same key run exactly one simulation
// and all see the same value.
func TestSoloTimeSingleflight(t *testing.T) {
	b, _ := bench.ByName("mpegaudio")
	resetSoloCache()
	before := soloSims.Load()

	const callers = 8
	vals := make([]float64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = SoloTimePlan(b, bench.Tiny, 3, sampling.FullPlan())
		}(i)
	}
	wg.Wait()

	if sims := soloSims.Load() - before; sims != 1 {
		t.Fatalf("%d solo simulations for one key, want exactly 1 (singleflight)", sims)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if vals[i] != vals[0] || vals[i] == 0 {
			t.Fatalf("caller %d saw %v, caller 0 saw %v", i, vals[i], vals[0])
		}
	}
}

// TestRunPairingsParallelDeterminism asserts the engine's core
// guarantee: the parallel cross product — pooled, Reset-reused CPUs and
// all — renders byte-identical figure tables to the serial reference.
func TestRunPairingsParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var progs []*bench.Benchmark
	for _, name := range []string{"compress", "mpegaudio", "db"} {
		b, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		progs = append(progs, b)
	}
	// The -j 1 and -j 4 campaigns run concurrently, each on its own
	// Config and result, and are compared only once both have finished.
	var (
		results [2]*Pairings
		errs    [2]error
		wg      sync.WaitGroup
	)
	for i, jobs := range []int{1, 4} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := DefaultConfig()
			cfg.Runs = 3
			cfg.Jobs = jobs
			results[i], errs[i] = RunPairingsOf(progs, cfg)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	serial, parallel := results[0], results[1]

	for _, cmp := range []struct {
		name           string
		serial, parall string
	}{
		{"Fig8", serial.Fig8(), parallel.Fig8()},
		{"Fig9", serial.Fig9(), parallel.Fig9()},
		{"Fig11", serial.Fig11(), parallel.Fig11()},
	} {
		if cmp.serial != cmp.parall {
			t.Errorf("%s diverges between -j 1 and -j 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
				cmp.name, cmp.serial, cmp.parall)
		}
	}
}

// TestRunFig12ParallelMatchesSerial spot-checks the grid fan-out path:
// rows come back in grid order with identical values at any job count.
func TestRunFig12ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	serial, _, err := RunFig12(Config{Scale: bench.Tiny, Jobs: 1}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := RunFig12(Config{Scale: bench.Tiny, Jobs: 4}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if s, p := RenderFig12(serial), RenderFig12(parallel); s != p {
		t.Errorf("Fig12 diverges:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
}
