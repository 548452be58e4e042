package harness

import (
	"math"
	"sync"
	"testing"

	"javasmt/internal/check"
	"javasmt/internal/core"
)

// Metamorphic tests: relations between experiment outcomes that must hold
// regardless of the absolute numbers the model produces. They catch whole
// classes of bugs (role asymmetry in the pairing protocol, state leaking
// across Reset, scheduler unfairness) that golden numbers cannot, because
// a golden file would simply be regenerated around them.

// skipIfChecks skips the most simulation-heavy protocol tests in the
// instrumented build: probes multiply simulation cost several-fold, and
// these tests validate protocol *relations*, not probe coverage — the
// probes run under the rest of the suite (including the cheaper
// metamorphic and golden tests, which stay enabled).
func skipIfChecks(t *testing.T) {
	t.Helper()
	if check.Enabled {
		t.Skip("instrumented (-tags checks) build: heavyweight protocol test skipped")
	}
}

// relErr is |a-b| / max(|a|,|b|).
func relErr(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// TestMetamorphicPairingSymmetry: RunPair(A,B) and RunPair(B,A) are the
// same physical experiment with the programs' logical contexts swapped.
// The machine is not perfectly symmetric under that swap (the two hardware
// contexts interleave differently, and context 0 boots first), so the
// paper reports *near*-perfect reflective symmetry rather than identity —
// but A's time in the (A,B) seating must closely match A's time in the
// (B,A) seating, and the combined speedup even more closely (measured
// worst case across these pairs: 4.5% on times, <2% on C_AB).
func TestMetamorphicPairingSymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	skipIfChecks(t)
	pairs := [][2]string{
		{"compress", "mpegaudio"}, // small-footprint, cache-friendly
		{"jack", "javac"},         // trace-cache-hungry pair (paper's slowdown cluster)
		{"db", "jess"},            // memory-bound vs allocation-heavy
	}
	opts := DefaultPairOptions()
	opts.Runs = 2
	for _, p := range pairs {
		a, b := mustBench(t, p[0]), mustBench(t, p[1])
		ab, err := RunPair(a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := RunPair(b, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Solo times are keyed by (benchmark, scale, runs) only, so the
		// swapped seating must observe the *identical* baselines.
		if ab.SoloA != ba.SoloB || ab.SoloB != ba.SoloA {
			t.Errorf("%s+%s: solo baselines changed under seating swap: (%v,%v) vs (%v,%v)",
				p[0], p[1], ab.SoloA, ab.SoloB, ba.SoloB, ba.SoloA)
		}
		if e := relErr(ab.TimeA, ba.TimeB); e > 0.08 {
			t.Errorf("%s+%s: %s's co-scheduled time differs %.1f%% between seatings (%v vs %v)",
				p[0], p[1], p[0], 100*e, ab.TimeA, ba.TimeB)
		}
		if e := relErr(ab.TimeB, ba.TimeA); e > 0.08 {
			t.Errorf("%s+%s: %s's co-scheduled time differs %.1f%% between seatings (%v vs %v)",
				p[0], p[1], p[1], 100*e, ab.TimeB, ba.TimeA)
		}
		if e := relErr(ab.CombinedSpeedup(), ba.CombinedSpeedup()); e > 0.05 {
			t.Errorf("%s+%s: combined speedup differs %.1f%% between seatings (%v vs %v)",
				p[0], p[1], 100*e, ab.CombinedSpeedup(), ba.CombinedSpeedup())
		}
	}
}

// TestMetamorphicSoloPairEquivalence: co-scheduling two programs on the
// HT-*off* machine is pure time-sharing of one pipeline, so the combined
// speedup C_AB = SoloA/TimeA + SoloB/TimeB cannot exceed 1 — each program
// gets at most its solo rate for its share of the cycles. Pairs whose
// working sets survive the process switches land near 1 (the two runs
// together take about as long as the two solo runs back to back); pairs
// that thrash each other's trace cache land well below. Either way the
// uniprocessor bound holds, which is exactly the "HT off equals the solo
// runs, no free lunch" equivalence.
func TestMetamorphicSoloPairEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := DefaultPairOptions()
	opts.Runs = 2
	cases := []struct {
		a, b string
		// minC is the pair-specific floor: small-footprint pairs must
		// time-share efficiently; thrashy pairs only need to stay positive.
		minC float64
	}{
		{"compress", "mpegaudio", 0.8},
		{"MolDyn", "RayTracer", 0.8},
		{"jack", "javac", 0.2},
	}
	for _, c := range cases {
		a, b := mustBench(t, c.a), mustBench(t, c.b)
		// runPairOn with an HT-off machine: two processes, one pipeline.
		res, err := runPairOn(core.New(cpuConfig(Options{})), a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		cab := res.CombinedSpeedup()
		if cab > 1.02 {
			t.Errorf("%s+%s: HT-off combined speedup %.3f exceeds the uniprocessor bound 1",
				c.a, c.b, cab)
		}
		if cab < c.minC {
			t.Errorf("%s+%s: HT-off combined speedup %.3f below %.2f — time-sharing lost too much",
				c.a, c.b, cab, c.minC)
		}
		if res.SpeedupA() > 1.02 || res.SpeedupB() > 1.02 {
			t.Errorf("%s+%s: a time-shared program ran faster than solo (%.3f, %.3f)",
				c.a, c.b, res.SpeedupA(), res.SpeedupB())
		}
	}

	// The simulator is deterministic: the same HT-off co-schedule twice
	// must be identical to the last counter.
	a, b := mustBench(t, "compress"), mustBench(t, "mpegaudio")
	r1, err := runPairOn(core.New(cpuConfig(Options{})), a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runPairOn(core.New(cpuConfig(Options{})), a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TimeA != r2.TimeA || r1.TimeB != r2.TimeB || r1.Counters != r2.Counters {
		t.Errorf("HT-off co-schedule not deterministic: (%v,%v) vs (%v,%v)",
			r1.TimeA, r1.TimeB, r2.TimeA, r2.TimeB)
	}
}

// TestMetamorphicResetGenerations: a machine that has already run a full
// pairing, once Reset, must reproduce a fresh machine's results bit for
// bit — the guarantee the pooled parallel engine rests on, probed here
// across several generations on one machine.
func TestMetamorphicResetGenerations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	a, b := mustBench(t, "jack"), mustBench(t, "mpegaudio")
	opts := DefaultPairOptions()
	opts.Runs = 2

	fresh, err := runPairOn(core.New(pairCPUConfig()), a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	cpu := core.New(pairCPUConfig())
	for gen := 0; gen < 3; gen++ {
		cpu.Reset()
		got, err := runPairOn(cpu, a, b, opts)
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		if got.TimeA != fresh.TimeA || got.TimeB != fresh.TimeB ||
			got.RunsA != fresh.RunsA || got.RunsB != fresh.RunsB ||
			got.Counters != fresh.Counters {
			t.Fatalf("generation %d diverges from fresh machine: times (%v,%v) vs (%v,%v)",
				gen, got.TimeA, got.TimeB, fresh.TimeA, fresh.TimeB)
		}
	}
}

// TestMetamorphicCrossProduct runs the paper's full 9x9 pairing cross
// product at the cheapest protocol setting and checks every relation at
// once: the rendered figure tables are byte-identical between -j 1 and
// -j 8 (scheduling independence over pooled, Reset-reused machines), the
// matrix is reflectively symmetric, every cell's counter file satisfies
// the conservation laws, and every combined speedup sits in the physical
// band (0, 2].
func TestMetamorphicCrossProduct(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	skipIfChecks(t)
	// The -j 1 and -j 8 campaigns run concurrently, each on its own
	// Config and result, and are compared only once both have finished.
	var (
		results [2]*Pairings
		errs    [2]error
		wg      sync.WaitGroup
	)
	for i, jobs := range []int{1, 8} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := DefaultConfig()
			cfg.Runs = 1
			cfg.Jobs = jobs
			results[i], errs[i] = RunPairings(cfg)
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
			t.Errorf("%s diverges between -j 1 and -j 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				cmp.name, cmp.serial, cmp.parall)
		}
	}

	n := len(serial.Names)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			res := serial.Results[i][j]
			if res == nil {
				t.Fatalf("cell %s+%s missing", serial.Names[i], serial.Names[j])
			}
			if serial.Combined[i][j] != serial.Combined[j][i] {
				t.Errorf("matrix not reflectively symmetric at %s+%s: %v vs %v",
					serial.Names[i], serial.Names[j], serial.Combined[i][j], serial.Combined[j][i])
			}
			if c := serial.Combined[i][j]; c <= 0 || c > 2 {
				t.Errorf("%s+%s: combined speedup %.3f outside (0, 2]",
					serial.Names[i], serial.Names[j], c)
			}
			if j < i {
				continue // mirrored cell shares the (i,j) counter file
			}
			if err := res.Counters.CheckConservation(); err != nil {
				t.Errorf("%s+%s: %v", serial.Names[i], serial.Names[j], err)
			}
		}
	}
}
