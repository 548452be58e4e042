package harness

import (
	"strings"
	"testing"

	"javasmt/internal/bench"
	"javasmt/internal/core"
	"javasmt/internal/counters"
)

func TestRunSingleBenchmark(t *testing.T) {
	b, _ := bench.ByName("compress")
	res, err := Run(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Counters.Get(counters.Instructions) == 0 {
		t.Fatal("empty result")
	}
	if res.IPC() <= 0 {
		t.Fatal("IPC must be positive")
	}
}

func TestRunMultithreaded(t *testing.T) {
	b, _ := bench.ByName("MonteCarlo")
	res, err := Run(b, Options{HT: true, Threads: 4, Scale: bench.Tiny, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.DTModePercent() <= 10 {
		t.Fatalf("DT mode = %.1f%%, expected substantial overlap", res.Counters.DTModePercent())
	}
}

func TestSoloTimeCaching(t *testing.T) {
	b, _ := bench.ByName("mpegaudio")
	v1, err := SoloTime(b, bench.Tiny, 3)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := SoloTime(b, bench.Tiny, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 || v1 == 0 {
		t.Fatalf("solo time unstable: %v vs %v", v1, v2)
	}
}

func TestRunPairProtocol(t *testing.T) {
	a, _ := bench.ByName("compress")
	b, _ := bench.ByName("mpegaudio")
	opts := DefaultPairOptions()
	opts.Runs = 3
	res, err := RunPair(a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RunsA < opts.Runs || res.RunsB < opts.Runs {
		t.Fatalf("too few averaged runs: %d/%d", res.RunsA, res.RunsB)
	}
	cab := res.CombinedSpeedup()
	if cab < 0.4 || cab > 2.0 {
		t.Fatalf("combined speedup %.3f outside sane SMT range", cab)
	}
	// Co-scheduled times cannot beat solo times.
	if res.SpeedupA() > 1.05 || res.SpeedupB() > 1.05 {
		t.Fatalf("individual speedups exceed 1: A=%.3f B=%.3f", res.SpeedupA(), res.SpeedupB())
	}
	if res.Counters.Get(counters.CyclesDT) == 0 {
		t.Fatal("pair ran with no dual-thread cycles")
	}
}

func TestSelfPairBeatsTimeSharing(t *testing.T) {
	b, _ := bench.ByName("mpegaudio")
	opts := DefaultPairOptions()
	opts.Runs = 3
	res, err := RunPair(b, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cab := res.CombinedSpeedup(); cab <= 1.0 {
		t.Fatalf("self-pairing mpegaudio C_AB = %.3f, expected SMT gain over time sharing", cab)
	}
}

func TestFig10StaticPartitionTax(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, _, err := RunFig10(Config{Scale: bench.Tiny})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9", len(rows))
	}
	slower := 0
	for _, r := range rows {
		if r.CyclesOn > r.CyclesOff {
			slower++
		}
		// Dynamic partitioning must never be slower than static.
		if r.CyclesDyn > r.CyclesOn+r.CyclesOn/50 {
			t.Fatalf("%s: dynamic partition (%d) slower than static (%d)", r.Benchmark, r.CyclesDyn, r.CyclesOn)
		}
	}
	if slower < 5 {
		t.Fatalf("only %d of 9 programs pay the static-partition tax; paper reports 7 of 9", slower)
	}
	out := RenderFig10(rows)
	if !strings.Contains(out, "slow down when Hyper-Threading") {
		t.Fatal("render incomplete")
	}
}

func TestTable1MentionsAllBenchmarks(t *testing.T) {
	out := Table1()
	for _, b := range bench.All() {
		if !strings.Contains(out, b.Name) {
			t.Fatalf("Table 1 missing %s", b.Name)
		}
	}
}

func TestCharacterizationSmallSlice(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A reduced matrix sanity check: one benchmark, both HT modes.
	res, err := Run(mustBench(t, "MonteCarlo"), Options{Threads: 2, Scale: bench.Tiny, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	resHT, err := Run(mustBench(t, "MonteCarlo"), Options{HT: true, Threads: 2, Scale: bench.Tiny, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if resHT.Counters.IPC() <= res.Counters.IPC() {
		t.Fatalf("HT should raise MT IPC: off=%.3f on=%.3f", res.Counters.IPC(), resHT.Counters.IPC())
	}
}

func mustBench(t *testing.T, name string) *bench.Benchmark {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	return b
}

func TestOptionsPlumbing(t *testing.T) {
	cfg := cpuConfig(Options{HT: true, Partition: core.DynamicPartition, TCSharedTags: true})
	if cfg.Geometry != (core.Geometry{Cores: 1, ContextsPerCore: 2}) || cfg.Partition != core.DynamicPartition || !cfg.TC.SharedTags {
		t.Fatal("options not plumbed into core config")
	}
	v := vmConfig(bench.Tiny, 1)
	if v.HeapBase == vmConfig(bench.Tiny, 0).HeapBase {
		t.Fatal("co-scheduled programs must get distinct address spaces")
	}
}
