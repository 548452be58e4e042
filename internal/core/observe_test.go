package core

import (
	"testing"

	"javasmt/internal/check"
	"javasmt/internal/counters"
	"javasmt/internal/isa"
	"javasmt/internal/obs"
)

// obsWorkload builds a machine plus reusable feeds so repeated runs do
// no per-run allocation of their own.
func obsWorkload(n int) (*CPU, *feed, *feed, func()) {
	uops := benchUops()[:n]
	cpu := New(DefaultConfig(true))
	f0 := &feed{src: &isa.SliceSource{Uops: uops}}
	f1 := &feed{src: &isa.SliceSource{Uops: uops}}
	rewind := func() {
		f0.done, f1.done = false, false
		f0.src.(*isa.SliceSource).Reset()
		f1.src.(*isa.SliceSource).Reset()
		cpu.AttachFeed(0, f0)
		cpu.AttachFeed(1, f1)
	}
	return cpu, f0, f1, rewind
}

// TestObsDisabledAllocFree pins the acceptance criterion that disabled
// observability adds zero allocations to a simulation: with no observer
// attached, Reset + Run on a pooled machine must not allocate at all.
// scripts/verify.sh runs this test as the disabled-path allocation gate.
func TestObsDisabledAllocFree(t *testing.T) {
	if check.Enabled {
		t.Skip("instrumented (-tags checks) build: probes allocate by design")
	}
	cpu, _, _, rewind := obsWorkload(100_000)
	var runErr error
	allocs := testing.AllocsPerRun(3, func() {
		cpu.Reset()
		rewind()
		if _, err := cpu.Run(0); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs != 0 {
		t.Fatalf("disabled observability path allocates %.0f per run, want 0", allocs)
	}
}

// TestObsSamplingStride checks that an attached observer samples every
// stride cycles and that FinishObs lands the final sample exactly at the
// machine's last cycle with the end-of-run counter state.
func TestObsSamplingStride(t *testing.T) {
	cpu, _, _, rewind := obsWorkload(50_000)
	rewind()
	const stride = 5_000
	sink := obs.New(obs.Config{Metrics: true, Stride: stride})
	cpu.AttachObs(sink.RunFor("workload", cpu.Config().NumContexts()), 0)
	if _, err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	cpu.FinishObs()

	series := sink.Series("workload")
	if series == nil || len(series.Samples) < 3 {
		t.Fatalf("got %d samples, want several at stride %d", len(series.Samples), stride)
	}
	for i := 1; i < len(series.Samples); i++ {
		delta := series.Samples[i].Cycle - series.Samples[i-1].Cycle
		if delta == 0 {
			t.Fatalf("duplicate sample cycle %d", series.Samples[i].Cycle)
		}
		if i < len(series.Samples)-1 && delta < stride {
			t.Fatalf("samples %d cycles apart, want >= stride %d", delta, stride)
		}
	}
	final := series.Final()
	if final.Cycle != cpu.Now() {
		t.Errorf("final sample at cycle %d, machine stopped at %d", final.Cycle, cpu.Now())
	}
	f := cpu.Counters()
	if final.Cum.Cycles != f.Get(counters.Cycles) {
		t.Errorf("final cumulative cycles %d != counter file %d", final.Cum.Cycles, f.Get(counters.Cycles))
	}
	if final.Cum.Uops == 0 {
		t.Error("final sample carries no retired µops")
	}
	if final.Core.TCLines[0]+final.Core.TCLines[1] == 0 {
		t.Error("trace-cache occupancy empty after a 100k-µop run")
	}
}

// TestObsResetDetaches pins the pooling contract: Reset must detach the
// observer so a reused machine cannot leak samples into the previous
// experiment's series.
func TestObsResetDetaches(t *testing.T) {
	cpu, _, _, rewind := obsWorkload(20_000)
	sink := obs.New(obs.Config{Metrics: true, Stride: 1_000})
	cpu.AttachObs(sink.RunFor("first", cpu.Config().NumContexts()), 0)
	cpu.Reset()
	if cpu.Obs() != nil {
		t.Fatal("Reset left the observer attached")
	}
	rewind()
	if _, err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	cpu.FinishObs() // must be a no-op when detached
	if series := sink.Series("first"); len(series.Samples) != 0 {
		t.Fatalf("detached machine recorded %d samples", len(series.Samples))
	}

	// AttachObs(nil) is the explicit detach spelling.
	cpu.AttachObs(sink.RunFor("second", cpu.Config().NumContexts()), 0)
	cpu.AttachObs(nil, 0)
	if cpu.Obs() != nil {
		t.Fatal("AttachObs(nil) left the observer attached")
	}
}
