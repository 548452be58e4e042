//go:build checks

package core

import (
	"strings"
	"testing"

	"javasmt/internal/check"
	"javasmt/internal/counters"
	"javasmt/internal/isa"
)

// The checks-tagged tests reuse mixedStream from reset_test.go: it
// exercises every occupancy-tracked structure (ALU chains, loads, stores,
// branches).

// TestProbesFireDuringRun proves that a checks-tagged run actually
// evaluates the invariant probes (a regression here would make the whole
// checks test pass vacuous) and that the whole-program flow audit
// balances: fed == allocated == retired, in agreement with the counter.
func TestProbesFireDuringRun(t *testing.T) {
	check.ResetProbes()
	cfg := DefaultConfig(true)
	cpu := New(cfg)
	cpu.AttachFeed(0, &feed{src: &isa.SliceSource{Uops: mixedStream(20_000)}})
	cpu.AttachFeed(1, &feed{src: &isa.SliceSource{Uops: mixedStream(20_000)}})
	if _, err := cpu.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := check.Probes(); got < 1000 {
		t.Fatalf("only %d probe evaluations in a 40k-µop run; probes are not firing", got)
	}
	if cpu.ckFed != cpu.ckAlloc || cpu.ckAlloc != cpu.ckRetired {
		t.Fatalf("flow audit unbalanced: fed %d, alloc %d, retired %d",
			cpu.ckFed, cpu.ckAlloc, cpu.ckRetired)
	}
	if got := cpu.Counters().Get(counters.Instructions); got != cpu.ckRetired {
		t.Fatalf("uops_retired %d != audit %d", got, cpu.ckRetired)
	}
	if cpu.ckRetired != 40_000 {
		t.Fatalf("retired %d µops, want 40000", cpu.ckRetired)
	}
}

// TestResetClearsAudit: the Reset-reuse contract extends to the audit
// counters — a reset machine must start its flow audit from zero.
func TestResetClearsAudit(t *testing.T) {
	cfg := DefaultConfig(false)
	cpu := New(cfg)
	cpu.AttachFeed(0, &feed{src: &isa.SliceSource{Uops: mixedStream(5_000)}})
	if _, err := cpu.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	cpu.Reset()
	if cpu.ckFed != 0 || cpu.ckAlloc != 0 || cpu.ckRetired != 0 {
		t.Fatalf("Reset left audit counters at fed %d / alloc %d / retired %d",
			cpu.ckFed, cpu.ckAlloc, cpu.ckRetired)
	}
	cpu.AttachFeed(0, &feed{src: &isa.SliceSource{Uops: mixedStream(5_000)}})
	if _, err := cpu.Run(0); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	if cpu.ckRetired != 5_000 {
		t.Fatalf("retired %d after Reset, want 5000", cpu.ckRetired)
	}
}

// TestResetClearsHead: a run leaves in-flight µops, so head completions
// are set; Reset must clear every entry (its own verifyActivity probe
// would panic otherwise) and restart the rotation at cycle 0.
func TestResetClearsHead(t *testing.T) {
	cpu := New(DefaultConfig(true))
	cpu.AttachFeed(0, &feed{src: &isa.SliceSource{Uops: mixedStream(10_000)}})
	cpu.AttachFeed(1, &feed{src: &isa.SliceSource{Uops: mixedStream(10_000)}})
	if _, err := cpu.Run(501); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cpu.cores[0].head == [32]uint64{} {
		t.Fatal("no head completion set mid-run; the test exercises nothing")
	}
	cpu.Reset()
	if cpu.cores[0].head != [32]uint64{} || cpu.rot != 0 {
		t.Fatalf("Reset left head %v, rotation %d", cpu.cores[0].head, cpu.rot)
	}
}

// wantCheckPanic runs f and requires it to panic with a tagged invariant
// diagnostic mentioning substr.
func wantCheckPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("corrupted state was not detected (wanted panic mentioning %q)", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "check[") {
			t.Fatalf("panic %v is not a check diagnostic", r)
		}
		if !strings.Contains(msg, substr) {
			t.Fatalf("diagnostic %q does not mention %q", msg, substr)
		}
	}()
	f()
}

// TestCheckerDetectsCorruption injects the bug classes the recount exists
// for — incremental totals drifting from the real structure contents —
// and requires the checker to catch each one.
func TestCheckerDetectsCorruption(t *testing.T) {
	build := func() *CPU {
		cpu := New(DefaultConfig(true))
		cpu.AttachFeed(0, &feed{src: &isa.SliceSource{Uops: mixedStream(10_000)}})
		cpu.AttachFeed(1, &feed{src: &isa.SliceSource{Uops: mixedStream(10_000)}})
		if _, err := cpu.Run(500); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return cpu
	}

	t.Run("rob total drift", func(t *testing.T) {
		cpu := build()
		cpu.cores[0].totRob++
		wantCheckPanic(t, "incremental total", cpu.verifyRecount)
	})
	t.Run("load count drift", func(t *testing.T) {
		cpu := build()
		cpu.ctxs[0].loadsOut++
		cpu.cores[0].totLoads++
		wantCheckPanic(t, "incremental loadsOut", cpu.verifyRecount)
	})
	t.Run("partition cap violation", func(t *testing.T) {
		cpu := build()
		cpu.ctxs[0].robCount = cpu.robCapV + 1
		wantCheckPanic(t, "partition cap", cpu.verifyStep)
	})
	t.Run("head completion drift", func(t *testing.T) {
		cpu := build()
		cpu.cores[0].head[1]++
		wantCheckPanic(t, "head completion", cpu.verifyActivity)
	})
	t.Run("rotation drift", func(t *testing.T) {
		cpu := build()
		cpu.rot = (cpu.rot + 1) % cpu.cpc
		wantCheckPanic(t, "rotation", cpu.verifyActivity)
	})
	t.Run("counter divergence", func(t *testing.T) {
		cpu := build()
		cpu.file.Add(counters.Instructions, 7)
		wantCheckPanic(t, "diverged", cpu.verifyStep)
	})
}
