package harness

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"javasmt/internal/bench"
	"javasmt/internal/core"
	"javasmt/internal/jvm"
	"javasmt/internal/resilience"
	"javasmt/internal/sampling"
)

// A relaunching pairing must not keep the VMs of finished runs
// reachable: its kernel lives until the pairing ends, so otherwise
// every run's heap would stay resident with it and a campaign's memory
// would grow with its relaunch count.
func TestRelaunchedVMsAreReleased(t *testing.T) {
	var launched []weak.Pointer[jvm.VM]
	peak := 0
	launchHook = func(vm *jvm.VM) {
		// Count the earlier launches still reachable mid-run, while the
		// kernel that ran them is live.
		runtime.GC()
		live := 0
		for _, w := range launched {
			if w.Value() != nil {
				live++
			}
		}
		peak = max(peak, live)
		launched = append(launched, weak.Make(vm))
	}
	defer func() { launchHook = nil }()

	a, _ := bench.ByName("compress")
	b, _ := bench.ByName("mpegaudio")
	opts := DefaultPairOptions()
	opts.Runs = 3
	if _, err := RunPair(a, b, opts); err != nil {
		t.Fatal(err)
	}
	// Each side launches at least Runs+2 times. At a launch, the VM that
	// just exited is still on the stack, the partner's VM is running,
	// and the partner may have one exited VM whose collector thread has
	// not run yet: at most three.
	const bound = 3
	if len(launched) < 2*(opts.Runs+2) {
		t.Fatalf("only %d launches observed, want at least %d", len(launched), 2*(opts.Runs+2))
	}
	if peak > bound {
		t.Fatalf("%d earlier VMs reachable at one launch (of %d launched), want at most %d", peak, len(launched), bound)
	}
	t.Logf("%d launches, at most %d earlier VMs reachable at once", len(launched), peak)
}

// settledHeaps collects until every unreachable VM heap has been
// finalized, so a later count moves only with the caller's own cells.
func settledHeaps() int {
	n := jvm.LiveHeaps()
	for range 50 {
		runtime.GC()
		time.Sleep(time.Millisecond)
		m := jvm.LiveHeaps()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// A cell stopped mid-run, canceled or out of cycle budget, fails with
// the matching error and returns with every heap it mapped given back,
// without waiting for the Go collector: a single run, a mix, and a
// pairing, each stopped either way.
func TestCanceledCellReleasesHeaps(t *testing.T) {
	a, _ := bench.ByName("compress")
	b, _ := bench.ByName("mpegaudio")
	const runs = 2
	// Solo reference runs are cached and never canceled or budgeted;
	// measure them first so the pairings below launch only their own VMs.
	for _, x := range []*bench.Benchmark{a, b} {
		if _, err := SoloTimePlan(x, bench.Tiny, runs, sampling.FullPlan()); err != nil {
			t.Fatal(err)
		}
	}
	// A canceled cell is canceled at its cancelAt-th VM launch: the run
	// and the mix as they start, the pairing just after a relaunch.
	cells := []struct {
		name     string
		cancelAt int
		run      func(o Options) error
	}{
		{"run", 1, func(o Options) error {
			_, err := Run(a, o)
			return err
		}},
		{"mix", 1, func(o Options) error {
			_, err := RunMix(ServerMix(8), o)
			return err
		}},
		{"pair", 3, func(o Options) error {
			_, err := RunPair(a, b, PairOptions{Scale: o.Scale, Runs: runs, MaxCycles: o.MaxCycles, Cancel: o.Cancel})
			return err
		}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			t.Run("canceled", func(t *testing.T) {
				var cancel atomic.Bool
				launches := 0
				launchHook = func(*jvm.VM) {
					if launches++; launches == c.cancelAt {
						cancel.Store(true)
					}
				}
				defer func() { launchHook = nil }()
				checkStopped(t, c.run, Options{HT: true, Threads: 1, Scale: bench.Tiny, Cancel: &cancel}, func(err error) bool {
					return errors.Is(err, core.ErrCanceled)
				})
			})
			t.Run("over_budget", func(t *testing.T) {
				checkStopped(t, c.run, Options{HT: true, Threads: 1, Scale: bench.Tiny, MaxCycles: 50_000}, func(err error) bool {
					return resilience.KindOf(err) == resilience.KindCycleBudget
				})
			})
		})
	}
}

// checkStopped runs one stopped cell and checks its error with want and
// that the live heap count is back where it started.
func checkStopped(t *testing.T, run func(Options) error, o Options, want func(error) bool) {
	t.Helper()
	base := settledHeaps()
	if err := run(o); !want(err) {
		t.Fatalf("cell returned %v", err)
	}
	if n := jvm.LiveHeaps(); n != base {
		t.Fatalf("%d heaps live after the stopped cell returned, want %d", n, base)
	}
}
