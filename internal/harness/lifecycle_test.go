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

// A cell canceled mid-run returns with every heap it mapped given
// back, without waiting for the Go collector: a canceled single run, a
// canceled mix, and a pairing canceled just after a relaunch.
func TestCanceledCellReleasesHeaps(t *testing.T) {
	a, _ := bench.ByName("compress")
	b, _ := bench.ByName("mpegaudio")
	pairOpts := DefaultPairOptions()
	pairOpts.Runs = 2
	// Solo reference runs are cached and never canceled; measure them
	// first so the pairing below launches only its own VMs.
	for _, x := range []*bench.Benchmark{a, b} {
		if _, err := SoloTime(x, pairOpts.Scale, pairOpts.Runs); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		run  func(cancel *atomic.Bool) error
	}{
		{"run", func(cancel *atomic.Bool) error {
			cancel.Store(true)
			_, err := Run(a, Options{HT: true, Threads: 1, Scale: bench.Tiny, Cancel: cancel})
			return err
		}},
		{"mix", func(cancel *atomic.Bool) error {
			cancel.Store(true)
			_, err := RunMix(ServerMix(8), Options{HT: true, Scale: bench.Tiny, Cancel: cancel})
			return err
		}},
		{"pair", func(cancel *atomic.Bool) error {
			launches := 0
			launchHook = func(*jvm.VM) {
				if launches++; launches == 3 {
					cancel.Store(true)
				}
			}
			defer func() { launchHook = nil }()
			opts := pairOpts
			opts.Cancel = cancel
			_, err := RunPair(a, b, opts)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := settledHeaps()
			var cancel atomic.Bool
			if err := tc.run(&cancel); !errors.Is(err, core.ErrCanceled) {
				t.Fatalf("cell returned %v, want a cancellation", err)
			}
			if n := jvm.LiveHeaps(); n != base {
				t.Fatalf("%d heaps live after the canceled cell returned, want %d", n, base)
			}
		})
	}
}
