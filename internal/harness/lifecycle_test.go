package harness

import (
	"runtime"
	"testing"
	"weak"

	"javasmt/internal/bench"
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
