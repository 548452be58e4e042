package jvm

import (
	"reflect"
	"runtime"
	"testing"
	"time"
	"weak"

	"javasmt/internal/bytecode"
	"javasmt/internal/core"
	"javasmt/internal/simos"
)

// startVM starts prog under k and returns only a weak pointer to its
// VM, so the caller holds no strong reference once it returns.
func startVM(prog *bytecode.Program, k *simos.Kernel, cfg Config) weak.Pointer[VM] {
	vm := New(prog, k, cfg)
	vm.Start()
	return weak.Make(vm)
}

// A finished VM must not stay reachable from the kernel that ran it:
// the kernel outlives its programs across a relaunching campaign, and
// each VM carries a whole heap.
func TestFinishedVMIsCollected(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog *bytecode.Program
	}{
		{"threads", monitorProgram(4, 50)},
		{"gc", gcChurnProgram(300, 1024)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.HeapBytes = 1 << 20
			cpu := core.New(core.DefaultConfig(true))
			k := simos.New(cpu, simos.Options{})
			wp := startVM(tc.prog, k, cfg)
			if _, err := cpu.Run(0); err != nil {
				t.Fatalf("Run: %v", err)
			}
			runtime.GC()
			if wp.Value() != nil {
				t.Fatal("finished VM is still reachable from its live kernel")
			}
			// The kernel still reports every thread it ran.
			for _, th := range k.Threads() {
				if th.State() != simos.Exited || th.Name == "" {
					t.Fatalf("thread %d %q: state %v, want a named exited thread", th.ID, th.Name, th.State())
				}
			}
			runtime.KeepAlive(k)
		})
	}
}

// settledHeaps collects until every unreachable heap has been
// finalized, so a count taken afterwards moves only with the caller's
// own VMs.
func settledHeaps() int {
	n := LiveHeaps()
	for range 50 {
		runtime.GC()
		time.Sleep(time.Millisecond)
		m := LiveHeaps()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// A program run after another has dirtied and given back a heap of the
// same size must behave exactly as on the first heap ever made: every
// heap starts all-zero, whatever ran before it.
func TestRecycledHeapMatchesFresh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HeapBytes = 1536 << 10
	small := listProgram(500)
	fresh, freshCPU := runProgram(t, small, true, cfg)

	big, _ := runProgram(t, gcChurnProgram(400, 2048), true, cfg)
	if big.GCCount() == 0 || big.heap.bump <= 0 {
		t.Fatalf("large program left no heap footprint (%d collections, bump %d)", big.GCCount(), big.heap.bump)
	}
	recycledCPU := core.New(core.DefaultConfig(true))
	recycled := New(small, simos.New(recycledCPU, simos.Options{}), cfg)
	for i, w := range recycled.heap.words {
		if w != 0 {
			t.Fatalf("heap word %d = %#x after a GC-churn program, want 0", i, w)
		}
	}
	recycled.Start()
	if _, err := recycledCPU.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if recycled.heap.bump >= big.heap.bump {
		t.Fatalf("small program's footprint %d words is not below the large one's %d", recycled.heap.bump, big.heap.bump)
	}

	if !reflect.DeepEqual(fresh.globals, recycled.globals) {
		t.Fatalf("globals differ: fresh %v, recycled %v", fresh.globals, recycled.globals)
	}
	if *freshCPU.Counters() != *recycledCPU.Counters() {
		t.Fatalf("counters differ:\nfresh    %+v\nrecycled %+v", *freshCPU.Counters(), *recycledCPU.Counters())
	}
	if freshCPU.Now() != recycledCPU.Now() {
		t.Fatalf("cycles differ: fresh %d, recycled %d", freshCPU.Now(), recycledCPU.Now())
	}
}

// startUnfinished starts a GC-churn program and stops it after a few
// thousand cycles, mid-run.
func startUnfinished(t *testing.T) *VM {
	t.Helper()
	cfg := DefaultConfig()
	cfg.HeapBytes = 1 << 20
	cpu := core.New(core.DefaultConfig(true))
	vm := New(gcChurnProgram(300, 1024), simos.New(cpu, simos.Options{}), cfg)
	vm.Start()
	if _, err := cpu.Run(20_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cpu.Drained() {
		t.Fatal("the cycle budget did not stop the program mid-run")
	}
	return vm
}

// A VM gives its heap back when its last mutator exits, and Release on
// an unfinished VM gives it back at once; both leave LiveHeaps where it
// started, and a second Release is harmless.
func TestHeapReleasedAtExitAndOnRelease(t *testing.T) {
	base := settledHeaps()
	vm, _ := runProgram(t, gcChurnProgram(300, 1024), true, DefaultConfig())
	if n := LiveHeaps(); n != base {
		t.Fatalf("%d heaps live after the program exited, want %d", n, base)
	}
	vm.Release()

	vm = startUnfinished(t)
	if n := LiveHeaps(); n != base+1 {
		t.Fatalf("%d heaps live mid-run, want %d", n, base+1)
	}
	vm.Release()
	vm.Release()
	if n := LiveHeaps(); n != base {
		t.Fatalf("%d heaps live after Release, want %d", n, base)
	}
}

// A VM a test drops mid-run, with its kernel and CPU, never exits and
// is never released; the collector must still give its heap back.
func TestDroppedVMIsUnmapped(t *testing.T) {
	base := settledHeaps()
	startUnfinished(t)
	if n := LiveHeaps(); n != base+1 {
		t.Fatalf("%d heaps live after dropping a running VM, want %d before a collection", n, base+1)
	}
	if n := settledHeaps(); n != base {
		t.Fatalf("%d heaps live after collections, want %d: the dropped VM kept its heap", n, base)
	}
}

// A terminated VM's heap is gone: any later access panics instead of
// reading memory another VM may already be using.
func TestReleasedHeapAccessPanics(t *testing.T) {
	vm, _ := runProgram(t, sumProgram(100), true, DefaultConfig())
	if vm.heap.words != nil {
		t.Fatal("terminated VM still holds its heap words")
	}
	for name, access := range map[string]func(){
		"addrToIdx": func() { vm.heap.addrToIdx(vm.heap.base) },
		"objSize":   func() { vm.heap.objSize(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released heap did not panic", name)
				}
			}()
			access()
		}()
	}
}
