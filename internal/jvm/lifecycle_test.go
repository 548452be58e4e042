package jvm

import (
	"reflect"
	"runtime"
	"testing"
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

// A program run on a recycled heap — one a larger program dirtied and
// released — must behave exactly as on a freshly allocated heap.
func TestRecycledHeapMatchesFresh(t *testing.T) {
	cfg := DefaultConfig()
	// A heap size no other test uses, so every pooled slice that fits
	// it was released by this test.
	cfg.HeapBytes = 1536 << 10
	// Start from an empty pool, so the first run's heap is fresh.
	heapPool.Lock()
	heapPool.free = nil
	heapPool.Unlock()
	small := listProgram(500)
	fresh, freshCPU := runProgram(t, small, true, cfg)

	bigCPU := core.New(core.DefaultConfig(true))
	big := New(gcChurnProgram(400, 2048), simos.New(bigCPU, simos.Options{}), cfg)
	bigWords := &big.heap.words[0]
	big.Start()
	if _, err := bigCPU.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if big.heap.bump <= 0 {
		t.Fatal("large program left no heap footprint")
	}
	recycledCPU := core.New(core.DefaultConfig(true))
	recycled := New(small, simos.New(recycledCPU, simos.Options{}), cfg)
	if &recycled.heap.words[0] != bigWords {
		t.Fatal("the small program did not get the large program's released heap")
	}
	for i, w := range recycled.heap.words {
		if w != 0 {
			t.Fatalf("recycled heap word %d = %#x, want 0", i, w)
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

// The pool keeps at most maxPooledHeaps arrays and drops the oldest
// first, so arrays of a heap size no longer launched age out.
func TestHeapPoolIsBounded(t *testing.T) {
	heapPool.Lock()
	heapPool.free = nil
	heapPool.Unlock()
	var first *uint64
	for i := range maxPooledHeaps + 1 {
		h := newHeap(0, 64+i)
		h.bump = 1
		h.words[0] = 1
		if i == 0 {
			first = &h.words[0]
		}
		h.release()
	}
	if n := len(heapPool.free); n != maxPooledHeaps {
		t.Fatalf("pool holds %d arrays, want %d", n, maxPooledHeaps)
	}
	if h := newHeap(0, 64); &h.words[0] == first {
		t.Fatal("the oldest released array was kept past the bound")
	}
	if h := newHeap(0, 65); h.words[0] != 0 || len(h.words) != 65 {
		t.Fatalf("reused array: len %d, word 0 = %d, want len 65 and a cleared word", len(h.words), h.words[0])
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
