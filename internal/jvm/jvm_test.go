package jvm

import (
	"strings"
	"testing"

	"javasmt/internal/bytecode"
	"javasmt/internal/core"
	"javasmt/internal/counters"
	"javasmt/internal/isa"
	"javasmt/internal/simos"
)

// runProgram executes prog on a fresh machine and returns the VM and the
// CPU for counter inspection.
func runProgram(t *testing.T, prog *bytecode.Program, ht bool, cfg Config) (*VM, *core.CPU) {
	t.Helper()
	cpu := core.New(core.DefaultConfig(ht))
	k := simos.New(cpu, simos.Options{})
	vm := New(prog, k, cfg)
	vm.Start()
	if _, err := cpu.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return vm, cpu
}

// --- small programs ---

// sumProgram: global[0] = sum of 0..n-1.
func sumProgram(n int32) *bytecode.Program {
	pb := bytecode.NewProgram("sum")
	pb.Globals(1, 0)
	b := bytecode.NewMethod("main", 0, 2) // 0=i, 1=s
	loop, done := b.NewLabel(), b.NewLabel()
	b.Const(0).Store(0).Const(0).Store(1)
	b.Bind(loop)
	b.Load(0).Const(n)
	b.Br(bytecode.IfGe, done)
	b.Load(1).Load(0).Op(bytecode.Iadd).Store(1)
	b.Load(0).Const(1).Op(bytecode.Iadd).Store(0)
	b.Br(bytecode.Goto, loop)
	b.Bind(done)
	b.Load(1).Op(bytecode.PutStatic, 0)
	b.Op(bytecode.Ret)
	pb.Entry(pb.Add(b.Finish()))
	return pb.MustLink(0)
}

func TestSumLoop(t *testing.T) {
	vm, cpu := runProgram(t, sumProgram(1000), false, DefaultConfig())
	if got := int64(vm.Global(0)); got != 499500 {
		t.Fatalf("sum = %d, want 499500", got)
	}
	f := cpu.Counters()
	if f.Get(counters.Instructions) == 0 || f.Get(counters.Branches) < 1000 {
		t.Fatal("execution should have produced µops and branches")
	}
}

func TestRecursionFib(t *testing.T) {
	pb := bytecode.NewProgram("fib")
	pb.Globals(1, 0)
	fib := bytecode.NewMethod("fib", 1, 1)
	rec := fib.NewLabel()
	fib.Load(0).Const(2)
	fib.Br(bytecode.IfGe, rec)
	fib.Load(0).Op(bytecode.RetVal)
	fib.Bind(rec)
	fib.Load(0).Const(1).Op(bytecode.Isub).Op(bytecode.Call, 0)
	fib.Load(0).Const(2).Op(bytecode.Isub).Op(bytecode.Call, 0)
	fib.Op(bytecode.Iadd).Op(bytecode.RetVal)
	pb.Add(fib.Finish())
	main := bytecode.NewMethod("main", 0, 0)
	main.Const(15).Op(bytecode.Call, 0).Op(bytecode.PutStatic, 0).Op(bytecode.Ret)
	pb.Entry(pb.Add(main.Finish()))
	vm, _ := runProgram(t, pb.MustLink(0), false, DefaultConfig())
	if got := int64(vm.Global(0)); got != 610 {
		t.Fatalf("fib(15) = %d, want 610", got)
	}
}

func TestFloatMath(t *testing.T) {
	pb := bytecode.NewProgram("float")
	pb.Globals(1, 0)
	b := bytecode.NewMethod("main", 0, 0)
	// sqrt(2.0)*sqrt(2.0) + 1.0/4.0
	b.FConst(2.0).Op(bytecode.Fmath, bytecode.MathSqrt)
	b.FConst(2.0).Op(bytecode.Fmath, bytecode.MathSqrt)
	b.Op(bytecode.Fmul)
	b.FConst(1.0).FConst(4.0).Op(bytecode.Fdiv)
	b.Op(bytecode.Fadd)
	b.Op(bytecode.PutStatic, 0)
	b.Op(bytecode.Ret)
	pb.Entry(pb.Add(b.Finish()))
	vm, _ := runProgram(t, pb.MustLink(0), false, DefaultConfig())
	got := vm.GlobalFloat(0)
	if got < 2.2499 || got > 2.2501 {
		t.Fatalf("result = %v, want 2.25", got)
	}
}

// listProgram builds a linked list of n nodes, then sums the values by
// pointer chasing: exercises New, PutField, GetField, IfNull.
func listProgram(n int32) *bytecode.Program {
	pb := bytecode.NewProgram("list")
	node := pb.Class("Node", 2, 0b10) // field 0 = value, field 1 = next (ref)
	pb.Globals(1, 0)
	b := bytecode.NewMethod("main", 0, 3) // 0=i, 1=head(ref), 2=sum
	build, sum, done := b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.Const(0).Store(0)
	b.Const(0).Store(1)
	b.Bind(build)
	b.Load(0).Const(n)
	b.Br(bytecode.IfGe, sum)
	// node = new Node; node.value = i; node.next = head; head = node
	b.Op(bytecode.New, node)
	b.Op(bytecode.Dup).Load(0).Op(bytecode.PutField, 0)
	b.Op(bytecode.Dup).Load(1).Op(bytecode.PutField, 1)
	b.Store(1)
	b.Load(0).Const(1).Op(bytecode.Iadd).Store(0)
	b.Br(bytecode.Goto, build)
	b.Bind(sum)
	b.Const(0).Store(2)
	loop := b.NewLabel()
	b.Bind(loop)
	b.Load(1)
	b.Br(bytecode.IfNull, done)
	b.Load(2).Load(1).Op(bytecode.GetField, 0).Op(bytecode.Iadd).Store(2)
	b.Load(1).Op(bytecode.GetField, 1).Store(1)
	b.Br(bytecode.Goto, loop)
	b.Bind(done)
	b.Load(2).Op(bytecode.PutStatic, 0)
	b.Op(bytecode.Ret)
	pb.Entry(pb.Add(b.Finish()))
	return pb.MustLink(0)
}

func TestLinkedListPointerChasing(t *testing.T) {
	vm, _ := runProgram(t, listProgram(500), false, DefaultConfig())
	if got := int64(vm.Global(0)); got != 124750 {
		t.Fatalf("list sum = %d, want 124750", got)
	}
	// Local slot 1 must have been tracked as a reference for GC.
	objs, _ := vm.AllocStats()
	if objs != 500 {
		t.Fatalf("allocated %d objects, want 500", objs)
	}
}

func TestArrays(t *testing.T) {
	pb := bytecode.NewProgram("arrays")
	pb.Globals(2, 0)
	b := bytecode.NewMethod("main", 0, 2) // 0=arr, 1=i
	fill, sum, done := b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.Const(100).Op(bytecode.NewArray, bytecode.KindInt).Store(0)
	b.Const(0).Store(1)
	b.Bind(fill)
	b.Load(1).Const(100)
	b.Br(bytecode.IfGe, sum)
	b.Load(0).Load(1).Load(1).Load(1).Op(bytecode.Imul).Op(bytecode.AStore)
	b.Load(1).Const(1).Op(bytecode.Iadd).Store(1)
	b.Br(bytecode.Goto, fill)
	b.Bind(sum)
	// global0 = arr[99], global1 = arr.length
	b.Load(0).Const(99).Op(bytecode.ALoad).Op(bytecode.PutStatic, 0)
	b.Load(0).Op(bytecode.ArrayLen).Op(bytecode.PutStatic, 1)
	b.Br(bytecode.Goto, done)
	b.Bind(done)
	b.Op(bytecode.Ret)
	pb.Entry(pb.Add(b.Finish()))
	vm, _ := runProgram(t, pb.MustLink(0), false, DefaultConfig())
	if got := int64(vm.Global(0)); got != 99*99 {
		t.Fatalf("arr[99] = %d, want %d", got, 99*99)
	}
	if got := int64(vm.Global(1)); got != 100 {
		t.Fatalf("len = %d, want 100", got)
	}
}

// gcChurnProgram allocates n garbage arrays of the given size while
// keeping one live list; forces collections on a small heap.
func gcChurnProgram(n, size int32) *bytecode.Program {
	pb := bytecode.NewProgram("gcchurn")
	pb.Globals(1, 0)
	b := bytecode.NewMethod("main", 0, 3) // 0=i, 1=tmp, 2=sum
	loop, done := b.NewLabel(), b.NewLabel()
	b.Const(0).Store(0).Const(0).Store(2)
	b.Bind(loop)
	b.Load(0).Const(n)
	b.Br(bytecode.IfGe, done)
	b.Const(size).Op(bytecode.NewArray, bytecode.KindInt).Store(1)
	// tmp[0] = i; sum += tmp[0]
	b.Load(1).Const(0).Load(0).Op(bytecode.AStore)
	b.Load(2).Load(1).Const(0).Op(bytecode.ALoad).Op(bytecode.Iadd).Store(2)
	b.Load(0).Const(1).Op(bytecode.Iadd).Store(0)
	b.Br(bytecode.Goto, loop)
	b.Bind(done)
	b.Load(2).Op(bytecode.PutStatic, 0)
	b.Op(bytecode.Ret)
	pb.Entry(pb.Add(b.Finish()))
	return pb.MustLink(0)
}

func TestGCReclaimsGarbage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HeapBytes = 1 << 20 // 1 MB heap
	// 2000 arrays x 1024 words = ~16 MB churned through a 1 MB heap.
	vm, cpu := runProgram(t, gcChurnProgram(2000, 1024), false, cfg)
	if got, want := int64(vm.Global(0)), int64(2000)*1999/2; got != want {
		t.Fatalf("checksum = %d, want %d (GC must not corrupt live data)", got, want)
	}
	if vm.GCCount() == 0 {
		t.Fatal("the churn must have forced at least one collection")
	}
	if cpu.Counters().Get(counters.GCCycles) == 0 {
		t.Fatal("collector work should be attributed to the GCCycles counter")
	}
}

func TestGCKeepsReachableGraphOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HeapBytes = 1 << 20
	// The list program's live list survives arbitrary GC pressure added
	// by linking it to churn: reuse the linked list with a small heap so
	// collections happen mid-build.
	vm, _ := runProgram(t, listProgram(3000), false, cfg)
	if got := int64(vm.Global(0)); got != int64(3000)*2999/2 {
		t.Fatalf("list sum after GC pressure = %d, want %d", got, int64(3000)*2999/2)
	}
}

// monitorProgram: nThreads workers each increment a shared counter field
// m times under a monitor. Exact final count proves mutual exclusion.
func monitorProgram(nThreads, m int32) *bytecode.Program {
	pb := bytecode.NewProgram("monitor")
	counter := pb.Class("Counter", 1, 0)
	pb.Globals(2, 0b1) // global0 = counter ref, global1 = result
	worker := bytecode.NewMethod("worker", 0, 1)
	loop, done := worker.NewLabel(), worker.NewLabel()
	worker.Const(0).Store(0)
	worker.Bind(loop)
	worker.Load(0).Const(m)
	worker.Br(bytecode.IfGe, done)
	worker.Op(bytecode.GetStatic, 0).Op(bytecode.MonEnter)
	worker.Op(bytecode.GetStatic, 0).Op(bytecode.Dup).Op(bytecode.GetField, 0)
	worker.Const(1).Op(bytecode.Iadd).Op(bytecode.PutField, 0)
	worker.Op(bytecode.GetStatic, 0).Op(bytecode.MonExit)
	worker.Load(0).Const(1).Op(bytecode.Iadd).Store(0)
	worker.Br(bytecode.Goto, loop)
	worker.Bind(done)
	worker.Op(bytecode.Ret)
	wIdx := pb.Add(worker.Finish())

	main := bytecode.NewMethod("main", 0, 2) // 0=i, 1=tid base store
	main.Op(bytecode.New, counter).Op(bytecode.PutStatic, 0)
	// spawn workers, keeping ids in an int array
	main.Const(nThreads).Op(bytecode.NewArray, bytecode.KindInt).Store(1)
	spawn, joined := main.NewLabel(), main.NewLabel()
	main.Const(0).Store(0)
	main.Bind(spawn)
	main.Load(0).Const(nThreads)
	main.Br(bytecode.IfGe, joined)
	main.Load(1).Load(0).Op(bytecode.ThreadStart, wIdx).Op(bytecode.AStore)
	main.Load(0).Const(1).Op(bytecode.Iadd).Store(0)
	main.Br(bytecode.Goto, spawn)
	main.Bind(joined)
	join, fin := main.NewLabel(), main.NewLabel()
	main.Const(0).Store(0)
	main.Bind(join)
	main.Load(0).Const(nThreads)
	main.Br(bytecode.IfGe, fin)
	main.Load(1).Load(0).Op(bytecode.ALoad).Op(bytecode.ThreadJoin)
	main.Load(0).Const(1).Op(bytecode.Iadd).Store(0)
	main.Br(bytecode.Goto, join)
	main.Bind(fin)
	main.Op(bytecode.GetStatic, 0).Op(bytecode.GetField, 0).Op(bytecode.PutStatic, 1)
	main.Op(bytecode.Ret)
	mIdx := pb.Add(main.Finish())
	pb.Entry(mIdx)
	return pb.MustLink(0)
}

func TestMonitorsMutualExclusion(t *testing.T) {
	const nThreads, m = 4, 500
	vm, cpu := runProgram(t, monitorProgram(nThreads, m), true, DefaultConfig())
	if got := int64(vm.Global(1)); got != nThreads*m {
		t.Fatalf("counter = %d, want %d (lost updates => broken monitors)", got, nThreads*m)
	}
	f := cpu.Counters()
	if f.Get(counters.MonitorBlocks) == 0 {
		t.Fatal("4 threads hammering one lock must block sometimes")
	}
	if f.Get(counters.CyclesDT) == 0 {
		t.Fatal("threads should have overlapped on the two contexts")
	}
}

func TestThreadJoinAlreadyExited(t *testing.T) {
	pb := bytecode.NewProgram("join")
	pb.Globals(1, 0)
	w := bytecode.NewMethod("w", 0, 0)
	w.Const(7).Op(bytecode.PutStatic, 0).Op(bytecode.Ret)
	wi := pb.Add(w.Finish())
	main := bytecode.NewMethod("main", 0, 1)
	main.Op(bytecode.ThreadStart, wi).Store(0)
	// Busy-wait a little so the worker can finish first sometimes, then join.
	for i := 0; i < 50; i++ {
		main.Const(int32(i)).Op(bytecode.Pop)
	}
	main.Load(0).Op(bytecode.ThreadJoin)
	main.Op(bytecode.Ret)
	pb.Entry(pb.Add(main.Finish()))
	vm, _ := runProgram(t, pb.MustLink(0), false, DefaultConfig())
	if got := int64(vm.Global(0)); got != 7 {
		t.Fatalf("global = %d, want 7", got)
	}
}

func expectVMError(t *testing.T, prog *bytecode.Program, fragment string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected VM error containing %q", fragment)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, fragment) {
			t.Fatalf("panic %v does not contain %q", r, fragment)
		}
	}()
	cpu := core.New(core.DefaultConfig(false))
	k := simos.New(cpu, simos.Options{})
	vm := New(prog, k, DefaultConfig())
	vm.Start()
	_, _ = cpu.Run(0)
}

func TestNullDereferencePanics(t *testing.T) {
	pb := bytecode.NewProgram("null")
	pb.Globals(1, 0b1)
	b := bytecode.NewMethod("main", 0, 0)
	b.Op(bytecode.GetStatic, 0).Op(bytecode.GetField, 0).Op(bytecode.Pop).Op(bytecode.Ret)
	pb.Entry(pb.Add(b.Finish()))
	expectVMError(t, pb.MustLink(0), "null pointer")
}

func TestBoundsCheckPanics(t *testing.T) {
	pb := bytecode.NewProgram("bounds")
	b := bytecode.NewMethod("main", 0, 1)
	b.Const(4).Op(bytecode.NewArray, bytecode.KindInt).Store(0)
	b.Load(0).Const(9).Op(bytecode.ALoad).Op(bytecode.Pop).Op(bytecode.Ret)
	pb.Entry(pb.Add(b.Finish()))
	expectVMError(t, pb.MustLink(0), "out of bounds")
}

func TestDivByZeroPanics(t *testing.T) {
	pb := bytecode.NewProgram("div0")
	b := bytecode.NewMethod("main", 0, 0)
	b.Const(5).Const(0).Op(bytecode.Idiv).Op(bytecode.Pop).Op(bytecode.Ret)
	pb.Entry(pb.Add(b.Finish()))
	expectVMError(t, pb.MustLink(0), "division by zero")
}

func TestOutOfMemoryPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HeapBytes = 64 << 10
	pb := bytecode.NewProgram("oom")
	pb.Globals(1, 0b1)
	b := bytecode.NewMethod("main", 0, 1)
	// Build an ever-growing live list until the heap bursts.
	node := pb.Class("Node", 2, 0b10)
	loop := b.NewLabel()
	b.Const(0).Op(bytecode.PutStatic, 0)
	b.Bind(loop)
	b.Op(bytecode.New, node).Store(0)
	b.Load(0).Op(bytecode.GetStatic, 0).Op(bytecode.PutField, 1)
	b.Load(0).Op(bytecode.PutStatic, 0)
	b.Br(bytecode.Goto, loop)
	pb.Entry(pb.Add(b.Finish()))
	prog := pb.MustLink(0)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected OutOfMemoryError")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "OutOfMemoryError") {
			t.Fatalf("panic %v is not an OOM", r)
		}
	}()
	cpu := core.New(core.DefaultConfig(false))
	k := simos.New(cpu, simos.Options{})
	vm := New(prog, k, cfg)
	vm.Start()
	_, _ = cpu.Run(0)
}

func TestMonExitNotOwnerPanics(t *testing.T) {
	// Statically balanced (one enter, one exit) so the verifier accepts
	// it, but the exit releases a different object's monitor: the
	// runtime still owns the "does not own" check.
	pb := bytecode.NewProgram("badmon")
	cls := pb.Class("O", 1, 0)
	b := bytecode.NewMethod("main", 0, 2)
	b.Op(bytecode.New, cls).Store(0)
	b.Op(bytecode.New, cls).Store(1)
	b.Load(0).Op(bytecode.MonEnter)
	b.Load(1).Op(bytecode.MonExit)
	b.Op(bytecode.Ret)
	pb.Entry(pb.Add(b.Finish()))
	expectVMError(t, pb.MustLink(0), "does not own")
}

func TestUopPCsStayWithinMethodRanges(t *testing.T) {
	prog := sumProgram(50)
	cpu := core.New(core.DefaultConfig(false))
	k := simos.New(cpu, simos.Options{})
	vm := New(prog, k, DefaultConfig())
	th := vm.Start()

	m := prog.Methods[prog.Entry]
	raw := make([]isa.Uop, 4096)
	n, _ := th.Fill(raw)
	for i := 0; i < n; i++ {
		pc := raw[i].PC
		if pc >= m.CodeBase && pc < m.CodeBase+uint64(m.UopLen) {
			continue
		}
		if pc >= runtimeCodeBase {
			continue // runtime/kernel slow paths are fine
		}
		t.Fatalf("µop %d PC %#x outside method range [%#x,%#x)", i, pc, m.CodeBase, m.CodeBase+uint64(m.UopLen))
	}
	if n == 0 {
		t.Fatal("Fill produced nothing")
	}
}
