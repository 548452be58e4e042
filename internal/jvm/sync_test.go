package jvm

import (
	"strings"
	"testing"

	"javasmt/internal/bytecode"
	"javasmt/internal/core"
	"javasmt/internal/counters"
	"javasmt/internal/simos"
)

// expectVMErrorHT is expectVMError on a hyper-threaded machine, so two
// Java threads genuinely interleave on separate contexts.
func expectVMErrorHT(t *testing.T, prog *bytecode.Program, fragment string) {
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
	cpu := core.New(core.DefaultConfig(true))
	k := simos.New(cpu, simos.Options{})
	vm := New(prog, k, DefaultConfig())
	vm.Start()
	_, _ = cpu.Run(0)
}

func TestStoreBufferForwardingAndDrain(t *testing.T) {
	prog := sumProgram(1)
	cpu := core.New(core.DefaultConfig(false))
	k := simos.New(cpu, simos.Options{})
	vm := New(prog, k, DefaultConfig())
	th := vm.Start()

	th.sbPut(0, 42)
	if v, ok := th.sbLoad(0); !ok || v != 42 {
		t.Fatalf("sbLoad = %d,%v; want forwarded 42", v, ok)
	}
	if vm.globals[0] != 0 {
		t.Fatal("buffered store must not be globally visible before a drain")
	}
	th.sbDrain()
	if vm.globals[0] != 42 {
		t.Fatalf("globals[0] = %d after drain, want 42", vm.globals[0])
	}
	if _, ok := th.sbLoad(0); ok {
		t.Fatal("drain must empty the buffer")
	}

	// Same-slot forwarding returns the newest entry, and overflowing the
	// capacity publishes the backlog rather than dropping it.
	for i := 0; i < sbCap; i++ {
		th.sbPut(0, uint64(100+i))
	}
	if v, _ := th.sbLoad(0); v != uint64(100+sbCap-1) {
		t.Fatalf("forwarded %d, want newest %d", v, 100+sbCap-1)
	}
	th.sbPut(1, 7) // 9th entry: drains all eight, then buffers itself
	if vm.globals[0] != uint64(100+sbCap-1) {
		t.Fatalf("globals[0] = %d after overflow drain, want %d", vm.globals[0], 100+sbCap-1)
	}
	if th.sbLen != 1 {
		t.Fatalf("sbLen = %d after overflow, want 1", th.sbLen)
	}
}

func TestVolatileRoundtrip(t *testing.T) {
	pb := bytecode.NewProgram("vol")
	pb.Globals(2, 0)
	b := bytecode.NewMethod("main", 0, 0)
	b.Const(123).Op(bytecode.PutVolatile, 0)
	b.Op(bytecode.GetVolatile, 0).Op(bytecode.PutStatic, 1)
	b.Op(bytecode.Ret)
	pb.Entry(pb.Add(b.Finish()))
	vm, cpu := runProgram(t, pb.MustLink(0), false, DefaultConfig())
	if got := int64(vm.Global(1)); got != 123 {
		t.Fatalf("global[1] = %d, want 123", got)
	}
	if n := cpu.Counters().Get(counters.FenceUops); n < 2 {
		t.Fatalf("fence_uops = %d, want >= 2 (one per volatile op)", n)
	}
}

func TestCasSemantics(t *testing.T) {
	pb := bytecode.NewProgram("cas")
	pb.Globals(3, 0)
	b := bytecode.NewMethod("main", 0, 0)
	// Successful swap 0 -> 5, then a failing swap (expected 0, now 5).
	b.Const(0).Const(5).Op(bytecode.Cas, 0).Op(bytecode.PutStatic, 1)
	b.Const(0).Const(7).Op(bytecode.Cas, 0).Op(bytecode.PutStatic, 2)
	b.Op(bytecode.Ret)
	pb.Entry(pb.Add(b.Finish()))
	vm, cpu := runProgram(t, pb.MustLink(0), false, DefaultConfig())
	if got := int64(vm.Global(0)); got != 5 {
		t.Fatalf("global[0] = %d, want 5 (failed CAS must not overwrite)", got)
	}
	if s, f := int64(vm.Global(1)), int64(vm.Global(2)); s != 1 || f != 0 {
		t.Fatalf("cas results = %d,%d; want 1,0", s, f)
	}
	cf := cpu.Counters()
	if ops, fails := cf.Get(counters.CASOps), cf.Get(counters.CASFailures); ops != 2 || fails != 1 {
		t.Fatalf("cas_ops=%d cas_failures=%d, want 2,1", ops, fails)
	}
}

func TestCasSpinThenBlockYields(t *testing.T) {
	pb := bytecode.NewProgram("casspin")
	pb.Globals(1, 0)
	b := bytecode.NewMethod("main", 0, 1)
	// global[0] starts at 9, so CAS(0 -> 1) fails every iteration:
	// 2*casSpinLimit consecutive failures must charge two kernel yields.
	loop, done := b.NewLabel(), b.NewLabel()
	b.Const(9).Op(bytecode.PutVolatile, 0)
	b.Const(0).Store(0)
	b.Bind(loop)
	b.Load(0).Const(int32(2 * casSpinLimit))
	b.Br(bytecode.IfGe, done)
	b.Const(0).Const(1).Op(bytecode.Cas, 0).Op(bytecode.Pop)
	b.Load(0).Const(1).Op(bytecode.Iadd).Store(0)
	b.Br(bytecode.Goto, loop)
	b.Bind(done)
	b.Op(bytecode.Ret)
	pb.Entry(pb.Add(b.Finish()))
	vm, cpu := runProgram(t, pb.MustLink(0), false, DefaultConfig())
	if got := int64(vm.Global(0)); got != 9 {
		t.Fatalf("global[0] = %d, want 9", got)
	}
	cf := cpu.Counters()
	if fails := cf.Get(counters.CASFailures); fails != uint64(2*casSpinLimit) {
		t.Fatalf("cas_failures = %d, want %d", fails, 2*casSpinLimit)
	}
	if sys := cf.Get(counters.Syscalls); sys != 2 {
		t.Fatalf("syscalls = %d, want exactly 2 spin-to-block yields", sys)
	}
}

// deadlockProgram: main locks A then B, a worker locks B then A, with a
// volatile handshake forcing the interleaving. Whichever thread blocks
// second closes the waits-for cycle.
func deadlockProgram() *bytecode.Program {
	pb := bytecode.NewProgram("deadlock")
	cls := pb.Class("O", 1, 0)
	pb.Globals(3, 0b11) // 0=objA(ref), 1=objB(ref), 2=flag

	w := bytecode.NewMethod("w", 0, 0)
	w.Op(bytecode.GetVolatile, 1).Op(bytecode.MonEnter) // lock B
	w.Const(1).Op(bytecode.PutVolatile, 2)              // signal: B held
	w.Op(bytecode.GetVolatile, 0).Op(bytecode.MonEnter) // lock A (cycle)
	w.Op(bytecode.GetVolatile, 0).Op(bytecode.MonExit)
	w.Op(bytecode.GetVolatile, 1).Op(bytecode.MonExit)
	w.Op(bytecode.Ret)
	wi := pb.Add(w.Finish())

	main := bytecode.NewMethod("main", 0, 1)
	main.Op(bytecode.New, cls).Op(bytecode.PutVolatile, 0)
	main.Op(bytecode.New, cls).Op(bytecode.PutVolatile, 1)
	main.Op(bytecode.GetVolatile, 0).Op(bytecode.MonEnter) // lock A
	main.Op(bytecode.ThreadStart, wi).Store(0)
	spin := main.NewLabel()
	main.Bind(spin)
	main.Op(bytecode.GetVolatile, 2).Const(1)
	main.Br(bytecode.IfNe, spin)                           // wait until worker holds B
	main.Op(bytecode.GetVolatile, 1).Op(bytecode.MonEnter) // lock B (cycle)
	main.Op(bytecode.GetVolatile, 1).Op(bytecode.MonExit)
	main.Op(bytecode.GetVolatile, 0).Op(bytecode.MonExit)
	main.Op(bytecode.Ret)
	pb.Entry(pb.Add(main.Finish()))
	return pb.MustLink(0)
}

func TestDeadlockDetected(t *testing.T) {
	expectVMErrorHT(t, deadlockProgram(), "deadlock")
}

func TestJoinSelfDeadlockDetected(t *testing.T) {
	pb := bytecode.NewProgram("selfjoin")
	b := bytecode.NewMethod("main", 0, 0)
	b.Const(0).Op(bytecode.ThreadJoin) // main is thread id 0
	b.Op(bytecode.Ret)
	pb.Entry(pb.Add(b.Finish()))
	expectVMError(t, pb.MustLink(0), "deadlock")
}
