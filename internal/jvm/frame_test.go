package jvm

import (
	"testing"

	"javasmt/internal/bytecode"
	"javasmt/internal/core"
	"javasmt/internal/isa"
	"javasmt/internal/simos"
)

// interpretAll starts prog on a VM whose threads are driven by the
// interpreter alone (no core): every runnable thread's Fill is called
// round robin until all have exited. A VM panic fails the test.
func interpretAll(t *testing.T, prog *bytecode.Program, cfg Config) *VM {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("interpreting %s: %v", prog.Name, r)
		}
	}()
	k := simos.New(core.New(core.DefaultConfig(false)), simos.Options{})
	vm := New(prog, k, cfg)
	vm.Start()
	buf := make([]isa.Uop, core.DefaultParams().FillBatch)
	finished := map[*simos.Thread]bool{}
	for progressed := true; progressed; {
		progressed = false
		for _, th := range k.Threads() {
			if finished[th] || th.State() == simos.Blocked {
				continue
			}
			n, done := th.Src.Fill(buf)
			finished[th] = done
			progressed = progressed || n > 0 || done
		}
	}
	return vm
}

// keepAliveProgram allocates one object holding keepValue in field 0 and
// keeps it reachable only the way hold arranges, while a churn method
// allocates and fills far more than the heap holds, forcing collections;
// it then publishes the object's field 0 to global 0. Had the collector
// missed the root, the object's words would have been reused by churn
// arrays full of garbageValue.
func keepAliveProgram(hold func(pb *bytecode.ProgramBuilder, b *bytecode.MethodBuilder, churn int32)) *bytecode.Program {
	const arrays, words = 2000, 64
	pb := bytecode.NewProgram("keepalive")
	pb.Globals(1, 0)
	pb.Class("Box", 1, 0)

	churn := bytecode.NewMethod("churn", 0, 3) // 0=i, 1=array, 2=j
	outer, inner, next, done := churn.NewLabel(), churn.NewLabel(), churn.NewLabel(), churn.NewLabel()
	churn.Const(0).Store(0)
	churn.Bind(outer)
	churn.Load(0).Const(arrays)
	churn.Br(bytecode.IfGe, done)
	churn.Const(words).Op(bytecode.NewArray, bytecode.KindInt).Store(1)
	churn.Const(0).Store(2)
	churn.Bind(inner)
	churn.Load(2).Const(words)
	churn.Br(bytecode.IfGe, next)
	churn.Load(1).Load(2).Const(garbageValue).Op(bytecode.AStore)
	churn.Load(2).Const(1).Op(bytecode.Iadd).Store(2)
	churn.Br(bytecode.Goto, inner)
	churn.Bind(next)
	churn.Load(0).Const(1).Op(bytecode.Iadd).Store(0)
	churn.Br(bytecode.Goto, outer)
	churn.Bind(done)
	churn.Op(bytecode.Ret)
	churnIdx := pb.Add(churn.Finish())

	main := bytecode.NewMethod("main", 0, 1)
	main.Op(bytecode.New, 0).Op(bytecode.Dup).Const(keepValue).Op(bytecode.PutField, 0)
	hold(pb, main, churnIdx)
	main.Op(bytecode.GetField, 0).Op(bytecode.PutStatic, 0)
	main.Op(bytecode.Ret)
	pb.Entry(pb.Add(main.Finish()))
	return pb.MustLink(0)
}

const (
	keepValue    = 12345
	garbageValue = 999
)

// TestSlotRefsSurviveCollection: a frame's slot carries its value and
// reference bit together, so every way the interpreter moves a reference
// — Swap, Dup, a local store, a call's argument — must move the bit with
// it, and the collector must find the reference there.
func TestSlotRefsSurviveCollection(t *testing.T) {
	for _, tc := range []struct {
		name string
		hold func(pb *bytecode.ProgramBuilder, b *bytecode.MethodBuilder, churn int32)
	}{
		// [ref 7] → Swap → [7 ref]: across the churn the reference sits
		// in the slot the int occupied.
		{"swap", func(_ *bytecode.ProgramBuilder, b *bytecode.MethodBuilder, churn int32) {
			b.Const(7).Op(bytecode.Swap)
			b.Op(bytecode.Call, churn)
			b.Op(bytecode.Swap).Op(bytecode.Pop)
		}},
		// [ref] → Dup → Swap → Pop: only the duplicate survives.
		{"dup", func(_ *bytecode.ProgramBuilder, b *bytecode.MethodBuilder, churn int32) {
			b.Op(bytecode.Dup).Op(bytecode.Swap).Op(bytecode.Pop)
			b.Op(bytecode.Call, churn)
		}},
		// The operand stack is empty during the churn; local 0 holds it.
		{"local", func(_ *bytecode.ProgramBuilder, b *bytecode.MethodBuilder, churn int32) {
			b.Store(0)
			b.Op(bytecode.Call, churn)
			b.Load(0)
		}},
		// The caller's stack gives the reference up to the callee's
		// argument slot, which holds it across the churn and returns it.
		{"argument", func(pb *bytecode.ProgramBuilder, b *bytecode.MethodBuilder, churn int32) {
			keep := bytecode.NewMethod("keep", 1, 1).ReturnsRef()
			keep.Op(bytecode.Call, churn)
			keep.Load(0).Op(bytecode.RetVal)
			b.Op(bytecode.Call, pb.Add(keep.Finish()))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.HeapBytes = 256 << 10
			vm := interpretAll(t, keepAliveProgram(tc.hold), cfg)
			if vm.GCCount() == 0 {
				t.Fatal("the churn forced no collection; the test exercises nothing")
			}
			if got := vm.Global(0); got != keepValue {
				t.Fatalf("object field after %d collections = %d, want %d", vm.GCCount(), got, keepValue)
			}
		})
	}
}

// TestInvokeAllocFree pins the call path at zero allocations: once the
// thread's frames have grown to the call depth, a call pops its
// arguments straight into the callee's pooled slots and a return pops
// the frame, so an interpreter loop of calls allocates nothing.
func TestInvokeAllocFree(t *testing.T) {
	pb := bytecode.NewProgram("calls")
	pb.Globals(1, 0)
	add := bytecode.NewMethod("add", 2, 2)
	add.Load(0).Load(1).Op(bytecode.Iadd).Op(bytecode.RetVal)
	addIdx := pb.Add(add.Finish())
	main := bytecode.NewMethod("main", 0, 0)
	loop := main.NewLabel()
	main.Bind(loop)
	main.Const(1).Const(2).Op(bytecode.Call, addIdx).Op(bytecode.Pop)
	main.Br(bytecode.Goto, loop)
	pb.Entry(pb.Add(main.Finish()))

	k := simos.New(core.New(core.DefaultConfig(false)), simos.Options{})
	vm := New(pb.MustLink(0), k, DefaultConfig())
	th := vm.Start()
	buf := make([]isa.Uop, core.DefaultParams().FillBatch)
	th.Fill(buf) // grow the frame pool to the call depth
	if allocs := testing.AllocsPerRun(200, func() {
		if n, _ := th.Fill(buf); n == 0 {
			t.Fatal("the call loop emitted no µops")
		}
	}); allocs != 0 {
		t.Fatalf("a Fill of the call loop allocated %.1f times, want 0", allocs)
	}
}
