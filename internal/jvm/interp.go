package jvm

import (
	"fmt"
	"math"

	"javasmt/internal/bytecode"
	"javasmt/internal/counters"
	"javasmt/internal/isa"
	"javasmt/internal/simos"
)

// runtimeCodeBase is the µop PC region of VM runtime slow paths
// (allocation stubs, monitor contention paths, thread intrinsics). It
// sits between user code and kernel code.
const runtimeCodeBase = 1 << 28

// slot is one local or operand-stack entry: its value, the producer µop
// index its DepDist is measured from, and whether it holds a reference
// (a GC root).
type slot struct {
	v    uint64
	prod uint64
	ref  bool
}

// frame is one method activation.
type frame struct {
	m   *bytecode.Method
	pc  int
	ret uint64 // µop PC the matching Ret jumps back to

	// slots holds the locals, then the operand stack; sp is the absolute
	// index of the first free stack slot (m.NLocals when the stack is
	// empty). The collector scans slots[:sp] for roots.
	slots []slot
	sp    int
}

// Thread is a Java thread: an isa.Source whose Fill interprets bytecode
// and emits µops.
type Thread struct {
	vm        *VM
	id        int
	name      string
	osThread  *simos.Thread
	stackBase uint64

	frames []frame
	depth  int

	// uopIdx numbers emitted µops from 1; slot producer indices refer
	// to it and DepDist is the difference at consumption time.
	uopIdx  uint64
	blocked blockReason
	exited  bool

	// Store-to-load dependency tracking: a small direct-mapped table of
	// recent stores so that loads from a just-written address depend on
	// the storing µop. This serializes the load-modify-store
	// accumulator idiom that dominates compiled Java loops, which is
	// essential for realistic (low) Java IPC on the model.
	stTag  [16]uint64
	stProd [16]uint64
	// gcRetried marks an allocation retried after a collection this
	// thread itself requested (forces the allocation through).
	gcRetried bool

	// Store buffer (x86-TSO, DESIGN.md §14): plain PutStatic stores
	// queue here and become globally visible only when the buffer
	// drains — on a fence (volatile store, CAS, monitor operation,
	// thread lifecycle, blocking), on capacity overflow, or by aging.
	// Same-thread GetStatic forwards the newest buffered value, so
	// single-threaded semantics are unchanged; other threads read the
	// stale vm.globals until the drain, which is exactly the store-
	// buffering relaxation the litmus harness probes for.
	sbSlot  [sbCap]int32
	sbVal   [sbCap]uint64
	sbLen   int
	sbStamp uint64 // t.instrs when the buffer last became non-empty

	// waitMon / waitJoin record what a blocked thread is waiting for;
	// together they form the waits-for graph deadlock detection walks.
	waitMon  *monitor
	waitJoin *Thread

	// casFailStreak counts consecutive failed Cas executions for the
	// spin-then-block policy.
	casFailStreak int

	joinWaiters []*Thread
	onExit      []func()

	// gc is non-nil on the collector helper thread, whose µop stream
	// comes from mark/sweep work instead of bytecode.
	gc *gcState

	// instrs counts executed bytecode instructions.
	instrs uint64
}

// Store-buffer geometry: sbCap matches a P4-class write-combining/store
// queue depth; sbAgeInstrs bounds how long a store can stay privately
// buffered (in executed bytecodes) so visibility is merely delayed,
// never withheld.
const (
	sbCap       = 8
	sbAgeInstrs = 256
)

// casSpinLimit is how many consecutive Cas failures a thread tolerates
// before the runtime charges a yield into the kernel (spin-then-block).
const casSpinLimit = 8

// sbDrain publishes every buffered store to vm.globals, oldest first,
// and empties the buffer. Draining whole buffers at once means other
// threads never observe a partial FIFO, which keeps the model's
// visible behavior within x86-TSO.
func (t *Thread) sbDrain() {
	for i := 0; i < t.sbLen; i++ {
		t.vm.globals[t.sbSlot[i]] = t.sbVal[i]
	}
	t.sbLen = 0
}

// sbPut appends a plain store to the buffer, draining first on
// capacity overflow.
func (t *Thread) sbPut(slot int32, v uint64) {
	if t.sbLen == sbCap {
		t.sbDrain()
	}
	if t.sbLen == 0 {
		t.sbStamp = t.instrs
	}
	t.sbSlot[t.sbLen] = slot
	t.sbVal[t.sbLen] = v
	t.sbLen++
}

// sbLoad forwards the thread's newest buffered store to slot, if any.
func (t *Thread) sbLoad(slot int32) (uint64, bool) {
	for i := t.sbLen - 1; i >= 0; i-- {
		if t.sbSlot[i] == slot {
			return t.sbVal[i], true
		}
	}
	return 0, false
}

// ID returns the Java thread id.
func (t *Thread) ID() int { return t.id }

// Name returns the thread name.
func (t *Thread) Name() string { return t.name }

// Instructions returns how many bytecodes the thread has executed.
func (t *Thread) Instructions() uint64 { return t.instrs }

// pushFrame activates m with its locals cleared and an empty operand
// stack, and returns the new frame, valid until the next pushFrame. Frame
// storage is pooled per thread; hot call paths allocate nothing in steady
// state. Only the locals are cleared: the operand stack is always written
// before it is read, and the collector never scans past sp.
func (t *Thread) pushFrame(m *bytecode.Method) *frame {
	if t.depth == len(t.frames) {
		t.frames = append(t.frames, frame{})
	}
	f := &t.frames[t.depth]
	t.depth++
	need := m.NLocals + m.MaxStack + 1
	if cap(f.slots) < need {
		f.slots = make([]slot, need)
	}
	f.slots = f.slots[:need]
	clear(f.slots[:m.NLocals])
	f.m, f.pc, f.sp, f.ret = m, 0, m.NLocals, 0
	return f
}

// invoke pops callee's arguments off the active frame's operand stack
// straight into the locals of a new frame for callee, which returns to µop
// PC ret. It returns the largest producer index among the arguments: the
// call's spill store depends on all of them. The callee's argument slots
// start with no producer, as a fresh frame's locals do.
func (t *Thread) invoke(callee *bytecode.Method, ret uint64) (pmax uint64) {
	f := t.pushFrame(callee)
	f.ret = ret
	caller := &t.frames[t.depth-2] // taken after pushFrame may have grown frames
	caller.sp -= callee.NArgs
	for i, a := range caller.slots[caller.sp : caller.sp+callee.NArgs] {
		f.slots[i] = slot{v: a.v, ref: a.ref}
		pmax = maxProd(pmax, a.prod)
	}
	return pmax
}

// vmError panics with thread/method/pc context: in a verified program it
// indicates a benchmark bug, so it is loud by design. pc is the faulting
// instruction of the active frame.
func (t *Thread) vmError(pc int, format string, args ...any) {
	f := &t.frames[t.depth-1]
	prefix := fmt.Sprintf("jvm: thread %q %s@%d: ", t.name, f.m.Name, pc)
	panic(prefix + fmt.Sprintf(format, args...))
}

// maxSlowPathUops bounds the µops one instruction can emit including
// runtime/kernel slow paths; the interpreter starts an instruction only
// with this much buffer left.
const maxSlowPathUops = 40

// Fill implements isa.Source: it interprets bytecode, translating each
// instruction into µops, until the buffer fills, the thread blocks, or
// the program exits.
func (t *Thread) Fill(buf []isa.Uop) (int, bool) {
	if t.gc != nil {
		return t.gc.fill(buf)
	}
	n := 0
	for n+maxSlowPathUops <= len(buf) {
		if t.depth == 0 {
			if !t.exited {
				t.vm.threadExited(t)
			}
			return n, true
		}
		if t.vm.safepointPending(t) {
			t.vm.enterSafepoint(t)
			return n, false
		}
		n = t.run(buf, n)
		if t.blocked != notBlocked {
			return n, false
		}
	}
	return n, false
}

func maxProd(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func f64(v uint64) float64 { return math.Float64frombits(v) }
func u64(v float64) uint64 { return math.Float64bits(v) }

// emit writes u into buf[n] with the producer-index dependency prod
// (0 = none) translated into a DepDist, and returns n+1; the new µop's own
// producer index is then t.uopIdx.
func (t *Thread) emit(buf []isa.Uop, n int, u isa.Uop, prod uint64) int {
	buf[n] = u
	t.fixDeps(&buf[n], prod)
	return n + 1
}

// emitReg is emit for a µop that accesses no memory, which never touches
// the store table: small enough to inline, it stores the µop once and
// fixes its DepDist in place.
func (t *Thread) emitReg(buf []isa.Uop, n int, u isa.Uop, prod uint64) int {
	buf[n] = u
	t.uopIdx++
	if prod > 0 {
		if d := t.uopIdx - prod; d <= 255 {
			buf[n].DepDist = uint8(d)
		}
	}
	return n + 1
}

// fixDeps resolves the dependency bookkeeping for a µop already written
// into the fill buffer, mutating only its DepDist: emit stores the µop
// first and fixes it in place, so no 32-byte Uop is copied through a
// call frame. Loads pick up an additional dependency on the most recent
// store to the same address; stores record themselves.
func (t *Thread) fixDeps(u *isa.Uop, prod uint64) {
	t.uopIdx++
	if u.Class == isa.Load {
		slot := (u.Addr >> 3) & 15
		if t.stTag[slot] == u.Addr && t.stProd[slot] > prod {
			prod = t.stProd[slot]
		}
	}
	if prod > 0 {
		if d := t.uopIdx - prod; d <= 255 {
			u.DepDist = uint8(d)
		}
	}
	if u.Class == isa.Store {
		slot := (u.Addr >> 3) & 15
		t.stTag[slot] = u.Addr
		t.stProd[slot] = t.uopIdx
	}
}

// run interprets the active frame from its pc, emitting µops into buf
// from index n, and returns the new fill index. The frame, its code and
// slots, the pc and the stack top live in locals for the whole loop,
// which runs until a call, a return, a block or exit, a pending safepoint,
// or until buf has less than maxSlowPathUops of room left; the last two
// are tested between instructions, exactly where Fill tests them.
func (t *Thread) run(buf []isa.Uop, n int) int {
	vm := t.vm
	h := vm.heap
	f := &t.frames[t.depth-1]
	m := f.m
	code, uopOff, codeBase := m.Code, m.UopOff, m.CodeBase
	s, sp, pc := f.slots, f.sp, f.pc
	// put emits u as the current instruction's next µop, and putMem a
	// load or store µop. An instruction's µops occupy consecutive PCs
	// from its own, so with pcb set to that PC minus the fill index of
	// its first µop, the µop at buf[n] has PC pcb+n.
	var pcb uint64
	put := func(n int, u isa.Uop, prod uint64) int {
		u.PC = pcb + uint64(n)
		return t.emitReg(buf, n, u, prod)
	}
	putMem := func(n int, u isa.Uop, prod uint64) int {
		u.PC = pcb + uint64(n)
		return t.emit(buf, n, u, prod)
	}
	for {
		ins := code[pc]
		pcb = codeBase + uint64(uopOff[pc]) - uint64(n)
		t.instrs++
		if t.sbLen > 0 && t.instrs-t.sbStamp >= sbAgeInstrs {
			t.sbDrain()
		}
		next := pc + 1

		switch ins.Op {
		case bytecode.Nop:
			n = put(n, isa.Uop{Class: isa.Nop}, 0)

		case bytecode.Iconst:
			n = put(n, isa.Uop{Class: isa.ALU}, 0)
			s[sp] = slot{uint64(int64(ins.A)), t.uopIdx, false}
			sp++

		case bytecode.Fconst:
			n = put(n, isa.Uop{Class: isa.ALU}, 0)
			s[sp] = slot{u64(m.FPool[ins.A]), t.uopIdx, false}
			sp++

		case bytecode.Iload:
			l := s[ins.A]
			n = put(n, isa.Uop{Class: isa.ALU}, l.prod)
			s[sp] = slot{l.v, t.uopIdx, l.ref}
			sp++

		case bytecode.Istore:
			sp--
			v := s[sp]
			n = put(n, isa.Uop{Class: isa.ALU}, v.prod)
			s[ins.A] = slot{v.v, t.uopIdx, v.ref}

		case bytecode.Iadd, bytecode.Isub, bytecode.Imul, bytecode.Idiv, bytecode.Irem,
			bytecode.Iand, bytecode.Ior, bytecode.Ixor, bytecode.Ishl, bytecode.Ishr:
			sp -= 2
			a, b := s[sp], s[sp+1]
			x, y := int64(a.v), int64(b.v)
			var r int64
			cls := isa.ALU
			switch ins.Op {
			case bytecode.Iadd:
				r = x + y
			case bytecode.Isub:
				r = x - y
			case bytecode.Imul:
				r, cls = x*y, isa.Mul
			case bytecode.Idiv:
				if y == 0 {
					t.vmError(pc, "integer division by zero")
				}
				r, cls = x/y, isa.Mul
			case bytecode.Irem:
				if y == 0 {
					t.vmError(pc, "integer remainder by zero")
				}
				r, cls = x%y, isa.Mul
			case bytecode.Iand:
				r = x & y
			case bytecode.Ior:
				r = x | y
			case bytecode.Ixor:
				r = x ^ y
			case bytecode.Ishl:
				r = x << uint64(y&63)
			case bytecode.Ishr:
				r = x >> uint64(y&63)
			}
			n = put(n, isa.Uop{Class: cls}, maxProd(a.prod, b.prod))
			s[sp] = slot{uint64(r), t.uopIdx, false}
			sp++

		case bytecode.Ineg:
			a := &s[sp-1]
			n = put(n, isa.Uop{Class: isa.ALU}, a.prod)
			*a = slot{uint64(-int64(a.v)), t.uopIdx, false}

		case bytecode.Fadd, bytecode.Fsub, bytecode.Fmul, bytecode.Fdiv:
			sp -= 2
			a, b := s[sp], s[sp+1]
			x, y := f64(a.v), f64(b.v)
			var r float64
			cls := isa.FP
			switch ins.Op {
			case bytecode.Fadd:
				r = x + y
			case bytecode.Fsub:
				r = x - y
			case bytecode.Fmul:
				r = x * y
			case bytecode.Fdiv:
				r, cls = x/y, isa.FPDiv
			}
			n = put(n, isa.Uop{Class: cls}, maxProd(a.prod, b.prod))
			s[sp] = slot{u64(r), t.uopIdx, false}
			sp++

		case bytecode.Fneg:
			a := &s[sp-1]
			n = put(n, isa.Uop{Class: isa.ALU}, a.prod)
			*a = slot{u64(-f64(a.v)), t.uopIdx, false}

		case bytecode.Fmath:
			a := &s[sp-1]
			x := f64(a.v)
			var r float64
			switch ins.A {
			case bytecode.MathSqrt:
				r = math.Sqrt(x)
			case bytecode.MathSin:
				r = math.Sin(x)
			case bytecode.MathCos:
				r = math.Cos(x)
			case bytecode.MathExp:
				r = math.Exp(x)
			case bytecode.MathLog:
				r = math.Log(x)
			case bytecode.MathAbs:
				r = math.Abs(x)
			}
			n = put(n, isa.Uop{Class: isa.ALU}, a.prod)
			n = put(n, isa.Uop{Class: isa.ALU}, t.uopIdx)
			n = put(n, isa.Uop{Class: isa.FPDiv}, t.uopIdx)
			*a = slot{u64(r), t.uopIdx, false}

		case bytecode.I2f:
			a := &s[sp-1]
			n = put(n, isa.Uop{Class: isa.ALU}, a.prod)
			*a = slot{u64(float64(int64(a.v))), t.uopIdx, false}

		case bytecode.F2i:
			a := &s[sp-1]
			n = put(n, isa.Uop{Class: isa.ALU}, a.prod)
			*a = slot{uint64(int64(f64(a.v))), t.uopIdx, false}

		case bytecode.IfEq, bytecode.IfNe, bytecode.IfLt, bytecode.IfLe,
			bytecode.IfGt, bytecode.IfGe, bytecode.IfFLt, bytecode.IfFGt:
			sp -= 2
			a, b := s[sp], s[sp+1]
			var cond bool
			switch ins.Op {
			case bytecode.IfEq:
				cond = int64(a.v) == int64(b.v)
			case bytecode.IfNe:
				cond = int64(a.v) != int64(b.v)
			case bytecode.IfLt:
				cond = int64(a.v) < int64(b.v)
			case bytecode.IfLe:
				cond = int64(a.v) <= int64(b.v)
			case bytecode.IfGt:
				cond = int64(a.v) > int64(b.v)
			case bytecode.IfGe:
				cond = int64(a.v) >= int64(b.v)
			case bytecode.IfFLt:
				cond = f64(a.v) < f64(b.v)
			case bytecode.IfFGt:
				cond = f64(a.v) > f64(b.v)
			}
			n = put(n, isa.Uop{Class: isa.ALU}, maxProd(a.prod, b.prod))
			n = put(n, isa.Uop{Class: isa.Branch, Taken: cond,
				Target: codeBase + uint64(uopOff[ins.A])}, t.uopIdx)
			if cond {
				next = int(ins.A)
			}

		case bytecode.IfNull, bytecode.IfNonNull:
			sp--
			a := s[sp]
			cond := (a.v == 0) == (ins.Op == bytecode.IfNull)
			n = put(n, isa.Uop{Class: isa.ALU}, a.prod)
			n = put(n, isa.Uop{Class: isa.Branch, Taken: cond,
				Target: codeBase + uint64(uopOff[ins.A])}, t.uopIdx)
			if cond {
				next = int(ins.A)
			}

		case bytecode.Goto:
			n = put(n, isa.Uop{Class: isa.Branch, Taken: true,
				Target: codeBase + uint64(uopOff[ins.A])}, 0)
			next = int(ins.A)

		case bytecode.Dup:
			top := s[sp-1]
			n = put(n, isa.Uop{Class: isa.ALU}, top.prod)
			s[sp] = slot{top.v, t.uopIdx, top.ref}
			sp++

		case bytecode.Pop:
			sp--
			n = put(n, isa.Uop{Class: isa.ALU}, 0)

		case bytecode.Swap:
			s[sp-1], s[sp-2] = s[sp-2], s[sp-1]
			n = put(n, isa.Uop{Class: isa.ALU}, 0)

		case bytecode.GetField:
			r := &s[sp-1]
			if r.v == 0 {
				t.vmError(pc, "null pointer dereference (getfield %d)", ins.A)
			}
			idx := h.addrToIdx(r.v)
			cls := vm.prog.Classes[h.objClass(idx)]
			if int(ins.A) >= cls.NumFields {
				t.vmError(pc, "field %d out of range for class %s", ins.A, cls.Name)
			}
			v := h.words[idx+headerWords+int(ins.A)]
			isRef := cls.RefMask&(1<<uint(ins.A)) != 0
			n = put(n, isa.Uop{Class: isa.ALU}, r.prod)
			n = putMem(n, isa.Uop{Class: isa.Load,
				Addr: r.v + uint64(headerWords+int(ins.A))*8}, t.uopIdx)
			*r = slot{v, t.uopIdx, isRef}

		case bytecode.PutField:
			sp -= 2
			r, v := s[sp], s[sp+1]
			if r.v == 0 {
				t.vmError(pc, "null pointer dereference (putfield %d)", ins.A)
			}
			idx := h.addrToIdx(r.v)
			cls := vm.prog.Classes[h.objClass(idx)]
			if int(ins.A) >= cls.NumFields {
				t.vmError(pc, "field %d out of range for class %s", ins.A, cls.Name)
			}
			h.words[idx+headerWords+int(ins.A)] = v.v
			n = put(n, isa.Uop{Class: isa.ALU}, r.prod)
			n = putMem(n, isa.Uop{Class: isa.Store,
				Addr: r.v + uint64(headerWords+int(ins.A))*8}, maxProd(t.uopIdx, v.prod))

		case bytecode.GetStatic:
			v, fwd := t.sbLoad(ins.A)
			if !fwd {
				v = vm.globals[ins.A]
			}
			isRef := vm.prog.GlobalRefMask&(1<<uint(ins.A)) != 0
			n = put(n, isa.Uop{Class: isa.ALU}, 0)
			n = putMem(n, isa.Uop{Class: isa.Load,
				Addr: vm.globalsBase + uint64(ins.A)*8}, t.uopIdx)
			s[sp] = slot{v, t.uopIdx, isRef}
			sp++

		case bytecode.PutStatic:
			sp--
			v := s[sp]
			t.sbPut(ins.A, v.v)
			n = put(n, isa.Uop{Class: isa.ALU}, v.prod)
			n = putMem(n, isa.Uop{Class: isa.Store,
				Addr: vm.globalsBase + uint64(ins.A)*8}, t.uopIdx)

		case bytecode.GetVolatile:
			// A volatile load on TSO is an ordinary load — the trailing
			// Fence is the acquire-ordering cost (JSR-133 cookbook), not a
			// buffer drain.
			v, fwd := t.sbLoad(ins.A)
			if !fwd {
				v = vm.globals[ins.A]
			}
			isRef := vm.prog.GlobalRefMask&(1<<uint(ins.A)) != 0
			n = put(n, isa.Uop{Class: isa.ALU}, 0)
			n = putMem(n, isa.Uop{Class: isa.Load,
				Addr: vm.globalsBase + uint64(ins.A)*8}, t.uopIdx)
			p := t.uopIdx
			n = put(n, isa.Uop{Class: isa.Fence}, p)
			s[sp] = slot{v, p, isRef}
			sp++

		case bytecode.PutVolatile:
			sp--
			v := s[sp]
			vm.putVolatile(t, ins.A, v.v)
			n = put(n, isa.Uop{Class: isa.ALU}, v.prod)
			n = putMem(n, isa.Uop{Class: isa.Store,
				Addr: vm.globalsBase + uint64(ins.A)*8}, t.uopIdx)
			n = put(n, isa.Uop{Class: isa.Fence}, t.uopIdx)

		case bytecode.Cas:
			sp -= 2
			exp, nv := s[sp], s[sp+1]
			ok := vm.cas(t, ins.A, exp.v, nv.v)
			addr := vm.globalsBase + uint64(ins.A)*8
			n = put(n, isa.Uop{Class: isa.ALU}, maxProd(exp.prod, nv.prod))
			n = putMem(n, isa.Uop{Class: isa.Load, Addr: addr}, t.uopIdx)
			n = put(n, isa.Uop{Class: isa.Fence}, t.uopIdx)
			// The store µop is emitted on failure too (lock cmpxchg writes
			// the old value back), keeping the µop layout uniform.
			n = putMem(n, isa.Uop{Class: isa.Store, Addr: addr}, t.uopIdx)
			p := t.uopIdx
			var r uint64
			if ok {
				r = 1
				t.casFailStreak = 0
			}
			s[sp] = slot{r, p, false}
			sp++
			if !ok {
				if t.casFailStreak++; t.casFailStreak >= casSpinLimit {
					// Spin-then-block: after casSpinLimit consecutive
					// failures the runtime yields into the kernel before
					// the retry loop continues, so a starved CAS loop
					// costs syscalls rather than monopolizing its context.
					t.casFailStreak = 0
					vm.file.Inc(counters.Syscalls)
					n = t.emit(buf, n, isa.Uop{PC: runtimeCodeBase + 4, Class: isa.ALU}, p)
					n = t.emit(buf, n, isa.Uop{PC: runtimeCodeBase + 5, Class: isa.Syscall}, 0)
					n = t.emitKernelPath(buf, n, 8)
				}
			}

		case bytecode.New:
			cls := vm.prog.Classes[ins.A]
			idx := vm.allocate(t, cls.NumFields, kindObject, ins.A)
			if idx < 0 {
				f.pc, f.sp = pc, sp
				return t.emitGCWaitPath(buf, n)
			}
			addr := h.idxToAddr(idx)
			n = put(n, isa.Uop{Class: isa.ALU}, 0)
			n = put(n, isa.Uop{Class: isa.ALU}, t.uopIdx)
			n = putMem(n, isa.Uop{Class: isa.Store, Addr: addr}, t.uopIdx)
			n = putMem(n, isa.Uop{Class: isa.Store, Addr: addr + 8}, 0)
			s[sp] = slot{addr, t.uopIdx, true}
			sp++

		case bytecode.NewArray:
			length := int64(s[sp-1].v)
			if length < 0 {
				t.vmError(pc, "negative array size %d", length)
			}
			var kind int32
			switch ins.A {
			case bytecode.KindInt:
				kind = kindIntArray
			case bytecode.KindFloat:
				kind = kindFloatArray
			default:
				kind = kindRefArray
			}
			idx := vm.allocate(t, int(length), kind, int32(length))
			if idx < 0 {
				f.pc, f.sp = pc, sp
				return t.emitGCWaitPath(buf, n)
			}
			l := &s[sp-1]
			addr := h.idxToAddr(idx)
			n = put(n, isa.Uop{Class: isa.ALU}, l.prod)
			n = put(n, isa.Uop{Class: isa.ALU}, t.uopIdx)
			n = putMem(n, isa.Uop{Class: isa.Store, Addr: addr}, t.uopIdx)
			n = putMem(n, isa.Uop{Class: isa.Store, Addr: addr + 8}, 0)
			*l = slot{addr, t.uopIdx, true}

		case bytecode.ALoad:
			sp -= 2
			r, i := s[sp], s[sp+1]
			v, addr, isRef := t.arrayAccess(pc, r.v, int64(i.v), "aload")
			n = put(n, isa.Uop{Class: isa.ALU}, maxProd(i.prod, r.prod))
			n = putMem(n, isa.Uop{Class: isa.Load, Addr: addr}, t.uopIdx)
			s[sp] = slot{v, t.uopIdx, isRef}
			sp++

		case bytecode.AStore:
			sp -= 3
			r, i, v := s[sp], s[sp+1], s[sp+2]
			_, addr, _ := t.arrayAccess(pc, r.v, int64(i.v), "astore")
			h.words[h.addrToIdx(addr)] = v.v
			n = put(n, isa.Uop{Class: isa.ALU}, maxProd(i.prod, r.prod))
			n = putMem(n, isa.Uop{Class: isa.Store, Addr: addr}, maxProd(t.uopIdx, v.prod))

		case bytecode.ArrayLen:
			r := &s[sp-1]
			if r.v == 0 {
				t.vmError(pc, "null pointer dereference (arraylen)")
			}
			idx := h.addrToIdx(r.v)
			n = putMem(n, isa.Uop{Class: isa.Load, Addr: r.v + 8}, r.prod)
			*r = slot{uint64(int64(h.arrayLen(idx))), t.uopIdx, false}

		case bytecode.Call, bytecode.CallVirt:
			callee := vm.prog.Methods[ins.A]
			spill := t.stackBase + uint64(t.depth)*32
			f.pc, f.sp = next, sp
			pmax := t.invoke(callee, codeBase+uint64(uopOff[next]))
			n = putMem(n, isa.Uop{Class: isa.Store, Addr: spill}, pmax)
			n = put(n, isa.Uop{Class: isa.ALU}, 0)
			return put(n, isa.Uop{Class: isa.Call, Target: callee.CodeBase,
				Indirect: ins.Op == bytecode.CallVirt}, 0)

		case bytecode.Ret, bytecode.RetVal:
			var v slot
			if ins.Op == bytecode.RetVal {
				sp--
				v = s[sp]
			}
			spill := t.stackBase + uint64(t.depth-1)*32
			n = putMem(n, isa.Uop{Class: isa.Load, Addr: spill}, 0)
			n = put(n, isa.Uop{Class: isa.Ret, Target: f.ret, Indirect: true}, t.uopIdx)
			t.depth--
			if t.depth > 0 && ins.Op == bytecode.RetVal {
				caller := &t.frames[t.depth-1]
				caller.slots[caller.sp] = slot{v.v, t.uopIdx, v.ref}
				caller.sp++
			}
			return n // at depth 0 the thread exits on the next Fill iteration

		case bytecode.MonEnter:
			r := s[sp-1]
			if r.v == 0 {
				t.vmError(pc, "null pointer dereference (monenter)")
			}
			if !vm.monEnter(t, r.v) {
				// Contended: futex path into the kernel; the instruction
				// re-executes when the monitor is handed to this thread.
				n = t.emit(buf, n, isa.Uop{PC: runtimeCodeBase, Class: isa.Load, Addr: r.v}, 0)
				n = t.emit(buf, n, isa.Uop{PC: runtimeCodeBase + 1, Class: isa.Syscall}, 0)
				f.pc, f.sp = pc, sp
				return t.emitKernelPath(buf, n, 12)
			}
			sp--
			n = putMem(n, isa.Uop{Class: isa.Load, Addr: r.v}, r.prod)
			n = put(n, isa.Uop{Class: isa.Fence}, t.uopIdx)
			n = putMem(n, isa.Uop{Class: isa.Store, Addr: r.v}, t.uopIdx)

		case bytecode.MonExit:
			sp--
			r := s[sp]
			if r.v == 0 {
				t.vmError(pc, "null pointer dereference (monexit)")
			}
			vm.monExit(t, r.v)
			n = putMem(n, isa.Uop{Class: isa.Load, Addr: r.v}, r.prod)
			n = put(n, isa.Uop{Class: isa.Fence}, t.uopIdx)
			n = putMem(n, isa.Uop{Class: isa.Store, Addr: r.v}, t.uopIdx)

		case bytecode.ThreadStart:
			callee := vm.prog.Methods[ins.A]
			sp -= callee.NArgs
			args := s[sp : sp+callee.NArgs]
			var pmax uint64
			for _, a := range args {
				pmax = maxProd(pmax, a.prod)
			}
			id := vm.threadStart(t, callee, args)
			n = put(n, isa.Uop{Class: isa.ALU}, pmax)
			n = put(n, isa.Uop{Class: isa.Syscall}, 0)
			n = t.emitKernelPath(buf, n, 20)
			s[sp] = slot{uint64(id), t.uopIdx, false}
			sp++

		case bytecode.ThreadJoin:
			id := int(int64(s[sp-1].v))
			if !vm.threadJoin(t, id) {
				n = t.emit(buf, n, isa.Uop{PC: runtimeCodeBase + 2, Class: isa.ALU}, 0)
				n = t.emit(buf, n, isa.Uop{PC: runtimeCodeBase + 3, Class: isa.Syscall}, 0)
				f.pc, f.sp = pc, sp
				return t.emitKernelPath(buf, n, 8)
			}
			sp--
			n = put(n, isa.Uop{Class: isa.ALU}, 0)
			n = put(n, isa.Uop{Class: isa.Syscall}, 0)

		case bytecode.Halt:
			n = put(n, isa.Uop{Class: isa.Nop}, 0)
			t.depth = 0
			return n

		default:
			t.vmError(pc, "unimplemented opcode %v", ins.Op)
		}

		pc = next
		if n+maxSlowPathUops > len(buf) || vm.safepointPending(t) {
			f.pc, f.sp = pc, sp
			return n
		}
	}
}

// arrayAccess validates r[i] for the instruction at pc and returns the
// element value, its simulated address, and whether it is a reference.
func (t *Thread) arrayAccess(pc int, r uint64, i int64, what string) (v, addr uint64, isRef bool) {
	if r == 0 {
		t.vmError(pc, "null pointer dereference (%s)", what)
	}
	h := t.vm.heap
	idx := h.addrToIdx(r)
	kind := h.objKind(idx)
	if kind != kindIntArray && kind != kindFloatArray && kind != kindRefArray {
		t.vmError(pc, "%s on non-array object", what)
	}
	length := int64(h.arrayLen(idx))
	if i < 0 || i >= length {
		t.vmError(pc, "array index %d out of bounds [0,%d) (%s)", i, length, what)
	}
	w := idx + headerWords + int(i)
	return h.words[w], h.idxToAddr(w), kind == kindRefArray
}

// emitGCWaitPath emits the allocation slow path (runtime stub + kernel
// entry) into buf from index n after the thread has been parked waiting
// for a collection, and returns the new fill index.
func (t *Thread) emitGCWaitPath(buf []isa.Uop, n int) int {
	n = t.emit(buf, n, isa.Uop{PC: runtimeCodeBase + 8, Class: isa.ALU}, 0)
	n = t.emit(buf, n, isa.Uop{PC: runtimeCodeBase + 9, Class: isa.Syscall}, 0)
	return t.emitKernelPath(buf, n, 10)
}

// emitKernelPath emits count kernel-mode µops (the in-kernel half of a
// syscall: futex, clone and sched-wakeup paths) into buf from index n and
// returns the new fill index.
func (t *Thread) emitKernelPath(buf []isa.Uop, n, count int) int {
	base := uint64(simos.KernelCodeBase) + 2048
	data := uint64(0xF800_0000) + uint64(t.id)<<12
	for k := 0; k < count; k++ {
		pc := base + uint64(k)
		switch k % 4 {
		case 0:
			n = t.emit(buf, n, isa.Uop{PC: pc, Class: isa.Load, Addr: data + uint64(k)*8, Kernel: true}, 0)
		case 2:
			n = t.emit(buf, n, isa.Uop{PC: pc, Class: isa.Store, Addr: data + 512 + uint64(k)*8, Kernel: true}, t.uopIdx)
		default:
			n = t.emit(buf, n, isa.Uop{PC: pc, Class: isa.ALU, Kernel: true}, t.uopIdx)
		}
	}
	return n
}
