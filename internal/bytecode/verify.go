package bytecode

import "fmt"

// Verify statically checks every method: operands in range, branch targets
// valid, stack depth consistent along all control-flow paths, and no
// fall-through past the last instruction. It also computes each method's
// MaxStack. Link calls it automatically.
func (p *Program) Verify() error {
	longest := 0
	returns := make([]bool, len(p.Methods))
	for i, m := range p.Methods {
		longest = max(longest, len(m.Code))
		returns[i] = hasReturnValue(m)
	}
	// One dataflow array serves every method in turn.
	seen := make([]pcDepth, longest)
	for _, m := range p.Methods {
		if err := p.verifyMethod(m, seen[:len(m.Code)], returns); err != nil {
			return fmt.Errorf("bytecode: %s: %w", m.Name, err)
		}
	}
	return nil
}

// pcDepth is the stack and monitor depth the dataflow first reached an
// instruction with; stack -1 marks an unvisited instruction.
type pcDepth struct{ stack, mons int32 }

// verifyMethod checks m, using seen (one entry per instruction) as its
// dataflow state; returns[i] is hasReturnValue of method i.
func (p *Program) verifyMethod(m *Method, seen []pcDepth, returns []bool) error {
	n := len(m.Code)
	if n == 0 {
		return fmt.Errorf("empty code")
	}

	// Operand validity.
	for i, ins := range m.Code {
		a := ins.A
		switch ins.Op {
		case Iload, Istore:
			if a < 0 || int(a) >= m.NLocals {
				return fmt.Errorf("instr %d: local %d out of range [0,%d)", i, a, m.NLocals)
			}
		case Fconst:
			if a < 0 || int(a) >= len(m.FPool) {
				return fmt.Errorf("instr %d: fpool %d out of range", i, a)
			}
		case New:
			if a < 0 || int(a) >= len(p.Classes) {
				return fmt.Errorf("instr %d: class %d out of range", i, a)
			}
		case GetField, PutField:
			if a < 0 {
				return fmt.Errorf("instr %d: negative field slot", i)
			}
		case GetStatic, PutStatic, GetVolatile, PutVolatile, Cas:
			if a < 0 || int(a) >= p.NumGlobals {
				return fmt.Errorf("instr %d: global %d out of range [0,%d)", i, a, p.NumGlobals)
			}
		case NewArray:
			if a != KindInt && a != KindFloat && a != KindRef {
				return fmt.Errorf("instr %d: bad array kind %d", i, a)
			}
		case Call, CallVirt, ThreadStart:
			if a < 0 || int(a) >= len(p.Methods) {
				return fmt.Errorf("instr %d: method %d out of range", i, a)
			}
		case Fmath:
			if a < MathSqrt || a > MathAbs {
				return fmt.Errorf("instr %d: bad math fn %d", i, a)
			}
		}
		if isBranch(ins.Op) {
			if a < 0 || int(a) >= n {
				return fmt.Errorf("instr %d: branch target %d out of range", i, a)
			}
		}
	}

	// A method must not mix Ret and RetVal: its callers' stack depth
	// would become path-dependent.
	hasRet, hasRetVal := false, false
	for _, ins := range m.Code {
		if ins.Op == Ret {
			hasRet = true
		}
		if ins.Op == RetVal {
			hasRetVal = true
		}
	}
	if hasRet && hasRetVal {
		return fmt.Errorf("mixes ret and retval")
	}

	// Stack-depth and monitor-depth dataflow: every path must agree on
	// both depths at each instruction, neither may go negative, and the
	// method must terminate via Ret/RetVal/Halt with every MonEnter
	// matched by a MonExit. The monitor dataflow is what turns an
	// unbalanced MonEnter/MonExit pair into a structured link-time error
	// instead of a runtime deadlock-by-cycle-budget.
	for i := range seen {
		seen[i] = pcDepth{stack: -1}
	}
	type item struct{ pc, d, md int }
	work := []item{{0, 0, 0}}
	maxStack := 0
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		pc, d, md := it.pc, it.d, it.md
		for {
			if pc >= n {
				return fmt.Errorf("fall-through past end of code (depth %d)", d)
			}
			if s := seen[pc]; s.stack != -1 {
				if int(s.stack) != d {
					return fmt.Errorf("instr %d: inconsistent stack depth (%d vs %d)", pc, s.stack, d)
				}
				if int(s.mons) != md {
					return fmt.Errorf("instr %d: inconsistent monitor depth (%d vs %d)", pc, s.mons, md)
				}
				break
			}
			seen[pc] = pcDepth{int32(d), int32(md)}
			ins := m.Code[pc]

			switch ins.Op {
			case MonEnter:
				md++
			case MonExit:
				if md == 0 {
					return fmt.Errorf("instr %d: monexit without a matching monenter", pc)
				}
				md--
			}

			pops, pushes := stackEffect(ins.Op)
			switch ins.Op {
			case Call, CallVirt:
				callee := p.Methods[ins.A]
				pops = callee.NArgs
				pushes = 0
				if returns[ins.A] {
					pushes = 1
				}
			case ThreadStart:
				callee := p.Methods[ins.A]
				pops = callee.NArgs
				pushes = 1
			}
			if d < pops {
				return fmt.Errorf("instr %d (%v): stack underflow (depth %d, pops %d)", pc, ins.Op, d, pops)
			}
			d = d - pops + pushes
			if d > maxStack {
				maxStack = d
			}

			switch ins.Op {
			case Ret, Halt:
				if ins.Op == Ret && d != 0 {
					return fmt.Errorf("instr %d: ret with non-empty stack (depth %d)", pc, d)
				}
				if md != 0 {
					return fmt.Errorf("instr %d: %v with %d unreleased monitors", pc, ins.Op, md)
				}
			case RetVal:
				// The return value was popped by the stack effect
				// above; nothing else may remain.
				if d != 0 {
					return fmt.Errorf("instr %d: retval with extra values on the stack (depth %d)", pc, d)
				}
				if md != 0 {
					return fmt.Errorf("instr %d: retval with %d unreleased monitors", pc, md)
				}
			case Goto:
				work = append(work, item{int(ins.A), d, md})
			default:
				if isBranch(ins.Op) {
					work = append(work, item{int(ins.A), d, md})
				}
				pc++
				continue
			}
			break
		}
	}
	// RetVal leaves depth 1 conceptually, but the value transfers to the
	// caller; MaxStack already accounts for it.
	m.MaxStack = maxStack
	return nil
}

// hasReturnValue inspects a method's exits: it returns a value iff any
// reachable exit is RetVal. Mixing Ret and RetVal in one method is
// rejected here because the caller's stack depth would become ambiguous.
func hasReturnValue(m *Method) bool {
	hasVal := false
	for _, ins := range m.Code {
		if ins.Op == RetVal {
			hasVal = true
		}
	}
	return hasVal
}
