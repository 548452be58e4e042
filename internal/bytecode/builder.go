package bytecode

import "fmt"

// Label is a forward-patchable branch target issued by a MethodBuilder.
type Label int

// MethodBuilder assembles one method with symbolic labels.
//
//	b := NewMethod("sum", 1, 3)
//	loop := b.NewLabel()
//	...
//	b.Bind(loop)
//	b.Op(Iload, 0)
//	b.Br(IfLt, loop)
//	m := b.Finish()
type MethodBuilder struct {
	m       *Method
	labels  []int // instruction index or -1 while unbound
	patches []patch
	fpool   map[float64]int32
}

type patch struct {
	instr int
	label Label
}

// NewMethod starts a method with nargs arguments and nlocals total local
// slots (nlocals >= nargs).
func NewMethod(name string, nargs, nlocals int) *MethodBuilder {
	if nlocals < nargs {
		panic(fmt.Sprintf("bytecode: method %q: nlocals %d < nargs %d", name, nlocals, nargs))
	}
	return &MethodBuilder{m: &Method{Name: name, NArgs: nargs, NLocals: nlocals}}
}

// ArgRefs marks which argument slots carry references.
func (b *MethodBuilder) ArgRefs(mask uint64) *MethodBuilder {
	b.m.ArgRefMask = mask
	return b
}

// ReturnsRef marks the method as returning a reference.
func (b *MethodBuilder) ReturnsRef() *MethodBuilder {
	b.m.ReturnsRef = true
	return b
}

// Op appends an instruction. The operand is optional; at most one is used.
func (b *MethodBuilder) Op(op Op, operand ...int32) *MethodBuilder {
	a := int32(0)
	if len(operand) > 0 {
		a = operand[0]
	}
	if len(operand) > 1 {
		panic("bytecode: Op takes at most one operand")
	}
	if isBranch(op) {
		panic(fmt.Sprintf("bytecode: use Br for branch op %v", op))
	}
	b.m.Code = append(b.m.Code, Instr{Op: op, A: a})
	return b
}

// Const pushes an int constant.
func (b *MethodBuilder) Const(v int32) *MethodBuilder { return b.Op(Iconst, v) }

// FConst pushes a float constant, interning it in the method's pool.
func (b *MethodBuilder) FConst(v float64) *MethodBuilder {
	idx, ok := b.fpool[v]
	if !ok {
		if b.fpool == nil {
			b.fpool = make(map[float64]int32)
		}
		idx = int32(len(b.m.FPool))
		b.m.FPool = append(b.m.FPool, v)
		b.fpool[v] = idx
	}
	return b.Op(Fconst, idx)
}

// Load pushes local slot i; Store pops into local slot i.
func (b *MethodBuilder) Load(i int32) *MethodBuilder  { return b.Op(Iload, i) }
func (b *MethodBuilder) Store(i int32) *MethodBuilder { return b.Op(Istore, i) }

// NewLabel creates an unbound label.
func (b *MethodBuilder) NewLabel() Label {
	b.labels = append(b.labels, -1)
	return Label(len(b.labels) - 1)
}

// Bind anchors l at the next instruction.
func (b *MethodBuilder) Bind(l Label) *MethodBuilder {
	if b.labels[l] != -1 {
		panic(fmt.Sprintf("bytecode: label %d bound twice in %q", l, b.m.Name))
	}
	b.labels[l] = len(b.m.Code)
	return b
}

// Br appends a branch to label l.
func (b *MethodBuilder) Br(op Op, l Label) *MethodBuilder {
	if !isBranch(op) {
		panic(fmt.Sprintf("bytecode: %v is not a branch", op))
	}
	b.patches = append(b.patches, patch{instr: len(b.m.Code), label: l})
	b.m.Code = append(b.m.Code, Instr{Op: op})
	return b
}

// Finish resolves labels and returns the method. The builder must not be
// reused afterwards.
func (b *MethodBuilder) Finish() *Method {
	for _, p := range b.patches {
		tgt := b.labels[p.label]
		if tgt < 0 {
			panic(fmt.Sprintf("bytecode: unbound label %d in %q", p.label, b.m.Name))
		}
		b.m.Code[p.instr].A = int32(tgt)
	}
	return b.m
}

// ProgramBuilder accumulates classes, methods and globals.
type ProgramBuilder struct {
	p *Program
}

// NewProgram starts a program.
func NewProgram(name string) *ProgramBuilder {
	return &ProgramBuilder{p: &Program{Name: name, Entry: -1}}
}

// Class registers a class and returns its index.
func (pb *ProgramBuilder) Class(name string, numFields int, refMask uint64) int32 {
	pb.p.Classes = append(pb.p.Classes, Class{Name: name, NumFields: numFields, RefMask: refMask})
	return int32(len(pb.p.Classes) - 1)
}

// Globals declares the static-field slots.
func (pb *ProgramBuilder) Globals(n int, refMask uint64) {
	pb.p.NumGlobals = n
	pb.p.GlobalRefMask = refMask
}

// Add registers a method and returns its index.
func (pb *ProgramBuilder) Add(m *Method) int32 {
	pb.p.Methods = append(pb.p.Methods, m)
	return int32(len(pb.p.Methods) - 1)
}

// Count returns how many methods have been added so far — the index the
// next Add will assign, which lets builders wire self-recursive methods.
func (pb *ProgramBuilder) Count() int32 { return int32(len(pb.p.Methods)) }

// Replace swaps the method at index i for m. Mutually recursive method
// groups register a placeholder first (fixing the index), then replace it
// once the methods it calls have indices.
func (pb *ProgramBuilder) Replace(i int32, m *Method) {
	if i < 0 || int(i) >= len(pb.p.Methods) {
		panic(fmt.Sprintf("bytecode: Replace index %d out of range", i))
	}
	pb.p.Methods[i] = m
}

// Entry marks method index i as the program entry point.
func (pb *ProgramBuilder) Entry(i int32) { pb.p.Entry = int(i) }

// Link finalizes the program at the given code base (0 = UserCodeBase).
func (pb *ProgramBuilder) Link(base uint64) (*Program, error) {
	if err := pb.p.Link(base); err != nil {
		return nil, err
	}
	return pb.p, nil
}

// MustLink is Link that panics on error, for statically-known-good
// programs (the benchmark suite).
func (pb *ProgramBuilder) MustLink(base uint64) *Program {
	p, err := pb.Link(base)
	if err != nil {
		panic(err)
	}
	return p
}
