package jvm

import (
	"math/rand"
	"testing"

	"javasmt/internal/bytecode"
	"javasmt/internal/core"
	"javasmt/internal/simos"
)

// TestRandomProgramsMatchGoEvaluation is the interpreter's property test:
// pseudo-random straight-line integer programs are built with the
// assembler, executed on the full simulation stack, and compared against
// direct Go evaluation of the same operations. Any divergence in
// arithmetic, locals handling, array element addressing or call/return
// value plumbing fails here.
func TestRandomProgramsMatchGoEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	for trial := 0; trial < 30; trial++ {
		prog, want := randomProgram(rng)
		cpu := core.New(core.DefaultConfig(trial%2 == 0))
		k := simos.New(cpu, simos.Options{})
		vm := New(prog, k, DefaultConfig())
		vm.Start()
		if _, err := cpu.Run(0); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := int64(vm.Global(0)); got != want {
			t.Fatalf("trial %d: VM computed %d, Go mirror %d\n%s",
				trial, got, want, prog.Disassemble())
		}
	}
}

// randomProgram builds a random but verifiable program: a sequence of
// operations over 8 locals and an 8-element array, with helper-method
// round trips, finishing with a checksum into global 0. It returns the
// program and the Go-evaluated expected checksum.
func randomProgram(rng *rand.Rand) (*bytecode.Program, int64) {
	pb := bytecode.NewProgram("randprog")
	pb.Globals(1, 0)

	// Helper: twist(x) = x*3 ^ (x>>2), exercising call/return plumbing.
	h := bytecode.NewMethod("twist", 1, 2)
	h.Load(0).Const(3).Op(bytecode.Imul)
	h.Load(0).Const(2).Op(bytecode.Ishr)
	h.Op(bytecode.Ixor)
	h.Op(bytecode.RetVal)
	twist := pb.Add(h.Finish())
	twistGo := func(x int64) int64 { return (x * 3) ^ (x >> 2) }

	const nLocals, arrLen = 8, 8
	b := bytecode.NewMethod("main", 0, nLocals+2)
	lArr := int32(nLocals) // locals 0..7 are ints, 8 is the array
	locals := make([]int64, nLocals)
	arr := make([]int64, arrLen)

	b.Const(arrLen).Op(bytecode.NewArray, bytecode.KindInt).Store(lArr)
	for i := int32(0); i < nLocals; i++ {
		v := int32(rng.Intn(1000) - 500)
		b.Const(v).Store(i)
		locals[i] = int64(v)
	}

	steps := 20 + rng.Intn(40)
	for s := 0; s < steps; s++ {
		a := int32(rng.Intn(nLocals))
		c := int32(rng.Intn(nLocals))
		dst := int32(rng.Intn(nLocals))
		switch rng.Intn(7) {
		case 0: // dst = a + c
			b.Load(a).Load(c).Op(bytecode.Iadd).Store(dst)
			locals[dst] = locals[a] + locals[c]
		case 1: // dst = a - c
			b.Load(a).Load(c).Op(bytecode.Isub).Store(dst)
			locals[dst] = locals[a] - locals[c]
		case 2: // dst = (a * c) masked to stay bounded
			b.Load(a).Load(c).Op(bytecode.Imul).Const(0xFFFFF).Op(bytecode.Iand).Store(dst)
			locals[dst] = (locals[a] * locals[c]) & 0xFFFFF
		case 3: // dst = a ^ c
			b.Load(a).Load(c).Op(bytecode.Ixor).Store(dst)
			locals[dst] = locals[a] ^ locals[c]
		case 4: // arr[i] = a
			idx := int32(rng.Intn(arrLen))
			b.Load(lArr).Const(idx).Load(a).Op(bytecode.AStore)
			arr[idx] = locals[a]
		case 5: // dst = arr[i]
			idx := int32(rng.Intn(arrLen))
			b.Load(lArr).Const(idx).Op(bytecode.ALoad).Store(dst)
			locals[dst] = arr[idx]
		case 6: // dst = twist(a)
			b.Load(a).Op(bytecode.Call, twist).Store(dst)
			locals[dst] = twistGo(locals[a])
		}
	}

	// Checksum locals and array into global 0.
	const lChk = nLocals + 1
	b.Const(0).Store(lChk)
	chk := int64(0)
	for i := int32(0); i < nLocals; i++ {
		b.Load(lChk).Const(31).Op(bytecode.Imul).Load(i).Op(bytecode.Iadd).Store(lChk)
		chk = chk*31 + locals[i]
	}
	for i := int32(0); i < arrLen; i++ {
		b.Load(lChk).Const(31).Op(bytecode.Imul)
		b.Load(lArr).Const(i).Op(bytecode.ALoad)
		b.Op(bytecode.Iadd).Store(lChk)
		chk = chk*31 + arr[i]
	}
	b.Load(lChk).Op(bytecode.PutStatic, 0)
	b.Op(bytecode.Ret)
	pb.Entry(pb.Add(b.Finish()))
	return pb.MustLink(0), chk
}
