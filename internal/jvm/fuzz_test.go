// The fuzz tests live in the external test package so they can import
// internal/bench (which itself imports jvm) for corpus seeding.
package jvm_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"javasmt/internal/bench"
	"javasmt/internal/bytecode"
	"javasmt/internal/bytecode/fuzzcodec"
	"javasmt/internal/core"
	"javasmt/internal/jvm"
	"javasmt/internal/simos"
)

var updateCorpus = flag.Bool("update", false, "regenerate the seed fuzz corpus from the benchmark programs")

// fuzzMaxCycles bounds each fuzz execution. Programs that loop forever or
// deadlock simply run out of budget; neither is a defect.
const fuzzMaxCycles = 1_000_000

// FuzzInterp throws arbitrary *verified* method bodies at the interpreter
// and the whole machine under it. The contract: code the verifier accepts
// never crashes the interpreter. Defined VM errors (division by zero,
// wild references, out-of-memory, monitor misuse, bad joins) surface as
// panics with the "jvm: " prefix and are part of that contract; any other
// panic is an interpreter bug. When a run completes, its counter file
// must satisfy every conservation law.
func FuzzInterp(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzcodec.Encode([]bytecode.Instr{{Op: bytecode.Halt}}))
	f.Add(fuzzcodec.Encode([]bytecode.Instr{
		{Op: bytecode.Iconst, A: 3},
		{Op: bytecode.Iconst, A: 0},
		{Op: bytecode.Idiv}, // defined VM error: division by zero
		{Op: bytecode.RetVal},
	}))
	f.Add(fuzzcodec.Encode([]bytecode.Instr{
		{Op: bytecode.Iconst, A: 8},
		{Op: bytecode.NewArray, A: bytecode.KindInt},
		{Op: bytecode.ArrayLen},
		{Op: bytecode.RetVal},
	}))
	f.Add(fuzzcodec.Encode([]bytecode.Instr{ // recursive monitor + volatile publish
		{Op: bytecode.New, A: 0},
		{Op: bytecode.Istore, A: 0},
		{Op: bytecode.Iload, A: 0},
		{Op: bytecode.MonEnter},
		{Op: bytecode.Iload, A: 0},
		{Op: bytecode.MonEnter},
		{Op: bytecode.Iconst, A: 5},
		{Op: bytecode.PutVolatile, A: 3},
		{Op: bytecode.Iload, A: 0},
		{Op: bytecode.MonExit},
		{Op: bytecode.Iload, A: 0},
		{Op: bytecode.MonExit},
		{Op: bytecode.Ret},
	}))
	f.Add(fuzzcodec.Encode([]bytecode.Instr{ // CAS spin loop: exercises spin-then-block
		{Op: bytecode.GetVolatile, A: 2},
		{Op: bytecode.Iconst, A: 1},
		{Op: bytecode.Cas, A: 2},
		{Op: bytecode.Pop},
		{Op: bytecode.GetVolatile, A: 2},
		{Op: bytecode.RetVal},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		code := fuzzcodec.Decode(data, 2048)
		prog := fuzzcodec.HarnessProgram(code)
		if err := prog.Link(0); err != nil {
			return // the verifier rejected it; nothing to execute
		}
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if msg, ok := r.(string); ok && strings.HasPrefix(msg, "jvm: ") {
				return // defined VM error — the documented failure mode
			}
			panic(r) // anything else is an interpreter/machine bug
		}()
		cpu := core.New(core.DefaultConfig(false))
		k := simos.New(cpu, simos.Options{})
		cfg := jvm.DefaultConfig()
		cfg.HeapBytes = 1 << 20
		vm := jvm.New(prog, k, cfg)
		vm.Start()
		if _, err := cpu.Run(fuzzMaxCycles); err != nil {
			return // deadlock detection is an error return, not a crash
		}
		if err := cpu.Counters().CheckConservation(); err != nil {
			t.Fatalf("conservation violated after fuzzed run: %v", err)
		}
	})
}

// TestUpdateFuzzCorpus regenerates the checked-in FuzzInterp seed corpus
// (the ten benchmarks' entry and largest method bodies) when run with
// -update; without the flag it verifies the corpus is present.
func TestUpdateFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzInterp")
	if *updateCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, b := range append(bench.All(), bench.Sync()...) {
			prog := b.Build(1, bench.Tiny, 0)
			entry := prog.Methods[prog.Entry]
			largest := entry
			for _, m := range prog.Methods {
				if len(m.Code) > len(largest.Code) {
					largest = m
				}
			}
			seeds := []*bytecode.Method{entry}
			if largest != entry {
				seeds = append(seeds, largest)
			}
			for _, m := range seeds {
				name := fmt.Sprintf("seed-%s-%s", b.Name, m.Name)
				if err := os.WriteFile(filepath.Join(dir, name), fuzzcodec.SeedFile(m.Code), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("seed corpus missing at %s (run `go test ./internal/jvm -run UpdateFuzzCorpus -update`): %v", dir, err)
	}
}
