package bench

import (
	"testing"

	"javasmt/internal/core"
	"javasmt/internal/jvm"
	"javasmt/internal/simos"
)

// runBench executes one benchmark on a fresh machine and verifies it.
func runBench(t *testing.T, b *Benchmark, threads int, scale Scale, ht bool) *jvm.VM {
	t.Helper()
	prog := b.Build(threads, scale, 0)
	cpu := core.New(core.DefaultConfig(ht))
	k := simos.New(cpu, simos.Options{})
	vm := jvm.New(prog, k, jvm.DefaultConfig())
	vm.Start()
	if _, err := cpu.Run(0); err != nil {
		t.Fatalf("%s: Run: %v", b.Name, err)
	}
	if err := b.Verify(vm, threads, scale); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	return vm
}

func TestCompressTiny(t *testing.T) {
	runBench(t, Compress(), 1, Tiny, false)
}

func TestCompressSmallHT(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runBench(t, Compress(), 1, Small, true)
}

func TestMpegaudioTiny(t *testing.T) {
	runBench(t, Mpegaudio(), 1, Tiny, false)
}

func TestDBTiny(t *testing.T) {
	runBench(t, DB(), 1, Tiny, false)
}

func TestMonteCarloTinyThreads(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		runBench(t, MonteCarlo(), threads, Tiny, true)
	}
}

func TestMolDynTinyThreads(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		runBench(t, MolDyn(), threads, Tiny, true)
	}
}

func TestRayTracerTinyThreads(t *testing.T) {
	for _, threads := range []int{1, 2} {
		runBench(t, RayTracer(), threads, Tiny, true)
	}
}

func TestJessTiny(t *testing.T) {
	runBench(t, Jess(), 1, Tiny, false)
}

func TestJavacTiny(t *testing.T) {
	runBench(t, Javac(), 1, Tiny, false)
}

func TestJackTiny(t *testing.T) {
	runBench(t, Jack(), 1, Tiny, false)
}

func TestJackDerivationsBounded(t *testing.T) {
	// The bytecode token buffer is 1<<16; every scale must fit.
	for _, s := range []Scale{Tiny, Small, Medium} {
		nts, passes := jackParams(s)
		g := makeJackGrammar(nts)
		for pass := int32(0); pass < passes; pass++ {
			m := &jkMirror{g: g, seed: int64(pass)*131 + 9973}
			m.gen(0, jkGenDepth)
			if len(m.tok) >= 1<<16 {
				t.Fatalf("scale %v pass %d: %d tokens overflow the buffer", s, pass, len(m.tok))
			}
			if len(m.tok) == 0 {
				t.Fatalf("scale %v pass %d: empty derivation", s, pass)
			}
		}
	}
}

func TestPseudoJBBTinyThreads(t *testing.T) {
	for _, threads := range []int{1, 2} {
		runBench(t, PseudoJBB(), threads, Tiny, true)
	}
}

// TestAllBenchmarksTiny runs every benchmark end to end at Tiny scale in
// both HT modes and verifies its published results.
func TestAllBenchmarksTiny(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			threads := 1
			if b.Multithreaded {
				threads = 2
			}
			runBench(t, b, threads, Tiny, false)
			runBench(t, b, threads, Tiny, true)
		})
	}
}

// TestSuitePartitioning checks the registry invariants the harness
// depends on.
func TestSuitePartitioning(t *testing.T) {
	if got := len(All()); got != 10 {
		t.Fatalf("suite has %d benchmarks, want 10", got)
	}
	if got := len(SingleThreaded()); got != 9 {
		t.Fatalf("%d single-threaded programs, want 9", got)
	}
	if got := len(Multithreaded()); got != 4 {
		t.Fatalf("%d multithreaded programs, want 4", got)
	}
	for _, b := range All() {
		if _, ok := ByName(b.Name); !ok {
			t.Fatalf("ByName(%q) failed", b.Name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown name resolved")
	}
}
