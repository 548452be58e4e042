package bench

import (
	"testing"

	"javasmt/internal/counters"
	"javasmt/internal/jvm"
	"javasmt/internal/simos"

	"javasmt/internal/core"
)

// runBenchCounters is runBench plus access to the machine's counters.
func runBenchCounters(t *testing.T, b *Benchmark, threads int, scale Scale, ht bool) (*jvm.VM, *counters.File) {
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
	return vm, cpu.Counters()
}

// TestSyncBenchmarksTiny runs the synchronization-stress family end to
// end in both HT modes at several thread counts.
func TestSyncBenchmarksTiny(t *testing.T) {
	for _, b := range Sync() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, threads := range []int{1, 2, 4} {
				runBench(t, b, threads, Tiny, false)
				runBench(t, b, threads, Tiny, true)
			}
		})
	}
}

// TestSyncLockContendsUnderHT asserts the convoy actually convoys: with
// four threads on two contexts the monitor must block, and every block
// shows up in the lock counters.
func TestSyncLockContendsUnderHT(t *testing.T) {
	_, f := runBenchCounters(t, SyncLock(), 4, Tiny, true)
	if f.Get(counters.LockAcquires) == 0 {
		t.Fatal("no lock acquisitions recorded")
	}
	if f.Get(counters.LockContended) == 0 {
		t.Fatal("4 threads hammering one monitor never contended")
	}
	if f.Get(counters.FenceUops) == 0 {
		t.Fatal("monitor operations must emit fence µops")
	}
	if err := f.CheckConservation(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}

// TestSyncCASFailsUnderHT asserts concurrent CAS loops genuinely race:
// some compare-and-swaps must lose.
func TestSyncCASFailsUnderHT(t *testing.T) {
	_, f := runBenchCounters(t, SyncCAS(), 4, Tiny, true)
	if ops := f.Get(counters.CASOps); ops == 0 {
		t.Fatal("no CAS operations recorded")
	}
	if f.Get(counters.CASFailures) == 0 {
		t.Fatal("4 racing CAS loops on 2 contexts never failed a CAS")
	}
	if err := f.CheckConservation(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}

// TestSyncRegistry checks the Sync family stays out of All() (the
// paper's Table 1 population feeds goldens) while remaining reachable
// through ByName.
func TestSyncRegistry(t *testing.T) {
	if got := len(Sync()); got != 4 {
		t.Fatalf("sync family has %d benchmarks, want 4", got)
	}
	for _, s := range Sync() {
		if !s.Multithreaded {
			t.Fatalf("%s must be multithreaded", s.Name)
		}
		if _, ok := ByName(s.Name); !ok {
			t.Fatalf("ByName(%q) failed", s.Name)
		}
		for _, b := range All() {
			if b.Name == s.Name {
				t.Fatalf("%s leaked into the Table 1 suite", s.Name)
			}
		}
	}
}
