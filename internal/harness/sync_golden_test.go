package harness

import (
	"strings"
	"testing"

	"javasmt/internal/bench"
	"javasmt/internal/bytecode"
	"javasmt/internal/counters"
	"javasmt/internal/jvm"
	"javasmt/internal/resilience"
)

// syncSnapshot is the golden record of one synchronization-stress run:
// the broad machine counters plus the JMM-specific ones (ISSUE 10) —
// any change to the monitor table, the store buffer, fence costing or
// the CAS path moves one of these.
type syncSnapshot struct {
	Benchmark        string
	Cycles           uint64
	Uops             uint64
	LockAcquires     uint64
	LockContended    uint64
	MonitorBlocks    uint64
	FenceUops        uint64
	FenceStallCycles uint64
	CASOps           uint64
	CASFailures      uint64
	CtxSwitches      uint64
}

// TestGoldenSyncCounters snapshots the four sync-stress benchmarks at
// tiny scale, four threads on the paper's HT machine — enough pressure
// that every sync counter is live.
func TestGoldenSyncCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := DefaultOptions()
	opts.HT = true
	opts.Threads = 4
	var snaps []syncSnapshot
	for _, b := range bench.Sync() {
		res, err := Run(b, opts)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		f := res.Counters
		snaps = append(snaps, syncSnapshot{
			Benchmark:        b.Name,
			Cycles:           res.Cycles,
			Uops:             f.Get(counters.Instructions),
			LockAcquires:     f.Get(counters.LockAcquires),
			LockContended:    f.Get(counters.LockContended),
			MonitorBlocks:    f.Get(counters.MonitorBlocks),
			FenceUops:        f.Get(counters.FenceUops),
			FenceStallCycles: f.Get(counters.FenceStallCycles),
			CASOps:           f.Get(counters.CASOps),
			CASFailures:      f.Get(counters.CASFailures),
			CtxSwitches:      f.Get(counters.ContextSwitches),
		})
		if err := f.CheckConservation(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
	compareGolden(t, "sync_counters.json", snaps)
}

// deadlockBench wraps an intentionally deadlocking program (main locks
// A then B, a worker locks B then A, with a volatile handshake forcing
// the interleaving) as a benchmark, so the campaign layer can run it.
func deadlockBench() *bench.Benchmark {
	return &bench.Benchmark{
		Name:          "deadlock-probe",
		Description:   "intentional lock-order inversion",
		Multithreaded: true,
		Build: func(threads int, scale bench.Scale, base uint64) *bytecode.Program {
			pb := bytecode.NewProgram("deadlock-probe")
			cls := pb.Class("O", 1, 0)
			pb.Globals(3, 0b11) // 0=objA(ref), 1=objB(ref), 2=flag

			w := bytecode.NewMethod("w", 0, 0)
			w.Op(bytecode.GetVolatile, 1).Op(bytecode.MonEnter)
			w.Const(1).Op(bytecode.PutVolatile, 2)
			w.Op(bytecode.GetVolatile, 0).Op(bytecode.MonEnter)
			w.Op(bytecode.GetVolatile, 0).Op(bytecode.MonExit)
			w.Op(bytecode.GetVolatile, 1).Op(bytecode.MonExit)
			w.Op(bytecode.Ret)
			wi := pb.Add(w.Finish())

			m := bytecode.NewMethod("main", 0, 1)
			m.Op(bytecode.New, cls).Op(bytecode.PutVolatile, 0)
			m.Op(bytecode.New, cls).Op(bytecode.PutVolatile, 1)
			m.Op(bytecode.GetVolatile, 0).Op(bytecode.MonEnter)
			m.Op(bytecode.ThreadStart, wi).Store(0)
			spin := m.NewLabel()
			m.Bind(spin)
			m.Op(bytecode.GetVolatile, 2).Const(1)
			m.Br(bytecode.IfNe, spin)
			m.Op(bytecode.GetVolatile, 1).Op(bytecode.MonEnter)
			m.Op(bytecode.GetVolatile, 1).Op(bytecode.MonExit)
			m.Op(bytecode.GetVolatile, 0).Op(bytecode.MonExit)
			m.Op(bytecode.Ret)
			pb.Entry(pb.Add(m.Finish()))
			return pb.MustLink(base)
		},
		Verify: func(vm *jvm.VM, threads int, scale bench.Scale) error { return nil },
	}
}

// BenchmarkSyncStress measures the synchronization-heavy simulation
// rate (MB/s at 1 byte per µop, comparable to BenchmarkSimSpeed): four
// threads contending on the HT machine, so the monitor table, fence
// drains and CAS retries all sit on the measured path.
func BenchmarkSyncStress(b *testing.B) {
	opts := DefaultOptions()
	opts.HT = true
	opts.Threads = 4
	for _, bm := range bench.Sync() {
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(bm, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(res.Counters.Get(counters.Instructions)))
			}
		})
	}
}

// TestDeadlockBecomesCellError: a waits-for cycle in the monitor table
// is detected at block time and surfaces through the campaign layer as
// a structured panic-kind CellError naming the deadlock — not a cell
// hung until its cycle budget expires.
func TestDeadlockBecomesCellError(t *testing.T) {
	opts := DefaultOptions()
	opts.HT = true
	cfg := DefaultConfig()
	cfg.Policy.Retries = 0
	res, fails, err := RunResilient(deadlockBench(), opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil || len(fails) != 1 {
		t.Fatalf("res=%v fails=%v, want one failure", res, fails)
	}
	fail := fails[0]
	if fail.Kind != string(resilience.KindPanic) {
		t.Fatalf("failure kind = %v, want %v (detection, not budget expiry)", fail.Kind, resilience.KindPanic)
	}
	if !strings.Contains(fail.Reason, "deadlock") {
		t.Fatalf("failure reason %q does not name the deadlock", fail.Reason)
	}
}
