package simos

import (
	"testing"

	"javasmt/internal/core"
	"javasmt/internal/counters"
	"javasmt/internal/isa"
)

func aluSource(n int) *isa.SliceSource {
	uops := make([]isa.Uop, n)
	for i := range uops {
		uops[i] = isa.Uop{PC: 0x400000 + uint64(i%900), Class: isa.ALU}
	}
	return &isa.SliceSource{Uops: uops}
}

func newMachine(ht bool) (*core.CPU, *Kernel) {
	cpu := core.New(core.DefaultConfig(ht))
	k := New(cpu, Options{})
	return cpu, k
}

func TestSingleThreadRunsToCompletion(t *testing.T) {
	cpu, k := newMachine(false)
	p := k.NewProcess("app")
	th := p.Spawn("main", aluSource(50_000))
	if _, err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	if th.State() != Exited {
		t.Fatalf("thread state = %v, want exited", th.State())
	}
	f := cpu.Counters()
	if got := f.Get(counters.Instructions); got < 50_000 {
		t.Fatalf("retired %d, want >= 50000 (user work plus kernel switches)", got)
	}
	if f.Get(counters.ContextSwitches) == 0 {
		t.Fatal("at least the initial dispatch should count as a context switch")
	}
}

func TestTwoThreadsShareBothContexts(t *testing.T) {
	cpu, k := newMachine(true)
	p := k.NewProcess("app")
	p.Spawn("t0", aluSource(40_000))
	p.Spawn("t1", aluSource(40_000))
	if _, err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	f := cpu.Counters()
	if f.DTModePercent() < 50 {
		t.Fatalf("DT mode = %.1f%%, want the two threads to overlap most of the run", f.DTModePercent())
	}
}

func TestTimeslicingMultiplexesManyThreads(t *testing.T) {
	cpu := core.New(core.DefaultConfig(false))
	params := DefaultParams()
	params.Timeslice = 2_000 // several quanta per 30k-µop thread
	k := New(cpu, Options{Params: params})
	p := k.NewProcess("app")
	threads := make([]*Thread, 4)
	for i := range threads {
		threads[i] = p.Spawn("worker", aluSource(30_000))
	}
	if _, err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, th := range threads {
		if th.State() != Exited {
			t.Fatalf("thread %d state = %v, want exited", i, th.State())
		}
	}
	f := cpu.Counters()
	// 4 threads x 30k µops at a 30k-cycle quantum must preempt repeatedly.
	if f.Get(counters.ContextSwitches) < 6 {
		t.Fatalf("context switches = %d, want several", f.Get(counters.ContextSwitches))
	}
}

func TestOSShareGrowsWithThreadCount(t *testing.T) {
	osShare := func(nThreads int) float64 {
		cpu, k := newMachine(true)
		p := k.NewProcess("app")
		per := 120_000 / nThreads
		for i := 0; i < nThreads; i++ {
			p.Spawn("worker", aluSource(per))
		}
		if _, err := cpu.Run(0); err != nil {
			t.Fatal(err)
		}
		return cpu.Counters().OSCyclePercent()
	}
	two, eight := osShare(2), osShare(8)
	if eight <= two {
		t.Fatalf("OS cycle share should grow with thread count: 2 threads %.2f%%, 8 threads %.2f%%", two, eight)
	}
}

func TestBlockAndUnblock(t *testing.T) {
	cpu, k := newMachine(false)
	p := k.NewProcess("app")

	var consumer, producer *Thread
	consumed := 0
	// The consumer blocks itself after every µop until the producer has
	// run far enough; the producer unblocks it as it finishes.
	consumer = p.Spawn("consumer", isa.FuncSource(func(buf []isa.Uop) (int, bool) {
		if consumed >= 10 {
			return 0, true
		}
		consumed++
		buf[0] = isa.Uop{PC: 0x400000, Class: isa.ALU}
		k.Block(consumer)
		return 1, false
	}))
	producer = p.Spawn("producer", isa.FuncSource(func(buf []isa.Uop) (int, bool) {
		buf[0] = isa.Uop{PC: 0x500000, Class: isa.ALU}
		k.Unblock(consumer)
		// The producer's job is done once the consumer has made all
		// of its progress; until then it keeps feeding wakeups.
		return 1, consumed >= 10
	}))
	if _, err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	if consumer.State() != Exited || producer.State() != Exited {
		t.Fatalf("states: consumer=%v producer=%v", consumer.State(), producer.State())
	}
	if consumed != 10 {
		t.Fatalf("consumed = %d, want 10", consumed)
	}
	if cpu.Counters().Get(counters.MonitorBlocks) < 10 {
		t.Fatal("blocks should be counted")
	}
}

func TestDeadlockIsDetected(t *testing.T) {
	cpu, k := newMachine(false)
	p := k.NewProcess("app")
	var th *Thread
	th = p.Spawn("selfblock", isa.FuncSource(func(buf []isa.Uop) (int, bool) {
		buf[0] = isa.Uop{PC: 0x400000, Class: isa.ALU}
		k.Block(th)
		return 1, false
	}))
	if _, err := cpu.Run(0); err == nil {
		t.Fatal("a permanently blocked system must be reported")
	}
}

func TestProcessSwitchFlushesFrontEnd(t *testing.T) {
	// Two processes time-sharing one context force repeated address-space
	// switches; the same workload as two threads of one process keeps the
	// front-end state warm, so it must see fewer trace-cache misses.
	run := func(procs int) uint64 {
		cpu := core.New(core.DefaultConfig(false))
		params := DefaultParams()
		params.Timeslice = 5_000
		k := New(cpu, Options{Params: params})
		if procs == 1 {
			p := k.NewProcess("app")
			p.Spawn("t0", aluSource(100_000))
			p.Spawn("t1", aluSource(100_000))
		} else {
			k.NewProcess("a").Spawn("t0", aluSource(100_000))
			k.NewProcess("b").Spawn("t1", aluSource(100_000))
		}
		if _, err := cpu.Run(0); err != nil {
			t.Fatal(err)
		}
		return cpu.Counters().Get(counters.TCMisses)
	}
	same, diff := run(1), run(2)
	if diff <= same {
		t.Fatalf("cross-process switching should cost trace-cache misses: same-proc %d, cross-proc %d", same, diff)
	}
}

func TestUnblockNonBlockedIsNoop(t *testing.T) {
	cpu, k := newMachine(false)
	p := k.NewProcess("app")
	th := p.Spawn("main", aluSource(100))
	k.Unblock(th) // runnable: no-op
	if _, err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	if th.State() != Exited {
		t.Fatal("thread should still exit normally")
	}
}

func TestBlockExitedPanics(t *testing.T) {
	cpu, k := newMachine(false)
	p := k.NewProcess("app")
	th := p.Spawn("main", aluSource(100))
	if _, err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Block(th)
}

func TestRunnableCount(t *testing.T) {
	_, k := newMachine(false)
	p := k.NewProcess("app")
	a := p.Spawn("a", aluSource(10))
	p.Spawn("b", aluSource(10))
	if got := k.RunnableCount(); got != 2 {
		t.Fatalf("runnable = %d, want 2", got)
	}
	k.Block(a)
	if got := k.RunnableCount(); got != 1 {
		t.Fatalf("runnable after block = %d, want 1", got)
	}
}

// An exited thread keeps its identity but drops its source, so the
// kernel does not keep a finished program's runtime reachable.
func TestExitedThreadDropsSource(t *testing.T) {
	cpu, k := newMachine(true)
	p := k.NewProcess("app")
	p.Spawn("t0", aluSource(5_000))
	p.Spawn("t1", aluSource(5_000))
	if _, err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, th := range k.Threads() {
		if th.ID != i || th.Proc != p || th.State() != Exited {
			t.Fatalf("thread %d: ID %d, process %v, state %v; want ID %d of app, exited", i, th.ID, th.Proc, th.State(), i)
		}
		if th.Src != nil {
			t.Fatalf("exited thread %q still holds its source", th.Name)
		}
	}
	if got := k.Threads()[1].Name; got != "t1" {
		t.Fatalf("thread 1 name = %q, want t1", got)
	}
}
