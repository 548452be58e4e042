package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"javasmt/internal/bench"
	"javasmt/internal/bytecode"
	"javasmt/internal/core"
	"javasmt/internal/counters"
	"javasmt/internal/isa"
	"javasmt/internal/jvm"
	"javasmt/internal/resilience"
	"javasmt/internal/simos"
)

// recordPerContext bounds the µops kept per hardware context when
// recording a program group's interpreter stream for the core replays
// (32 bytes each): enough per context that cold caches do not dominate
// the replay. The recording keeps whole runs of recordChunk consecutive
// Fill batches, so the replayed stream keeps the program's code and
// data locality.
const (
	recordPerContext = 250_000
	recordChunk      = 256
)

// layerReps is how many times each short layer timing (core.New,
// CPU.Reset, Journal.Record) repeats; the median is reported.
const layerReps = 5

// build links every program of a group.
func build(g []part, scale bench.Scale) []*bytecode.Program {
	progs := make([]*bytecode.Program, len(g))
	for i, p := range g {
		progs[i] = p.b.Build(p.threads, scale, p.base)
	}
	return progs
}

// vmConfig mirrors the harness's per-scale heap sizing and per-slot
// address-space lanes, so the interpreter alone collects garbage exactly
// as often as it does inside a cell.
func vmConfig(scale bench.Scale, slot int) jvm.Config {
	cfg := jvm.DefaultConfig()
	switch scale {
	case bench.Tiny:
		cfg.HeapBytes = 2 << 20
	case bench.Small:
		cfg.HeapBytes = 6 << 20
	default:
		cfg.HeapBytes = 24 << 20
	}
	cfg.HeapBase = 0x2000_0000 + uint64(slot)*0x4000_0000
	return cfg
}

// machine is the processor configuration of geometry geo.
func machine(geo core.Geometry) core.Config {
	cfg := core.DefaultConfig(true)
	cfg.Geometry = geo
	return cfg
}

// interpretation is one interpreter-only run of a program group.
type interpretation struct {
	uops uint64
	gcs  int
	fill time.Duration // time inside the Fill loop
	// streams holds the kept batches per hardware context of geo:
	// simulated-OS thread i's batches go to context i mod contexts.
	streams [][]isa.Uop
	kept    uint64
}

// interpret runs a program group on the interpreter alone: the JVMs sit
// on a simulated OS as in a cell, but instead of a core pulling µops
// through the scheduler, a round-robin loop calls each runnable Java
// thread's Fill into one buffer until every thread has finished or
// blocked. Every stride-th chunk of recordChunk filled batches is kept
// (stride 0 keeps none). The programs' published results are verified
// afterwards.
func interpret(g []part, progs []*bytecode.Program, scale bench.Scale, geo core.Geometry, stride uint64) (in interpretation, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("interpret: %v", r)
		}
	}()
	k := simos.New(core.New(machine(geo)), simos.Options{})
	vms := make([]*jvm.VM, len(g))
	for i, p := range g {
		vms[i] = jvm.New(progs[i], k, vmConfig(scale, p.slot))
		vms[i].Start()
	}
	buf := make([]isa.Uop, core.DefaultParams().FillBatch)
	in.streams = make([][]isa.Uop, geo.Total())
	finished := map[*simos.Thread]bool{}
	var batch uint64
	t0 := time.Now()
	for progressed := true; progressed; {
		progressed = false
		for i, t := range k.Threads() {
			if finished[t] || t.State() == simos.Blocked {
				continue
			}
			n, done := t.Src.Fill(buf)
			finished[t] = done
			if n == 0 && !done {
				continue
			}
			progressed = true
			in.uops += uint64(n)
			if stride > 0 && (batch/recordChunk)%stride == 0 {
				ctx := i % len(in.streams)
				in.streams[ctx] = append(in.streams[ctx], buf[:n]...)
				in.kept += uint64(n)
			}
			batch++
		}
	}
	in.fill = time.Since(t0)
	for i, p := range g {
		if err := p.b.Verify(vms[i], p.threads, scale); err != nil {
			return in, fmt.Errorf("interpret %s: %w", p.b.Name, err)
		}
		in.gcs += vms[i].GCCount()
	}
	return in, nil
}

// replayFeed is a benchmark-side core.Feed replaying a recorded stream.
type replayFeed struct {
	uops []isa.Uop
	pos  int
}

func (f *replayFeed) Fill(_ uint64, buf []isa.Uop) int {
	n := copy(buf, f.uops[f.pos:])
	f.pos += n
	return n
}

func (f *replayFeed) Runnable(uint64) bool { return f.pos < len(f.uops) }
func (f *replayFeed) Done() bool           { return f.pos >= len(f.uops) }

// attach binds a fresh replay feed to each non-empty context stream.
func attach(cpu *core.CPU, ctxs [][]isa.Uop) {
	for i, s := range ctxs {
		if len(s) > 0 {
			cpu.AttachFeed(i, &replayFeed{uops: s})
		}
	}
}

// layerStats accumulates the per-layer timings over a campaign's program
// groups.
type layerStats struct {
	build                time.Duration
	fillUops             uint64
	fill                 time.Duration
	gcs                  int
	replayUops           uint64
	replay, warm, ff     time.Duration
	newTimes, resetTimes []float64
}

// layers times each layer alone on the campaign's programs: bench.Build,
// jvm Fill into a discard buffer, then — on a strided recording of the
// same µop stream — core replay in detailed mode and in both functional
// tiers on the workload's machine, and core.New against CPU.Reset.
func (b *bencher) layers() (*layerStats, error) {
	gs, err := b.groups()
	if err != nil {
		return nil, err
	}
	st := &layerStats{}
	cfg := machine(b.w.geo)
	for _, g := range gs {
		t := time.Now()
		progs := build(g, b.w.scale)
		st.build += time.Since(t)

		whole, err := interpret(g, progs, b.w.scale, b.w.geo, 0)
		if err != nil {
			return nil, err
		}
		st.fillUops += whole.uops
		st.fill += whole.fill
		st.gcs += whole.gcs
		// Interpretation is deterministic, so the recording pass fills
		// exactly the batches the timed pass did.
		rec, err := interpret(g, progs, b.w.scale, b.w.geo, whole.uops/uint64(recordPerContext*cfg.NumContexts())+1)
		if err != nil {
			return nil, err
		}
		ctxs, n := rec.streams, rec.kept

		cpu := core.New(cfg)
		attach(cpu, ctxs)
		t = time.Now()
		if _, err := cpu.Run(0); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		st.replay += time.Since(t)
		if got := cpu.Counters().Get(counters.Instructions); got != n {
			return nil, fmt.Errorf("replay retired %d of %d recorded µops", got, n)
		}
		st.replayUops += n
		for _, warm := range []bool{true, false} {
			cpu.Reset()
			attach(cpu, ctxs)
			t = time.Now()
			done, _, err := cpu.RunFunctional(math.MaxUint64, warm)
			d := time.Since(t)
			if err != nil || done != n {
				return nil, fmt.Errorf("functional replay (warm=%v) executed %d of %d µops: %v", warm, done, n, err)
			}
			if warm {
				st.warm += d
			} else {
				st.ff += d
			}
		}
		for i := 0; i < layerReps; i++ {
			t = time.Now()
			fresh := core.New(cfg)
			st.newTimes = append(st.newTimes, time.Since(t).Seconds())
			t = time.Now()
			fresh.Reset()
			st.resetTimes = append(st.resetTimes, time.Since(t).Seconds())
		}
	}
	return st, nil
}

// recordTimes times resilience.Journal.Record on a fresh journal with
// the campaign's real cell payloads, each recorded layerReps times.
func (b *bencher) recordTimes(cells []cellOut) ([]float64, error) {
	dir, err := os.MkdirTemp(b.dir, "journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	j, err := resilience.Open(dir, b.meta(), false)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	var times []float64
	for _, c := range cells {
		for i := 0; i < layerReps; i++ {
			t := time.Now()
			if err := j.Record(fmt.Sprintf("%s #%d", c.label, i), resilience.StatusOK, "", c.payload); err != nil {
				return nil, err
			}
			times = append(times, time.Since(t).Seconds())
		}
	}
	return times, nil
}
