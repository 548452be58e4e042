// The one simulation path: Run, RunMix, a §4.2 pairing and its solo
// reference measurement all run their programs through simulation.run
// (DESIGN.md §8, "One run path").

package harness

import (
	"fmt"

	"javasmt/internal/bench"
	"javasmt/internal/bytecode"
	"javasmt/internal/core"
	"javasmt/internal/jvm"
	"javasmt/internal/obs"
	"javasmt/internal/resilience"
	"javasmt/internal/sampling"
	"javasmt/internal/simos"
)

// relaunchChunk is how many cycles one controller call simulates in a
// relaunching run (a one-shot run makes a single call). In sampled mode
// a functional span never crosses a call boundary, so the chunking is
// part of what a sampled run computes and must not move.
const relaunchChunk = 10_000_000

// launchHook, when non-nil, sees every VM a simulation launches, on the
// simulation goroutine. Tests use it to watch VM lifetimes.
var launchHook func(*jvm.VM)

// lane is one program of a simulation: a benchmark built for its thread
// count at its code base, with its heap in its own address-space slot.
type lane struct {
	b        *bench.Benchmark
	threads  int
	slot     int
	codeBase uint64

	// prog is built once on the first launch and reused for every
	// relaunch: a linked program is immutable during execution (all
	// mutable state lives in the VM), and rebuilding it dominated the
	// per-relaunch cost.
	prog *bytecode.Program
	// vm is the latest launch. Every earlier one has exited, and a VM
	// gives its heap back when it exits; the simulation releases this one.
	vm *jvm.VM

	lastStart   uint64
	completions []uint64
}

// newLane places b in slot at codeBase, with threads software threads
// if b is multithreaded and one otherwise.
func newLane(b *bench.Benchmark, threads, slot int, codeBase uint64) *lane {
	if !b.Multithreaded {
		threads = 1
	}
	return &lane{b: b, threads: threads, slot: slot, codeBase: codeBase}
}

// pairLane places a single-threaded program in slot under the pairing
// protocol's code layout.
func pairLane(b *bench.Benchmark, slot int) *lane {
	return newLane(b, 1, slot, uint64(1+slot)<<26)
}

// simulation is one run of its lanes on one machine. name prefixes the
// run's errors and labels its obs run unless opts.ObsLabel is set; opts
// (minus the machine knobs: the CPU is given) bounds, observes, samples,
// seats and, with Verify, checks the run.
type simulation struct {
	name  string
	opts  Options
	lanes []*lane
	// quota, when positive, relaunches every lane each time it exits,
	// as the paper's utility program does, until all of them have
	// completed quota runs; 0 runs each lane once.
	quota int

	cpu     *core.CPU
	k       *simos.Kernel
	stopped int // lanes that have stopped relaunching
}

// run simulates the lanes on cpu, fresh or Reset, until they finish and
// returns the sampling estimate (nil in full mode); the counters are on
// cpu. Every VM it launched gives its heap back however it returns.
func (s *simulation) run(cpu *core.CPU) (*sampling.Estimate, error) {
	pol, err := simos.NewPolicy(s.opts.SchedPolicy)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", s.name, err)
	}
	s.cpu = cpu
	s.k = simos.New(cpu, simos.Options{Params: s.opts.SchedParams, Policy: pol})
	defer func() {
		for _, l := range s.lanes {
			if l.vm != nil {
				l.vm.Release()
			}
		}
	}()
	for _, l := range s.lanes {
		s.launch(l)
	}
	label := s.opts.ObsLabel
	if label == "" {
		label = s.name
	}
	ro := s.opts.Obs.RunFor(label, cpu.Config().NumContexts())
	cpu.AttachObs(ro, 0)
	cpu.AttachCancel(s.opts.Cancel)
	ctrl := sampling.NewController(cpu, s.opts.Plan)
	if err := s.loop(ctrl); err != nil {
		return nil, err
	}
	// Reconstruction must land before the final observability flush and
	// the counter snapshot, so both report whole-run estimates.
	est := ctrl.Finish()
	if est != nil {
		ro.SetSampling(samplingInfo(est))
	}
	cpu.FinishObs()
	if s.opts.Verify {
		for _, l := range s.lanes {
			if err := l.b.Verify(l.vm, l.threads, s.opts.Scale); err != nil {
				return nil, fmt.Errorf("harness: %s: %w", s.name, err)
			}
		}
	}
	return est, nil
}

// loop drives the controller until the lanes finish. A one-shot run
// makes one call bounded by the cycle budget (0 = unlimited); a
// relaunching run calls in relaunchChunk spans, each capped at the
// budget left. Runs that have not finished when the budget is spent
// fail with a cycle-budget error.
func (s *simulation) loop(ctrl *sampling.Controller) error {
	budget := s.opts.MaxCycles
	chunk := budget
	if s.quota > 0 {
		chunk = relaunchChunk
	}
	for !s.finished() {
		span := chunk
		if budget > 0 {
			now := s.cpu.Now()
			if now >= budget {
				return resilience.MarkKind(
					fmt.Errorf("harness: %s exceeded cycle budget of %d cycles", s.name, budget),
					resilience.KindCycleBudget)
			}
			span = min(span, budget-now)
		}
		n, err := ctrl.Run(span)
		if err != nil {
			return fmt.Errorf("harness: %s: %w", s.name, err)
		}
		if n == 0 {
			break // machine drained
		}
	}
	return nil
}

// finished reports whether the run is over: a one-shot run when the
// machine has drained, a relaunching run when every lane has stopped.
func (s *simulation) finished() bool {
	if s.quota == 0 {
		return s.cpu.Drained()
	}
	return s.stopped == len(s.lanes)
}

// quotasMet reports whether every lane has completed its quota of runs.
func (s *simulation) quotasMet() bool {
	for _, l := range s.lanes {
		if len(l.completions) < s.quota {
			return false
		}
	}
	return true
}

// launch starts one fresh instance of l's program. In a relaunching run
// each exit records the run's completion time and, per the paper's
// footnote, relaunches the program until every lane has met its quota,
// so the shorter program keeps running until its partner finishes and
// neither program's measured runs include solo execution.
func (s *simulation) launch(l *lane) {
	if l.prog == nil {
		l.prog = l.b.Build(l.threads, s.opts.Scale, l.codeBase)
	}
	l.vm = jvm.New(l.prog, s.k, vmConfig(s.opts.Scale, l.slot))
	if launchHook != nil {
		launchHook(l.vm)
	}
	l.lastStart = s.cpu.Now()
	main := l.vm.Start()
	if s.quota == 0 {
		return
	}
	jvm.OnExit(main, func() {
		l.completions = append(l.completions, s.cpu.Now()-l.lastStart)
		if !s.quotasMet() {
			s.launch(l)
			return
		}
		s.stopped++
	})
}

// samplingInfo converts a reconstruction estimate into the obs layer's
// plain record (obs cannot import sampling: it sits below it).
func samplingInfo(e *sampling.Estimate) *obs.SamplingInfo {
	return &obs.SamplingInfo{
		Mode:        e.Mode,
		Windows:     e.Windows,
		WindowIPC:   e.WindowIPC,
		IPCRelErr:   e.IPCRelErr,
		DetailPct:   e.DetailPct,
		MeasuredPct: e.MeasuredPct,
	}
}
