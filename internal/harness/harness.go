// Package harness runs the paper's experiments: single benchmarks in
// either HT mode, multithreaded runs, and the multiprogrammed pairing
// protocol of §4.2 with its repeat-relaunch-and-average measurement.
package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"javasmt/internal/bench"
	"javasmt/internal/bytecode"
	"javasmt/internal/core"
	"javasmt/internal/counters"
	"javasmt/internal/faultinject"
	"javasmt/internal/jvm"
	"javasmt/internal/obs"
	"javasmt/internal/resilience"
	"javasmt/internal/sampling"
	"javasmt/internal/simos"
)

// Config configures an experiment driver (RunCharacterization,
// RunPairings, RunFig10, RunFig12): input scale, engine parallelism,
// pairing protocol depth, progress reporting and observability. The
// zero value is usable; DefaultConfig fills in the pairing defaults.
type Config struct {
	// Scale selects input sizes for every cell.
	Scale bench.Scale
	// Jobs bounds how many cells simulate concurrently: 0 or negative
	// means one worker per CPU, 1 runs serially. Each simulation owns
	// its whole machine, so results are byte-identical at any job count.
	Jobs int
	// Runs is the minimum completed runs per program in pairing cells
	// (the paper uses 12 and drops the first and last; we default lower
	// to bound simulation time — see DESIGN.md §5).
	Runs int
	// MaxCycles bounds each pairing experiment (0 = unlimited).
	MaxCycles uint64
	// Progress receives one self-describing line per cell; nil disables
	// reporting.
	Progress func(string)
	// Obs receives per-run metrics series and trace spans; nil disables
	// observability entirely (the zero-overhead default).
	Obs *obs.Sink
	// Policy is the per-cell resilience policy: wall-clock deadline,
	// cycle budget and retries. The zero value recovers panics and
	// validates counters but sets no bounds and never retries.
	Policy resilience.CellPolicy
	// Journal, when non-nil, checkpoints every cell outcome so an
	// interrupted campaign resumes without re-simulating finished cells.
	Journal *resilience.Journal
	// Inject, when non-nil on a `faults`-tagged build, injects
	// deterministic faults into cells to exercise the recovery paths.
	Inject *faultinject.Injector
	// Plan selects full or interval-sampled simulation for every cell
	// (internal/sampling). The zero value is full detailed simulation,
	// byte-identical to a configuration without the field.
	Plan sampling.Plan
	// SchedPolicy names the simos seating policy every cell's kernel
	// runs under ("" or "naive" = the seed FIFO timeslicer,
	// byte-identical to a configuration without the field). Solo
	// reference runs stay policy-free: a lone thread's seating cannot
	// matter, and the singleflight solo cache is keyed without it.
	SchedPolicy string
	// SchedParams overrides the scheduler tuning (zero fields take the
	// simos defaults).
	SchedParams simos.Params
}

// DefaultConfig returns the serial Tiny-scale configuration with the
// default pairing protocol depth.
func DefaultConfig() Config {
	return Config{Scale: bench.Tiny, Jobs: 1, Runs: 6, MaxCycles: 2_000_000_000}
}

// pairOptions derives the per-pairing protocol options from cfg.
func (c Config) pairOptions() PairOptions {
	return PairOptions{Scale: c.Scale, Runs: c.Runs, MaxCycles: c.cellMaxCycles(), Obs: c.Obs, Plan: c.Plan,
		SchedPolicy: c.SchedPolicy, SchedParams: c.SchedParams}
}

// Options configures a run.
type Options struct {
	// HT enables Hyper-Threading.
	HT bool
	// Geometry, when non-zero, selects an explicit machine shape
	// (cores × contexts per core) instead of the HT flag: the paper's
	// HT-off machine is {1,1} and its HT machine {1,2}, and those two
	// geometries reproduce the HT flag's counters byte for byte
	// (TestGeometryEquivalence). Larger shapes model wider SMT or CMP
	// machines. When set, HT is ignored.
	Geometry core.Geometry
	// Partition selects the partition policy (ablation: dynamic).
	Partition core.PartitionPolicy
	// Threads for multithreaded benchmarks (1 = single-threaded use).
	Threads int
	// Scale selects input sizes.
	Scale bench.Scale
	// Verify re-checks program results against the Go mirrors.
	Verify bool
	// TCSharedTags enables the trace-cache sharing ablation.
	TCSharedTags bool
	// MaxCycles aborts runaway runs (0 = unlimited).
	MaxCycles uint64
	// Obs, when non-nil and enabled, records this run as one metrics
	// series and one trace track. nil costs nothing on the cycle loop.
	Obs *obs.Sink
	// ObsLabel names the run in metrics/trace output; empty defaults to
	// the benchmark name. Experiment drivers set cell-unique labels so
	// exported series order (sorted by label) is deterministic.
	ObsLabel string
	// Cancel, when non-nil, is polled from inside the cycle loop (via
	// core.AttachCancel); setting it aborts the run with core.ErrCanceled
	// within a few thousand simulated cycles. The resilience watchdog
	// plugs its expiry flag in here.
	Cancel *atomic.Bool
	// Plan selects full or interval-sampled simulation (internal/
	// sampling); the zero value is full detailed simulation.
	Plan sampling.Plan
	// SchedPolicy names the simos seating policy for the run's kernel.
	// "" and "naive" select the seed FIFO timeslicer — byte-identical
	// to a configuration without the field (TestPolicyNaiveEquivalence).
	SchedPolicy string
	// SchedParams overrides the scheduler tuning; zero fields take the
	// simos defaults, so setting only Timeslice keeps the switch-cost
	// model untouched.
	SchedParams simos.Params
}

// DefaultOptions returns a single-threaded HT-off Tiny run with
// verification on.
func DefaultOptions() Options {
	return Options{Threads: 1, Scale: bench.Tiny, Verify: true}
}

// cpuConfig builds the processor configuration for opts.
func cpuConfig(opts Options) core.Config {
	cfg := core.DefaultConfig(opts.HT)
	if (opts.Geometry != core.Geometry{}) {
		cfg.Geometry = opts.Geometry
	}
	cfg.Partition = opts.Partition
	cfg.TC.SharedTags = opts.TCSharedTags
	return cfg
}

// newKernel builds the simulated OS for a run — the single place
// scheduler tuning and the seating policy enter a simulation. Every
// kernel the harness creates (characterization runs, solo reference
// measurements, pairings, mixes) comes through here, so an Options
// change reaches all of them.
func newKernel(cpu *core.CPU, opts Options) (*simos.Kernel, error) {
	pol, err := simos.NewPolicy(opts.SchedPolicy)
	if err != nil {
		return nil, err
	}
	return simos.New(cpu, simos.Options{Params: opts.SchedParams, Policy: pol}), nil
}

// vmConfig scales the collected heap with the input size so GC activity
// stays in a realistic band (the paper configured a 512 MB heap for its
// full-size inputs; see DESIGN.md §5 on scaling).
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
	// Distinct address spaces per co-scheduled program.
	cfg.HeapBase = 0x2000_0000 + uint64(slot)*0x4000_0000
	return cfg
}

// Result is one run's outcome.
type Result struct {
	Benchmark string
	Cycles    uint64
	Counters  counters.File
	GCCount   int
	// Sampling carries the reconstruction record of a sampled run (nil
	// for full simulation): tier split, window count, pooled window IPC
	// and the relative-error estimate. It rides into journal payloads.
	Sampling *sampling.Estimate `json:",omitempty"`
}

// IPC returns the run's retired µops per cycle.
func (r *Result) IPC() float64 { return r.Counters.IPC() }

// Run executes one benchmark under opts and returns its measurements.
func Run(b *bench.Benchmark, opts Options) (*Result, error) {
	return RunWithCPUConfig(b, opts, cpuConfig(opts))
}

// RunWithCPUConfig is Run with an explicit processor configuration, for
// hardware ablations (cache sizes, penalties) beyond the Options knobs.
func RunWithCPUConfig(b *bench.Benchmark, opts Options, cfg core.Config) (*Result, error) {
	threads := opts.Threads
	if !b.Multithreaded {
		threads = 1
	}
	prog := b.Build(threads, opts.Scale, 0)
	cpu := core.New(cfg)
	k, err := newKernel(cpu, opts)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", b.Name, err)
	}
	vm := jvm.New(prog, k, vmConfig(opts.Scale, 0))
	defer vm.Release()
	vm.Start()
	var ro *obs.RunObs
	if opts.Obs.Enabled() {
		label := opts.ObsLabel
		if label == "" {
			label = b.Name
		}
		ro = opts.Obs.RunFor(label, cfg.NumContexts())
		cpu.AttachObs(ro, 0)
	}
	if opts.Cancel != nil {
		cpu.AttachCancel(opts.Cancel)
	}
	ctrl := sampling.NewController(cpu, opts.Plan)
	cycles, err := ctrl.Run(opts.MaxCycles)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", b.Name, err)
	}
	if opts.MaxCycles > 0 && !cpu.Drained() {
		return nil, resilience.MarkKind(
			fmt.Errorf("harness: %s exceeded cycle budget of %d cycles", b.Name, opts.MaxCycles),
			resilience.KindCycleBudget)
	}
	// Reconstruction must land before the final observability flush and
	// the counter snapshot, so both report whole-run estimates.
	est := ctrl.Finish()
	if est != nil {
		cycles = cpu.Counters().Get(counters.Cycles)
		ro.SetSampling(samplingInfo(est))
	}
	cpu.FinishObs()
	if opts.Verify {
		if err := b.Verify(vm, threads, opts.Scale); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
	}
	return &Result{
		Benchmark: b.Name,
		Cycles:    cycles,
		Counters:  *cpu.Counters(),
		GCCount:   vm.GCCount(),
		Sampling:  est,
	}, nil
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

// PairResult is the outcome of one multiprogrammed pairing (§4.2).
type PairResult struct {
	A, B string
	// TimeA/TimeB are the averaged simultaneous execution times; SoloA
	// and SoloB the HT-off solo times of the same programs.
	TimeA, TimeB float64
	SoloA, SoloB float64
	// RunsA/RunsB are how many completed runs were averaged.
	RunsA, RunsB int
	// Counters accumulates over the whole co-scheduled interval.
	Counters counters.File
	// Sampling carries the reconstruction record of a sampled pairing
	// (nil for full simulation).
	Sampling *sampling.Estimate `json:",omitempty"`
	// Failed is the failure reason when the campaign gave up on the
	// pairing (every other field but A and B is then zero).
	Failed string `json:",omitempty"`
}

// CombinedSpeedup returns C_AB = SoloA/TimeA + SoloB/TimeB, the paper's
// pairing metric: 1 on a perfect time-sharing uniprocessor, 2 on a
// perfect 2-way SMP.
func (p *PairResult) CombinedSpeedup() float64 {
	if p.TimeA == 0 || p.TimeB == 0 {
		return 0
	}
	return p.SoloA/p.TimeA + p.SoloB/p.TimeB
}

// SpeedupA returns A's individual share SoloA/TimeA (the Figure 9 cell
// value is the whole pair's combined speedup; per-program shares feed the
// symmetry analysis).
func (p *PairResult) SpeedupA() float64 {
	if p.TimeA == 0 {
		return 0
	}
	return p.SoloA / p.TimeA
}

// SpeedupB returns B's individual share.
func (p *PairResult) SpeedupB() float64 {
	if p.TimeB == 0 {
		return 0
	}
	return p.SoloB / p.TimeB
}

// launchHook, when non-nil, sees every VM a repeatingFeeder launches,
// on the simulation goroutine. Tests use it to watch VM lifetimes.
var launchHook func(*jvm.VM)

// repeatingFeeder relaunches a benchmark program each time it exits, as
// the paper's utility program does, recording each completion time.
type repeatingFeeder struct {
	b     *bench.Benchmark
	scale bench.Scale
	slot  int
	k     *simos.Kernel
	cpu   *core.CPU

	// prog is built once on the first launch and reused for every
	// relaunch: a linked program is immutable during execution (all
	// mutable state lives in the VM), and rebuilding it dominated the
	// per-relaunch cost.
	prog *bytecode.Program
	// vm is the latest launch. Every earlier one has exited, and a VM
	// gives its heap back when it exits; release covers this one.
	vm *jvm.VM

	lastStart   uint64
	completions []uint64
	maxRuns     int
	partner     *repeatingFeeder
	stopped     bool
}

// quotaMet reports whether this side has completed its runs.
func (rf *repeatingFeeder) quotaMet() bool { return len(rf.completions) >= rf.maxRuns }

// partnerDone reports whether the co-scheduled program (if any) has met
// its quota; solo measurement runs have no partner.
func (rf *repeatingFeeder) partnerDone() bool {
	return rf.partner == nil || rf.partner.quotaMet()
}

// launch starts one fresh instance of the benchmark program. Per the
// paper's footnote, the shorter benchmark keeps relaunching past its own
// quota until the partner finishes, so neither program's measured runs
// include solo execution.
func (rf *repeatingFeeder) launch() {
	if rf.prog == nil {
		rf.prog = rf.b.Build(1, rf.scale, uint64(1+rf.slot)<<26)
	}
	rf.vm = jvm.New(rf.prog, rf.k, vmConfig(rf.scale, rf.slot))
	if launchHook != nil {
		launchHook(rf.vm)
	}
	rf.lastStart = rf.cpu.Now()
	main := rf.vm.Start()
	jvm.OnExit(main, func() {
		rf.completions = append(rf.completions, rf.cpu.Now()-rf.lastStart)
		if !rf.quotaMet() || !rf.partnerDone() {
			rf.launch()
			return
		}
		rf.stopped = true
	})
}

// release gives back the heap of the latest launch, which is still
// running when a pairing stops early (canceled, over budget, panicked).
func (rf *repeatingFeeder) release() {
	if rf.vm != nil {
		rf.vm.Release()
	}
}

// PairOptions configures the pairing protocol for one pairing. Engine
// concerns (parallelism, progress) live on Config, which derives a
// PairOptions per cell.
type PairOptions struct {
	Scale bench.Scale
	// Runs is the minimum completed runs per program (the paper uses 12
	// and drops the first and last; we default lower to bound
	// simulation time — see DESIGN.md §5).
	Runs int
	// MaxCycles bounds the whole experiment.
	MaxCycles uint64
	// Obs, when non-nil and enabled, records the co-scheduled interval
	// as one metrics series and trace track labelled "pair A+B". Solo
	// reference runs are never observed: they are singleflight-cached
	// across experiments, so which pairing triggers one is scheduling-
	// dependent and observing them would break export determinism.
	Obs *obs.Sink
	// Cancel, when non-nil, aborts the pairing from inside the cycle
	// loop; see Options.Cancel. Solo reference runs are deliberately not
	// guarded: they are singleflight-cached across cells, so canceling
	// one on behalf of a single timed-out cell would poison the cache
	// for every other cell sharing it.
	Cancel *atomic.Bool
	// Plan selects full or interval-sampled simulation for the pairing
	// and its solo reference runs (internal/sampling); the zero value is
	// full detailed simulation.
	Plan sampling.Plan
	// SchedPolicy and SchedParams select the seating policy and
	// scheduler tuning of the co-scheduled interval (see
	// Options.SchedPolicy). Solo reference runs stay policy-free.
	SchedPolicy string
	SchedParams simos.Params
}

// DefaultPairOptions returns the default pairing protocol settings.
func DefaultPairOptions() PairOptions {
	return PairOptions{Scale: bench.Tiny, Runs: 6, MaxCycles: 2_000_000_000}
}

// soloEntry is one singleflight-guarded solo-time computation: the
// first caller simulates inside the Once, every concurrent or later
// caller waits on it and shares the result.
type soloEntry struct {
	once sync.Once
	val  float64
	err  error
}

// soloCache caches HT-off solo times per (benchmark, scale, runs). The
// map itself is guarded by soloMu; each entry's computation is guarded
// by its Once, so two pairings needing the same solo time never
// simulate it twice and never race.
var (
	soloMu    sync.Mutex
	soloCache = map[string]*soloEntry{}
	// soloSims counts actual solo simulations (not cache hits); tests
	// use it to assert the singleflight property.
	soloSims atomic.Uint64
)

// SoloTime returns the benchmark's HT-off execution time in cycles,
// measured with the same relaunch-and-average protocol as the paired
// runs (so cold-start effects cancel out of the speedup ratios, as they
// do in the paper's long-running measurements), and cached across
// calls. It is safe for concurrent use: the first caller for a given
// (benchmark, scale, runs) key simulates, everyone else shares the
// cached result (including a cached error).
func SoloTime(b *bench.Benchmark, scale bench.Scale, runs int) (float64, error) {
	return SoloTimePlan(b, scale, runs, sampling.FullPlan())
}

// SoloTimePlan is SoloTime under an explicit sampling plan. Solo times
// measured under different plans are cached separately (the plan's Tag
// joins the cache key): a sampled campaign's speedup ratios must divide
// sampled solo times by sampled pair times, never mix modes.
func SoloTimePlan(b *bench.Benchmark, scale bench.Scale, runs int, plan sampling.Plan) (float64, error) {
	key := fmt.Sprintf("%s/%v/%d%s", b.Name, scale, runs, plan.Tag())
	soloMu.Lock()
	e := soloCache[key]
	if e == nil {
		e = &soloEntry{}
		soloCache[key] = e
	}
	soloMu.Unlock()
	e.once.Do(func() { e.val, e.err = measureSolo(b, scale, runs, plan) })
	return e.val, e.err
}

// measureSolo runs the relaunch-and-average solo measurement itself.
func measureSolo(b *bench.Benchmark, scale bench.Scale, runs int, plan sampling.Plan) (float64, error) {
	soloSims.Add(1)
	cpu := core.New(cpuConfig(Options{}))
	// Solo reference runs are deliberately policy-free (default
	// Options): a single thread's seating cannot matter, and the
	// singleflight cache key above carries no policy component.
	k, err := newKernel(cpu, Options{})
	if err != nil {
		return 0, err
	}
	rf := &repeatingFeeder{b: b, scale: scale, slot: 0, k: k, cpu: cpu, maxRuns: runs + 2}
	defer rf.release()
	rf.launch()
	ctrl := sampling.NewController(cpu, plan)
	for !rf.stopped {
		n, err := ctrl.Run(10_000_000)
		if err != nil {
			return 0, fmt.Errorf("harness: solo %s: %w", b.Name, err)
		}
		if n == 0 {
			break
		}
	}
	ctrl.Finish()
	v, kept := avgDroppingEnds(rf.completions)
	if kept == 0 {
		return 0, fmt.Errorf("harness: solo %s completed no measurable runs", b.Name)
	}
	return v, nil
}

// avgDroppingEnds averages completion times, dropping the first (cold
// start) and last (possibly truncated) runs, per the paper's protocol.
func avgDroppingEnds(times []uint64) (float64, int) {
	if len(times) <= 2 {
		return 0, 0
	}
	kept := times[1 : len(times)-1]
	sum := 0.0
	for _, t := range kept {
		sum += float64(t)
	}
	return sum / float64(len(kept)), len(kept)
}

// RunPair co-schedules two benchmarks on one HT processor using the
// paper's §4.2 protocol: both repeat until each has completed at least
// opts.Runs runs, the first and last runs are dropped, and the remaining
// completion times are averaged.
func RunPair(a, b *bench.Benchmark, opts PairOptions) (*PairResult, error) {
	return runPairOn(core.New(pairCPUConfig()), a, b, opts)
}

// pairCPUConfig is the processor configuration every pairing runs under.
func pairCPUConfig() core.Config { return cpuConfig(Options{HT: true}) }

// runPairOn is RunPair on a caller-supplied CPU, which must be freshly
// built (or Reset) with pairCPUConfig. The parallel engine uses it to
// reuse one machine's allocations across a worker's successive pairs.
func runPairOn(cpu *core.CPU, a, b *bench.Benchmark, opts PairOptions) (*PairResult, error) {
	soloA, err := SoloTimePlan(a, opts.Scale, opts.Runs, opts.Plan)
	if err != nil {
		return nil, err
	}
	soloB, err := SoloTimePlan(b, opts.Scale, opts.Runs, opts.Plan)
	if err != nil {
		return nil, err
	}

	k, err := newKernel(cpu, Options{SchedPolicy: opts.SchedPolicy, SchedParams: opts.SchedParams})
	if err != nil {
		return nil, err
	}
	// +2: the first (cold) and last (possibly truncated) runs are
	// dropped, as in the paper.
	fa := &repeatingFeeder{b: a, scale: opts.Scale, slot: 0, k: k, cpu: cpu, maxRuns: opts.Runs + 2}
	fb := &repeatingFeeder{b: b, scale: opts.Scale, slot: 1, k: k, cpu: cpu, maxRuns: opts.Runs + 2}
	fa.partner, fb.partner = fb, fa
	defer fa.release()
	defer fb.release()
	fa.launch()
	fb.launch()
	var ro *obs.RunObs
	if opts.Obs.Enabled() {
		ro = opts.Obs.Run(pairLabel(a.Name, b.Name))
		cpu.AttachObs(ro, 0)
	}
	if opts.Cancel != nil {
		cpu.AttachCancel(opts.Cancel)
	}

	ctrl := sampling.NewController(cpu, opts.Plan)
	for !fa.stopped || !fb.stopped {
		n, err := ctrl.Run(10_000_000)
		if err != nil {
			return nil, fmt.Errorf("harness: pair %s+%s: %w", a.Name, b.Name, err)
		}
		if n == 0 {
			break // machine drained (both sides done)
		}
		if opts.MaxCycles > 0 && cpu.Now() > opts.MaxCycles {
			return nil, resilience.MarkKind(
				fmt.Errorf("harness: pair %s+%s exceeded %d cycles", a.Name, b.Name, opts.MaxCycles),
				resilience.KindCycleBudget)
		}
	}

	est := ctrl.Finish()
	if est != nil {
		ro.SetSampling(samplingInfo(est))
	}
	cpu.FinishObs()
	ta, na := avgDroppingEnds(fa.completions)
	tb, nb := avgDroppingEnds(fb.completions)
	return &PairResult{
		A: a.Name, B: b.Name,
		TimeA: ta, TimeB: tb,
		SoloA: soloA, SoloB: soloB,
		RunsA: na, RunsB: nb,
		Counters: *cpu.Counters(),
		Sampling: est,
	}, nil
}
