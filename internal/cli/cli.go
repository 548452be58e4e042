// Package cli is the flag surface shared by the repository's commands:
// scale selection, engine parallelism, quiet mode, invariant checks,
// the observability outputs (-metrics, -trace, -sample), and the
// campaign resilience block (-deadline, -cycle-budget, -retries,
// -inject, -journal, -resume, -journal-sync). Each tool registers the
// block once,
// parses, and resolves it into a Common that carries the scale, job
// count, resilience policy and (possibly nil) obs.Sink.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"javasmt/internal/bench"
	"javasmt/internal/check"
	"javasmt/internal/core"
	"javasmt/internal/faultinject"
	"javasmt/internal/harness"
	"javasmt/internal/obs"
	"javasmt/internal/resilience"
	"javasmt/internal/sampling"
	"javasmt/internal/sched"
	"javasmt/internal/simos"
)

// ParseGeometries maps a comma-separated list of MxN machine shapes
// ("1x2,2x2,4x4") to geometries.
func ParseGeometries(s string) ([]core.Geometry, error) {
	var geos []core.Geometry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		var g core.Geometry
		if n, err := fmt.Sscanf(part, "%dx%d", &g.Cores, &g.ContextsPerCore); n != 2 || err != nil ||
			fmt.Sprintf("%dx%d", g.Cores, g.ContextsPerCore) != part {
			return nil, fmt.Errorf("bad geometry %q (want CORESxCONTEXTS, e.g. 2x2)", part)
		}
		if g.Cores < 1 || g.ContextsPerCore < 1 {
			return nil, fmt.Errorf("bad geometry %q: counts must be positive", part)
		}
		geos = append(geos, g)
	}
	return geos, nil
}

// ParseBenchmarks maps a comma-separated list of benchmark names (the
// Table 1 suite and the synchronization-stress family) to benchmarks.
func ParseBenchmarks(s string) ([]*bench.Benchmark, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty benchmark list")
	}
	var out []*bench.Benchmark
	for _, part := range strings.Split(s, ",") {
		b, ok := bench.ByName(strings.TrimSpace(part))
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", part)
		}
		out = append(out, b)
	}
	return out, nil
}

// ParseCounts maps a comma-separated list of positive counts ("1,2,4")
// to ints; what names the quantity in errors ("thread count").
func ParseCounts(what, s string) ([]int, error) {
	var ns []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad %s %q", what, part)
		}
		ns = append(ns, n)
	}
	if err := CheckCounts(what, ns); err != nil {
		return nil, err
	}
	return ns, nil
}

// CheckCounts rejects a non-positive count; what names the quantity in
// the error.
func CheckCounts(what string, ns []int) error {
	for _, n := range ns {
		if n < 1 {
			return fmt.Errorf("bad %s %d: must be positive", what, n)
		}
	}
	return nil
}

// ParseScale maps a -scale argument to a bench.Scale.
func ParseScale(s string) (bench.Scale, error) {
	switch strings.ToLower(s) {
	case "tiny":
		return bench.Tiny, nil
	case "small":
		return bench.Small, nil
	case "medium":
		return bench.Medium, nil
	}
	return 0, fmt.Errorf("unknown scale %q (tiny|small|medium)", s)
}

// Options selects which optional flags a tool registers on top of the
// always-present block (-scale, -checks, -metrics, -trace,
// -sample).
type Options struct {
	// Jobs registers -j for tools that fan experiments out.
	Jobs bool
	// Quiet registers -q for tools with progress output.
	Quiet bool
}

// Flags holds the registered flag values until Finish resolves them.
type Flags struct {
	tool string
	fs   *flag.FlagSet

	scale   *string
	jobs    *int
	quiet   *bool
	checks  *bool
	metrics *string
	trace   *string
	sample  *uint64

	deadline    *time.Duration
	budget      *uint64
	retries     *int
	inject      *string
	journal     *string
	resume      *bool
	journalSync *bool

	simMode    *string
	ffInterval *uint64
	warmup     *uint64
	window     *uint64

	cores    *int
	contexts *int

	policy    *string
	timeslice *uint64
}

// Register installs the common flag block on fs (normally
// flag.CommandLine) for the named tool. Call before fs.Parse; resolve
// with Finish after.
func Register(tool string, fs *flag.FlagSet, opt Options) *Flags {
	f := &Flags{tool: tool, fs: fs}
	f.scale = fs.String("scale", "tiny", "input scale: tiny|small|medium")
	f.checks = fs.Bool("checks", check.Enabled, "enable runtime invariant probes (needs a -tags checks build)")
	f.metrics = fs.String("metrics", "", "write sampled metrics time-series JSON to `file`")
	f.trace = fs.String("trace", "", "write Chrome trace-event JSON to `file` (chrome://tracing, Perfetto)")
	f.sample = fs.Uint64("sample", obs.DefaultStride, "metrics sample interval in `cycles`")
	f.deadline = fs.Duration("deadline", 0, "wall-clock deadline per experiment cell (0 = none)")
	f.budget = fs.Uint64("cycle-budget", 0, "simulated-cycle budget per experiment cell (0 = none)")
	f.retries = fs.Int("retries", 0, "retries per failed experiment cell (transient failures only)")
	f.inject = fs.String("inject", "", "fault-injection `spec`, e.g. seed=42,panic=0.1 (needs a -tags faults build)")
	f.journal = fs.String("journal", "", "campaign journal `dir` for checkpoint/resume")
	f.resume = fs.Bool("resume", false, "resume the campaign recorded in -journal, skipping finished cells")
	f.journalSync = fs.Bool("journal-sync", false, "fsync the -journal after every cell (survives power loss, not just crashes)")
	def := sampling.DefaultSampledPlan()
	f.simMode = fs.String("sim-mode", "full", "simulation mode: full|sampled (interval sampling, DESIGN.md §10)")
	f.ffInterval = fs.Uint64("ff-interval", def.FFUops, "sampled mode: unwarmed fast-forward `uops` per interval")
	f.warmup = fs.Uint64("warmup", def.WarmupUops, "sampled mode: warmed functional `uops` before each detailed window")
	f.window = fs.Uint64("window", def.WindowCycles, "sampled mode: detailed-window length in `cycles`")
	f.cores = fs.Int("cores", 0, "machine geometry: physical cores (with -contexts; 0 = the classic -ht machine)")
	f.contexts = fs.Int("contexts", 0, "machine geometry: hardware contexts per core (with -cores)")
	f.policy = fs.String("policy", "",
		"seating `policy`: "+strings.Join(simos.PolicyNames(), "|")+" (default naive, the seed FIFO)")
	f.timeslice = fs.Uint64("timeslice", 0, "scheduler timeslice in `cycles` (0 = built-in default)")
	if opt.Jobs {
		f.jobs = fs.Int("j", sched.DefaultWorkers(), "concurrent experiments (1 = serial)")
	}
	if opt.Quiet {
		f.quiet = fs.Bool("q", false, "suppress progress output")
	}
	return f
}

// Common is the resolved common configuration. Obs is nil unless
// -metrics or -trace was given, so untraced runs pay nothing.
type Common struct {
	Scale bench.Scale
	Jobs  int
	Quiet bool
	Obs   *obs.Sink
	// Policy is the per-cell resilience policy from -deadline,
	// -cycle-budget and -retries (zero value when none given).
	Policy resilience.CellPolicy
	// Inject is the parsed -inject fault injector, nil when absent.
	Inject *faultinject.Injector
	// Plan is the simulation regime from -sim-mode/-ff-interval/-warmup/
	// -window; the zero value (full detailed simulation) when -sim-mode
	// is absent or "full".
	Plan sampling.Plan
	// Geometry is the machine shape from -cores/-contexts; the zero value
	// (neither flag given) defers to each tool's HT flag, keeping legacy
	// invocations byte-identical.
	Geometry core.Geometry
	// SchedPolicy is the -policy seating policy name ("" = naive, the
	// seed FIFO); Timeslice is the -timeslice override in cycles (0 =
	// the scheduler's built-in default).
	SchedPolicy string
	Timeslice   uint64

	tool        string
	metricsPath string
	tracePath   string
	journalDir  string
	resume      bool
	journalSync bool
}

// Finish validates the parsed flags and builds the Common. It must be
// called after the flag set has been parsed. Errors are usage errors
// (the caller should exit 2, or use MustFinish).
func (f *Flags) Finish() (*Common, error) {
	if err := check.SetOn(*f.checks); err != nil {
		return nil, err
	}
	if *f.sample == 0 {
		return nil, fmt.Errorf("-sample must be a positive cycle count")
	}
	if f.jobs != nil && *f.jobs < 0 {
		return nil, fmt.Errorf("-j %d is negative; use -j 1 for serial or omit for all CPUs", *f.jobs)
	}
	if *f.retries < 0 {
		return nil, fmt.Errorf("-retries %d is negative", *f.retries)
	}
	if *f.deadline < 0 {
		return nil, fmt.Errorf("-deadline %v is negative", *f.deadline)
	}
	if *f.resume && *f.journal == "" {
		return nil, fmt.Errorf("-resume needs -journal to say which campaign to resume")
	}
	if *f.journalSync && *f.journal == "" {
		return nil, fmt.Errorf("-journal-sync needs -journal to say which journal to sync")
	}
	inject, err := faultinject.Parse(*f.inject)
	if err != nil {
		return nil, err
	}
	mode, err := sampling.ParseMode(*f.simMode)
	if err != nil {
		return nil, err
	}
	plan := sampling.FullPlan()
	if mode == sampling.Sampled {
		plan = sampling.Plan{
			Mode:         sampling.Sampled,
			FFUops:       *f.ffInterval,
			WarmupUops:   *f.warmup,
			WindowCycles: *f.window,
		}
	} else {
		// Sampling knobs without -sim-mode sampled are a mistake, not a
		// silent no-op.
		var stray string
		f.fs.Visit(func(fl *flag.Flag) {
			switch fl.Name {
			case "ff-interval", "warmup", "window":
				stray = fl.Name
			}
		})
		if stray != "" {
			return nil, fmt.Errorf("-%s only applies with -sim-mode sampled", stray)
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if _, err := simos.NewPolicy(*f.policy); err != nil {
		return nil, err
	}
	geo := core.Geometry{Cores: *f.cores, ContextsPerCore: *f.contexts}
	if (geo != core.Geometry{}) {
		if geo.Cores <= 0 || geo.ContextsPerCore <= 0 {
			return nil, fmt.Errorf("-cores and -contexts must be given together as positive counts (got %dx%d)",
				geo.Cores, geo.ContextsPerCore)
		}
	}
	scale, err := ParseScale(*f.scale)
	if err != nil {
		return nil, err
	}
	c := &Common{
		Scale: scale,
		Jobs:  1,
		Policy: resilience.CellPolicy{
			WallDeadline: *f.deadline,
			CycleBudget:  *f.budget,
			Retries:      *f.retries,
		},
		Inject:      inject,
		Plan:        plan,
		Geometry:    geo,
		SchedPolicy: *f.policy,
		Timeslice:   *f.timeslice,
		tool:        f.tool,
		metricsPath: *f.metrics,
		tracePath:   *f.trace,
		journalDir:  *f.journal,
		resume:      *f.resume,
		journalSync: *f.journalSync,
	}
	if f.jobs != nil {
		c.Jobs = *f.jobs
	}
	if f.quiet != nil {
		c.Quiet = *f.quiet
	}
	if c.metricsPath != "" || c.tracePath != "" {
		c.Obs = obs.New(obs.Config{
			Metrics: c.metricsPath != "",
			Trace:   c.tracePath != "",
			Stride:  *f.sample,
		})
	}
	return c, nil
}

// MustFinish is Finish, exiting 2 on a usage error.
func (f *Flags) MustFinish() *Common {
	c, err := f.Finish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.tool, err)
		os.Exit(2)
	}
	return c
}

// Progress returns the tool's progress callback: a stderr line printer,
// or nil when -q was given (experiment drivers treat nil as disabled).
func (c *Common) Progress() func(string) {
	if c.Quiet {
		return nil
	}
	return func(msg string) { fmt.Fprintf(os.Stderr, "... %s\n", msg) }
}

// WriteObs writes whichever observability files were requested on the
// command line; with neither -metrics nor -trace it writes nothing.
func (c *Common) WriteObs() error {
	if c.metricsPath != "" {
		if err := c.Obs.WriteMetricsFile(c.metricsPath); err != nil {
			return err
		}
	}
	if c.tracePath != "" {
		if err := c.Obs.WriteTraceFile(c.tracePath); err != nil {
			return err
		}
	}
	return nil
}

// GeometryTag is the journal-config descriptor of the machine shape:
// empty with no -cores/-contexts (so journals written before geometry
// existed keep their exact config strings) and a canonical " geo=MxN"
// clause otherwise.
func (c *Common) GeometryTag() string {
	if (c.Geometry == core.Geometry{}) {
		return ""
	}
	return fmt.Sprintf(" geo=%v", c.Geometry)
}

// PolicyTag is the journal-config descriptor of the scheduling
// configuration: empty with no -policy/-timeslice (so journals written
// before policies existed keep their exact config strings) and
// canonical " policy=NAME"/" timeslice=N" clauses otherwise.
func (c *Common) PolicyTag() string {
	tag := ""
	if c.SchedPolicy != "" {
		tag += " policy=" + c.SchedPolicy
	}
	if c.Timeslice != 0 {
		tag += fmt.Sprintf(" timeslice=%d", c.Timeslice)
	}
	return tag
}

// SchedParams returns the simos scheduler tuning from the flags: the
// zero value unless -timeslice was given (simos.New fills unset fields
// from DefaultParams).
func (c *Common) SchedParams() simos.Params {
	return simos.Params{Timeslice: c.Timeslice}
}

// HarnessConfig is the campaign configuration the flags describe,
// journaling into j (nil for none). Runs and Progress keep their
// defaults; tools that differ set them on the result.
func (c *Common) HarnessConfig(j *resilience.Journal) harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Scale = c.Scale
	cfg.Jobs = c.Jobs
	cfg.Obs = c.Obs
	cfg.Policy = c.Policy
	cfg.Inject = c.Inject
	cfg.Journal = j
	cfg.Plan = c.Plan
	cfg.SchedPolicy = c.SchedPolicy
	cfg.SchedParams = c.SchedParams()
	return cfg
}

// OpenJournal opens the campaign journal selected by -journal/-resume,
// or returns nil when no journal was requested. config is the tool's
// campaign identity string; the sampling plan's Tag and the geometry
// tag are appended to it here, so resuming under a different
// configuration — including a different simulation mode, sampling
// regime or machine shape, whose cells would not be comparable — is
// refused in one place for every tool. On resume it reports how many
// completed cells will be skipped.
func (c *Common) OpenJournal(config string) (*resilience.Journal, error) {
	if c.journalDir == "" {
		return nil, nil
	}
	config += c.Plan.Tag() + c.GeometryTag() + c.PolicyTag()
	var opts []resilience.Option
	if c.journalSync {
		opts = append(opts, resilience.WithSync())
	}
	j, err := resilience.Open(c.journalDir, resilience.Meta{Tool: c.tool, Config: config}, c.resume, opts...)
	if err != nil {
		return nil, err
	}
	if c.resume && !c.Quiet {
		fmt.Fprintf(os.Stderr, "%s: resuming: %d completed cells in journal\n", c.tool, j.Resumed())
	}
	return j, nil
}

// ExitFailures prints a campaign-failure summary and exits 1 — the
// degraded-but-complete ending: the report above it is fully rendered,
// and the exit status tells scripts some cells are missing. A call with
// no failures returns without exiting.
func (c *Common) ExitFailures(failures []harness.Failure) {
	if len(failures) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %d cells FAILED:\n", c.tool, len(failures))
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "  %s: %s\n", f.Cell, f.Reason)
	}
	os.Exit(1)
}

// Fatal reports a runtime error and exits 1.
func (c *Common) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", c.tool, err)
	os.Exit(1)
}

// Usagef reports a usage error and exits 2.
func (c *Common) Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, c.tool+": "+format+"\n", args...)
	os.Exit(2)
}
