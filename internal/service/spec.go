// Package service is the campaign server behind cmd/javasmtd: a
// long-running daemon that accepts experiment-campaign specs over
// HTTP/JSON, fans their cells across a bounded worker pool, journals
// every outcome to a per-job ledger (the same JSONL journal the CLI
// campaigns write, so a killed daemon resumes every in-flight job
// byte-identically on restart), and serves results as they complete.
package service

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"javasmt/internal/bench"
	"javasmt/internal/cli"
	"javasmt/internal/core"
	"javasmt/internal/harness"
	"javasmt/internal/resilience"
	"javasmt/internal/sampling"
	"javasmt/internal/simos"
)

// JobSpec describes one experiment-grid campaign: which grid to run
// and under what simulation and resilience configuration. The daemon
// reads it as JSON; cmd/report, cmd/sweep and cmd/pairings -all build
// it from their flags (ResolveFlags). Resolve fills every field left
// out with the one default both sides share:
//   - tiny scale, full simulation, the naive seating policy, 6 pairing
//     runs and no deadlines, budget or retries;
//   - pairings: the nine single-threaded programs;
//   - sweep: the multithreaded benchmarks at threads 1,2,4,8,16;
//   - fig12: threads 1,2,4,8,16;
//   - geometry: every benchmark (the geometries must be given);
//   - policy: mixes 32,64,128 on geometries 1x2,2x2,4x4 (the policies
//     must be given; "all" names every registered policy).
type JobSpec struct {
	// Kind selects the campaign type: characterization, pairings,
	// fig10, fig12, sweep, geometry or policy.
	Kind string `json:"kind"`
	// Benchmarks narrows the benchmark set (pairings, sweep, geometry);
	// empty selects each kind's full default set.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Threads is the thread-count axis for fig12 and sweep grids.
	Threads []int `json:"threads,omitempty"`
	// Geometries is the machine-shape axis ("1x2,2x2") for geometry and
	// policy grids.
	Geometries []string `json:"geometries,omitempty"`
	// Policies is the seating-policy axis of a policy sweep.
	Policies []string `json:"policies,omitempty"`
	// Mixes lists server-mix sizes (total software threads) for a
	// policy sweep; each becomes harness.ServerMix(n).
	Mixes []int `json:"mixes,omitempty"`
	// Scale is the input scale: tiny (default), small or medium.
	Scale string `json:"scale,omitempty"`
	// Runs is the pairing-protocol depth (completed runs per program).
	Runs int `json:"runs,omitempty"`
	// SimMode selects full (default) or sampled simulation.
	SimMode string `json:"sim_mode,omitempty"`
	// SchedPolicy and Timeslice configure the simulated OS scheduler,
	// as the CLI -policy/-timeslice flags do.
	SchedPolicy string `json:"sched_policy,omitempty"`
	Timeslice   uint64 `json:"timeslice,omitempty"`
	// CycleBudget bounds each cell in simulated cycles (0 = none).
	CycleBudget uint64 `json:"cycle_budget,omitempty"`
	// CellDeadline is the per-cell wall-clock deadline as a Go duration
	// string ("30s"); empty means none.
	CellDeadline string `json:"cell_deadline,omitempty"`
	// Retries is how many times a transiently failed cell is retried.
	Retries int `json:"retries,omitempty"`
	// JobDeadline is the whole job's wall-clock deadline as a Go
	// duration string; the job is canceled when it expires.
	JobDeadline string `json:"job_deadline,omitempty"`
}

// specKinds lists the accepted Kind values.
var specKinds = []string{"characterization", "pairings", "fig10", "fig12", "sweep", "geometry", "policy"}

// Plan is the resolved, validated form of a JobSpec: the grid axes with
// every default filled in, from which a campaign enumerates its cells,
// builds its harness configuration and takes its identity.
type Plan struct {
	spec       JobSpec
	scale      bench.Scale
	runs       int
	Benchmarks []*bench.Benchmark
	Threads    []int
	Geos       []core.Geometry
	Policies   []string
	Mixes      []harness.Mix
	// Sim is the simulation regime: full, or sim_mode sampled's default
	// regime. ResolveFlags replaces it with the command line's sampling
	// knobs, which have no JobSpec field.
	Sim    sampling.Plan
	cellDL time.Duration
	jobDL  time.Duration
}

// Resolve validates the spec and fills in defaults.
func Resolve(spec JobSpec) (*Plan, error) {
	p := &Plan{spec: spec, runs: spec.Runs}
	if !slices.Contains(specKinds, spec.Kind) {
		return nil, fmt.Errorf("unknown kind %q (want %s)", spec.Kind, strings.Join(specKinds, "|"))
	}

	scaleStr := spec.Scale
	if scaleStr == "" {
		scaleStr = "tiny"
	}
	scale, err := cli.ParseScale(scaleStr)
	if err != nil {
		return nil, err
	}
	p.scale = scale
	if p.runs == 0 {
		p.runs = harness.DefaultConfig().Runs
	}
	if p.runs < 1 {
		return nil, fmt.Errorf("runs %d must be positive", spec.Runs)
	}
	if spec.Retries < 0 {
		return nil, fmt.Errorf("retries %d is negative", spec.Retries)
	}

	if len(spec.Benchmarks) > 0 {
		if p.Benchmarks, err = cli.ParseBenchmarks(strings.Join(spec.Benchmarks, ",")); err != nil {
			return nil, err
		}
	}
	p.Threads = spec.Threads
	if err := cli.CheckCounts("thread count", p.Threads); err != nil {
		return nil, err
	}
	if len(spec.Geometries) > 0 {
		if p.Geos, err = cli.ParseGeometries(strings.Join(spec.Geometries, ",")); err != nil {
			return nil, err
		}
	}
	if p.Policies, err = resolvePolicies(spec.Policies); err != nil {
		return nil, err
	}
	if err := cli.CheckCounts("mix size", spec.Mixes); err != nil {
		return nil, err
	}
	if _, err := simos.NewPolicy(spec.SchedPolicy); err != nil {
		return nil, fmt.Errorf("sched_policy: %w", err)
	}

	mode, err := sampling.ParseMode(spec.SimMode)
	if err != nil {
		return nil, fmt.Errorf("sim_mode: %w", err)
	}
	p.Sim = sampling.FullPlan()
	if mode == sampling.Sampled {
		p.Sim = sampling.DefaultSampledPlan()
	}
	if spec.CellDeadline != "" {
		if p.cellDL, err = time.ParseDuration(spec.CellDeadline); err != nil || p.cellDL < 0 {
			return nil, fmt.Errorf("bad cell_deadline %q", spec.CellDeadline)
		}
	}
	if spec.JobDeadline != "" {
		if p.jobDL, err = time.ParseDuration(spec.JobDeadline); err != nil || p.jobDL <= 0 {
			return nil, fmt.Errorf("bad job_deadline %q", spec.JobDeadline)
		}
	}

	// Kind-specific axis defaults and requirements.
	switch spec.Kind {
	case "pairings":
		if len(p.Benchmarks) == 0 {
			p.Benchmarks = bench.SingleThreaded()
		}
	case "sweep":
		if len(p.Benchmarks) == 0 {
			p.Benchmarks = bench.Multithreaded()
		}
		if len(p.Threads) == 0 {
			p.Threads = []int{1, 2, 4, 8, 16}
		}
	case "fig12":
		if len(p.Threads) == 0 {
			p.Threads = []int{1, 2, 4, 8, 16}
		}
	case "geometry":
		if len(p.Benchmarks) == 0 {
			p.Benchmarks = bench.All()
		}
		if len(p.Geos) == 0 {
			return nil, fmt.Errorf("kind geometry needs geometries")
		}
	case "policy":
		if len(p.Policies) == 0 {
			return nil, fmt.Errorf("kind policy needs policies")
		}
		if len(p.spec.Mixes) == 0 {
			p.spec.Mixes = []int{32, 64, 128}
		}
		if len(p.Geos) == 0 {
			p.Geos = []core.Geometry{{Cores: 1, ContextsPerCore: 2}, {Cores: 2, ContextsPerCore: 2}, {Cores: 4, ContextsPerCore: 4}}
		}
	}
	for _, n := range p.spec.Mixes {
		p.Mixes = append(p.Mixes, harness.ServerMix(n))
	}
	return p, nil
}

// resolvePolicies validates a seating-policy axis; "all" alone names
// every registered policy.
func resolvePolicies(names []string) ([]string, error) {
	if len(names) == 1 && names[0] == "all" {
		return simos.PolicyNames(), nil
	}
	var out []string
	for _, name := range names {
		name = strings.TrimSpace(name)
		if _, err := simos.NewPolicy(name); err != nil || name == "" {
			return nil, fmt.Errorf("bad policy %q (want one of %s, or all)", name, strings.Join(simos.PolicyNames(), "|"))
		}
		out = append(out, name)
	}
	return out, nil
}

// ResolveFlags is Resolve for a campaign described on a command line:
// spec names the grid (kind, axes, runs) and c supplies what every
// campaign shares — scale, simulation regime, scheduler and cell policy.
func ResolveFlags(spec JobSpec, c *cli.Common) (*Plan, error) {
	spec.Scale = c.Scale.String()
	spec.SimMode = c.Plan.Mode.String()
	spec.SchedPolicy, spec.Timeslice = c.SchedPolicy, c.Timeslice
	spec.CycleBudget, spec.Retries = c.Policy.CycleBudget, c.Policy.Retries
	if c.Policy.WallDeadline > 0 {
		spec.CellDeadline = c.Policy.WallDeadline.String()
	}
	p, err := Resolve(spec)
	if err != nil {
		return nil, err
	}
	p.Sim = c.Plan
	return p, nil
}

// cells enumerates the campaign's cell specs through the harness's
// shared enumerators — the same cells, same labels, same payloads a
// one-shot CLI campaign of this spec produces.
func (p *Plan) cells() []harness.CellSpec {
	switch p.spec.Kind {
	case "characterization":
		return harness.CharacterizationCellSpecs()
	case "pairings":
		return harness.PairingCellSpecs(p.Benchmarks)
	case "fig10":
		return harness.Fig10CellSpecs()
	case "fig12":
		return harness.Fig12CellSpecs(p.Threads)
	case "sweep":
		return harness.SweepCellSpecs(p.Benchmarks, p.Threads)
	case "geometry":
		return harness.GeometryCellSpecs(p.Benchmarks, p.Geos)
	case "policy":
		return harness.PolicyCellSpecs(p.Policies, p.Mixes, p.Geos)
	}
	return nil
}

// Config is the campaign's harness configuration: what its cells
// compute and the cell policy they run under. The caller adds the
// engine pieces — workers, progress, obs sink, fault injector, journal
// and the stop signal.
func (p *Plan) Config() harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Scale = p.scale
	cfg.Runs = p.runs
	cfg.Policy = resilience.CellPolicy{WallDeadline: p.cellDL, CycleBudget: p.spec.CycleBudget, Retries: p.spec.Retries}
	cfg.Plan = p.Sim
	cfg.SchedPolicy = p.spec.SchedPolicy
	cfg.SchedParams = simos.Params{Timeslice: p.spec.Timeslice}
	return cfg
}

// Identity is the canonical simulation-relevant configuration of the
// campaign: it becomes the journal's Meta.Config — the daemon's ledger
// and a CLI -journal alike, so a resume under a different campaign is
// refused — and, joined with a cell label, the daemon's result-cache
// key. Execution-only knobs — deadlines, retries, the job deadline —
// are deliberately absent: they shape how cells run, not what a
// completed cell's bytes are.
func (p *Plan) Identity() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kind=%s scale=%v", p.spec.Kind, p.scale)
	if len(p.Benchmarks) > 0 {
		names := make([]string, len(p.Benchmarks))
		for i, b := range p.Benchmarks {
			names[i] = b.Name
		}
		fmt.Fprintf(&sb, " benches=%s", strings.Join(names, ","))
	}
	if len(p.Threads) > 0 {
		fmt.Fprintf(&sb, " threads=%v", p.Threads)
	}
	if len(p.Geos) > 0 {
		geos := make([]string, len(p.Geos))
		for i, g := range p.Geos {
			geos[i] = g.String()
		}
		fmt.Fprintf(&sb, " geos=%s", strings.Join(geos, ","))
	}
	if len(p.Policies) > 0 {
		fmt.Fprintf(&sb, " policies=%s", strings.Join(p.Policies, ","))
	}
	if len(p.Mixes) > 0 {
		fmt.Fprintf(&sb, " mixes=%v", p.spec.Mixes)
	}
	if p.spec.Kind == "pairings" {
		fmt.Fprintf(&sb, " runs=%d", p.runs)
	}
	sb.WriteString(cli.Clauses(p.spec.CycleBudget, p.Sim, p.spec.SchedPolicy, p.spec.Timeslice))
	return sb.String()
}

// canonicalSpec re-marshals the spec with sorted keys for spec.json;
// encoding/json already sorts struct fields by declaration, so this is
// a plain indent-marshal kept in one place.
func canonicalSpec(spec JobSpec) ([]byte, error) {
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
