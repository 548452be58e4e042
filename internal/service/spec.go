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
	"hash/fnv"
	"strings"
	"time"

	"javasmt/internal/bench"
	"javasmt/internal/cli"
	"javasmt/internal/core"
	"javasmt/internal/harness"
	"javasmt/internal/sampling"
)

// JobSpec is one submitted campaign: which experiment grid to run and
// under what simulation and resilience configuration. A zero optional
// field takes the daemon's default: tiny scale, full simulation, the
// naive seating policy, 6 pairing runs and no deadlines, budget or
// retries, as in the CLI tools. The grid axes differ from the CLIs in
// places, so a spec naming only a kind is not always the campaign
// `report` or `sweep` would run:
//   - sweep runs threads [1,2] over every benchmark, where `sweep`
//     runs 1,2,4,8,16 over the multithreaded ones;
//   - fig12 runs threads [1,2,4,8], where `report` adds 16;
//   - policy needs all three of its axes given, where `sweep` defaults
//     the mixes and geometries.
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

// plan is the resolved, validated form of a JobSpec: everything a job
// needs to enumerate cells and build its harness configuration.
type plan struct {
	spec       JobSpec
	scale      bench.Scale
	runs       int
	benchmarks []*bench.Benchmark
	threads    []int
	geos       []core.Geometry
	policies   []string
	mixes      []harness.Mix
	simPlan    sampling.Plan
	cellDL     time.Duration
	jobDL      time.Duration
}

// resolve validates the spec and fills in defaults.
func resolve(spec JobSpec) (*plan, error) {
	p := &plan{spec: spec, runs: spec.Runs}
	ok := false
	for _, k := range specKinds {
		if spec.Kind == k {
			ok = true
		}
	}
	if !ok {
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
		if p.benchmarks, err = cli.ParseBenchmarks(strings.Join(spec.Benchmarks, ",")); err != nil {
			return nil, err
		}
	}
	p.threads = spec.Threads
	if err := cli.CheckCounts("thread count", p.threads); err != nil {
		return nil, err
	}
	if len(spec.Geometries) > 0 {
		p.geos, err = cli.ParseGeometries(strings.Join(spec.Geometries, ","))
		if err != nil {
			return nil, err
		}
	}
	p.policies = spec.Policies
	if err := cli.CheckCounts("mix size", spec.Mixes); err != nil {
		return nil, err
	}
	for _, n := range spec.Mixes {
		p.mixes = append(p.mixes, harness.ServerMix(n))
	}

	mode, err := sampling.ParseMode(spec.SimMode)
	if err != nil {
		return nil, fmt.Errorf("sim_mode: %w", err)
	}
	p.simPlan = sampling.FullPlan()
	if mode == sampling.Sampled {
		p.simPlan = sampling.DefaultSampledPlan()
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
		if len(p.benchmarks) == 0 {
			p.benchmarks = bench.SingleThreaded()
		}
	case "sweep":
		if len(p.benchmarks) == 0 {
			p.benchmarks = bench.All()
		}
		if len(p.threads) == 0 {
			p.threads = []int{1, 2}
		}
	case "fig12":
		if len(p.threads) == 0 {
			p.threads = []int{1, 2, 4, 8}
		}
	case "geometry":
		if len(p.benchmarks) == 0 {
			p.benchmarks = bench.All()
		}
		if len(p.geos) == 0 {
			return nil, fmt.Errorf("kind geometry needs geometries")
		}
	case "policy":
		if len(p.policies) == 0 || len(p.mixes) == 0 || len(p.geos) == 0 {
			return nil, fmt.Errorf("kind policy needs policies, mixes and geometries")
		}
	}
	return p, nil
}

// cells enumerates the campaign's cell specs through the harness's
// shared enumerators — the same cells, same labels, same payloads a
// one-shot CLI campaign of this spec produces.
func (p *plan) cells() []harness.CellSpec {
	switch p.spec.Kind {
	case "characterization":
		return harness.CharacterizationCellSpecs()
	case "pairings":
		return harness.PairingCellSpecs(p.benchmarks)
	case "fig10":
		return harness.Fig10CellSpecs()
	case "fig12":
		return harness.Fig12CellSpecs(p.threads)
	case "sweep":
		return harness.SweepCellSpecs(p.benchmarks, p.threads)
	case "geometry":
		return harness.GeometryCellSpecs(p.benchmarks, p.geos)
	case "policy":
		return harness.PolicyCellSpecs(p.policies, p.mixes, p.geos)
	}
	return nil
}

// configString is the canonical simulation-relevant configuration of
// the campaign: it becomes the ledger's Meta.Config (so a restarted
// daemon refuses to resume a job whose spec file was tampered into a
// different campaign) and, joined with a cell label, the result-cache
// digest. Execution-only knobs — deadlines, retries, the job deadline —
// are deliberately absent: they shape how cells run, not what a
// completed cell's bytes are.
func (p *plan) configString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kind=%s scale=%v", p.spec.Kind, p.scale)
	if len(p.benchmarks) > 0 {
		names := make([]string, len(p.benchmarks))
		for i, b := range p.benchmarks {
			names[i] = b.Name
		}
		fmt.Fprintf(&sb, " benches=%s", strings.Join(names, ","))
	}
	if len(p.threads) > 0 {
		fmt.Fprintf(&sb, " threads=%v", p.threads)
	}
	if len(p.geos) > 0 {
		geos := make([]string, len(p.geos))
		for i, g := range p.geos {
			geos[i] = fmt.Sprintf("%v", g)
		}
		fmt.Fprintf(&sb, " geos=%s", strings.Join(geos, ","))
	}
	if len(p.policies) > 0 {
		fmt.Fprintf(&sb, " policies=%s", strings.Join(p.policies, ","))
	}
	if len(p.mixes) > 0 {
		fmt.Fprintf(&sb, " mixes=%v", p.spec.Mixes)
	}
	if p.spec.Kind == "pairings" {
		fmt.Fprintf(&sb, " runs=%d", p.runs)
	}
	if p.spec.CycleBudget > 0 {
		fmt.Fprintf(&sb, " cycle-budget=%d", p.spec.CycleBudget)
	}
	sb.WriteString(p.simPlan.Tag())
	if p.spec.SchedPolicy != "" {
		sb.WriteString(" policy=" + p.spec.SchedPolicy)
	}
	if p.spec.Timeslice != 0 {
		fmt.Fprintf(&sb, " timeslice=%d", p.spec.Timeslice)
	}
	return sb.String()
}

// cellDigest is the result-cache key of one cell under one campaign
// configuration: FNV-64a over (configString, cell label).
func cellDigest(config, cell string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(config))
	h.Write([]byte{0})
	h.Write([]byte(cell))
	return h.Sum64()
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
