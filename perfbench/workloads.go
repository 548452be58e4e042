package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"javasmt/internal/bench"
	"javasmt/internal/core"
	"javasmt/internal/harness"
	"javasmt/internal/sampling"
)

// kind selects how a workload's campaign is executed.
type kind int

const (
	// kindSweep runs counter-sweep cells the way cmd/sweep does: cell
	// specs fanned across sched.MapObserved under a journal.
	kindSweep kind = iota
	// kindPolicy runs policy-sweep cells (cmd/sweep -policies) the same
	// way.
	kindPolicy
	// kindService submits a pairings job to an in-process javasmtd
	// server over loopback HTTP.
	kindService
)

// cell is one campaign cell. Its label is the identity the harness
// journals it under, and the key of its pinned digest.
type cell struct {
	bench   string // sweep cells: benchmark and thread count
	threads int
	mix     int // policy cells: harness.ServerMix size and seating policy
	policy  string
	a, b    string // pairing cells: the co-scheduled programs
}

// label renders the cell's harness label for a workload of kind k on
// machine geo.
func (c cell) label(k kind, geo core.Geometry) string {
	switch k {
	case kindPolicy:
		return fmt.Sprintf("server-%d policy=%s geo=%v", c.mix, c.policy, geo)
	case kindService:
		return "pair " + c.a + "+" + c.b
	}
	return fmt.Sprintf("%s t=%d", c.bench, c.threads)
}

// campaign is what a seed generates: the cells in submission order and,
// for the service workload, the job's benchmark list (the daemon
// enumerates the pair cells from it itself).
type campaign struct {
	cells   []cell
	benches []string
}

// workload is one named benchmark input.
type workload struct {
	name  string
	kind  kind
	geo   core.Geometry
	scale bench.Scale
	plan  sampling.Plan
	// workers is the campaign's worker count (at most nproc is used).
	workers int
	// pool lists every cell a seed can select; each has a pinned digest.
	pool []cell
	// pick draws one campaign from the pool.
	pick func(r *rand.Rand) campaign
}

// mode names the workload's simulation mode, the first part of its pin
// keys.
func (w *workload) mode() string {
	if w.plan.Sampled() {
		return "sampled"
	}
	return "full"
}

// pinKey is the pins map key of cell c under w.
func (w *workload) pinKey(c cell) string { return w.mode() + "/" + c.label(w.kind, w.geo) }

var (
	geo1x2 = core.Geometry{Cores: 1, ContextsPerCore: 2}
	geo4x4 = core.Geometry{Cores: 4, ContextsPerCore: 4}
)

// paperThreads lists the characterization benchmarks with the thread
// counts of their cells. MolDyn, RayTracer and MonteCarlo do the same
// work at 2 and 8 threads; PseudoJBB's work grows with its warehouse
// count (at 8 threads it would double the campaign), so it runs at 2
// only.
var paperThreads = []struct {
	bench   string
	threads []int
}{
	{"MolDyn", []int{2, 8}},
	{"RayTracer", []int{2, 8}},
	{"PseudoJBB", []int{2}},
	{"MonteCarlo", []int{2, 8}},
}

// serverMix is the policy workload's harness.ServerMix size.
const serverMix = 32

// pairRuns is the pairing-protocol depth of the service workload.
const pairRuns = 4

// pairBenches are the service job's programs. A seed orders the last
// two; jack stays first, so every campaign runs pairs of the same cost
// and its first streamed cell is always the short jack self-pair.
var pairBenches = []string{"jack", "MonteCarlo", "mpegaudio"}

// workloads returns every workload, in BENCHMARK.json order.
func workloads() []*workload {
	var paperPool []cell
	for _, p := range paperThreads {
		for _, t := range p.threads {
			paperPool = append(paperPool, cell{bench: p.bench, threads: t})
		}
	}
	var policyPool []cell
	for _, pol := range []string{"naive", "symbiotic-ipc", "contention-aware"} {
		policyPool = append(policyPool, cell{mix: serverMix, policy: pol})
	}
	var pairPool []cell
	seen := map[cell]bool{}
	for _, order := range pairOrders() {
		for _, c := range pairCampaign(order).cells {
			if !seen[c] {
				seen[c] = true
				pairPool = append(pairPool, c)
			}
		}
	}

	full, sampled := sampling.FullPlan(), sampling.DefaultSampledPlan()
	var ws []*workload
	for _, plan := range []sampling.Plan{full, sampled} {
		w := &workload{kind: kindSweep, geo: geo1x2, scale: bench.Small, plan: plan, workers: 1,
			pool: paperPool, pick: pickPaper}
		w.name = "paper-1x2-" + w.mode()
		ws = append(ws, w)
	}
	return append(ws,
		&workload{name: "server-4x4-policy", kind: kindPolicy, geo: geo4x4, scale: bench.Tiny, plan: full,
			workers: 1, pool: policyPool, pick: pickPolicy},
		&workload{name: "service-pairings", kind: kindService, geo: geo1x2, scale: bench.Tiny, plan: full,
			workers: 2, pool: pairPool, pick: pickPairings},
	)
}

// workloadByName resolves a workload name.
func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// pickPaper runs every cell of the grid in a seed-drawn order, except
// that the longest cell (by pinned µop count) leads, as a longest-first
// planner submits it. Every seed thus runs the same work on one worker,
// and first_result_s times the same cell.
func pickPaper(r *rand.Rand) campaign {
	var c campaign
	for _, p := range paperThreads {
		for _, t := range p.threads {
			c.cells = append(c.cells, cell{bench: p.bench, threads: t})
		}
	}
	r.Shuffle(len(c.cells), func(i, j int) { c.cells[i], c.cells[j] = c.cells[j], c.cells[i] })
	uops := func(x cell) uint64 { return pins["full/"+x.label(kindSweep, geo1x2)].uops }
	lead := 0
	for i := range c.cells {
		if uops(c.cells[i]) > uops(c.cells[lead]) {
			lead = i
		}
	}
	c.cells[0], c.cells[lead] = c.cells[lead], c.cells[0]
	return c
}

// pickPolicy runs the server mix under the naive seating policy, the
// baseline a policy sweep lists first, and then under one seed-drawn
// metric-aware policy. The two metric-aware cells differ by about 5% in
// host time, so campaigns of different seeds weigh about the same, and
// first_result_s always times the naive cell.
func pickPolicy(r *rand.Rand) campaign {
	other := []string{"symbiotic-ipc", "contention-aware"}[r.Intn(2)]
	return campaign{cells: []cell{{mix: serverMix, policy: "naive"}, {mix: serverMix, policy: other}}}
}

// pairOrders lists the service job's program orders a seed can draw.
func pairOrders() [][]string {
	b := pairBenches
	return [][]string{{b[0], b[1], b[2]}, {b[0], b[2], b[1]}}
}

// pickPairings draws the service job's program order; the cells are
// the daemon's pair grid over it.
func pickPairings(r *rand.Rand) campaign {
	orders := pairOrders()
	return pairCampaign(orders[r.Intn(len(orders))])
}

// pairCampaign is the pairings campaign over benches: the daemon's
// upper-triangle pair grid, in its enumeration order.
func pairCampaign(benches []string) campaign {
	c := campaign{benches: benches}
	for i := range benches {
		for j := i; j < len(benches); j++ {
			c.cells = append(c.cells, cell{a: benches[i], b: benches[j]})
		}
	}
	return c
}

// truncate limits a campaign to its first n cells (n ≤ 0 keeps all);
// a service campaign keeps its first n programs and their pairs.
func (c campaign) truncate(n int) campaign {
	switch {
	case n <= 0:
		return c
	case c.benches != nil && n < len(c.benches):
		return pairCampaign(c.benches[:n])
	case c.benches == nil && n < len(c.cells):
		c.cells = c.cells[:n]
	}
	return c
}

// pin is the pinned outcome of one cell.
type pin struct {
	digest uint64  // FNV-64a over the cell's nonzero counters
	uops   uint64  // retired µops
	ipc    float64 // retired µops per cycle
}

// cellCounters decodes the counter file embedded in a completed cell's
// journal payload ({"v": {..., "Counters": {...}}}).
func cellCounters(payload []byte) (map[string]uint64, error) {
	var rec struct {
		V struct {
			Counters map[string]uint64
		} `json:"v"`
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("decode cell payload: %w", err)
	}
	if len(rec.V.Counters) == 0 {
		return nil, fmt.Errorf("cell payload carries no counters")
	}
	return rec.V.Counters, nil
}

// observe summarizes a counter file the way pins do. Zero counters are
// left out of the digest, so a counter added later that stays zero on
// these cells does not invalidate the pins.
func observe(ctr map[string]uint64) pin {
	names := make([]string, 0, len(ctr))
	for n, v := range ctr {
		if v != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%d\n", n, ctr[n])
	}
	p := pin{digest: h.Sum64(), uops: ctr["uops_retired"]}
	if cy := ctr["cycles"]; cy > 0 {
		p.ipc = float64(p.uops) / float64(cy)
	}
	return p
}

// checkCell compares a completed cell's counters against its pin.
func (w *workload) checkCell(label string, ctr map[string]uint64) error {
	want, ok := pins[w.mode()+"/"+label]
	if !ok {
		return fmt.Errorf("cell %q has no pinned digest", label)
	}
	if got := observe(ctr); got.digest != want.digest {
		return fmt.Errorf("cell %q: counter digest %016x, pinned %016x", label, got.digest, want.digest)
	}
	return nil
}

// specFor enumerates the harness cell spec of one cell, through the
// same enumerators the CLI drivers and the daemon use.
func (w *workload) specFor(c cell) (harness.CellSpec, error) {
	var specs []harness.CellSpec
	switch w.kind {
	case kindSweep:
		if b, ok := bench.ByName(c.bench); ok {
			specs = harness.SweepCellSpecs([]*bench.Benchmark{b}, []int{c.threads})
		}
	case kindPolicy:
		specs = harness.PolicyCellSpecs([]string{c.policy}, []harness.Mix{harness.ServerMix(c.mix)}, []core.Geometry{w.geo})
	case kindService:
		a, okA := bench.ByName(c.a)
		b, okB := bench.ByName(c.b)
		if okA && okB {
			specs = harness.PairingCellSpecs([]*bench.Benchmark{a, b})
		}
	}
	want := c.label(w.kind, w.geo)
	for _, s := range specs {
		if s.Label == want {
			return s, nil
		}
	}
	return harness.CellSpec{}, fmt.Errorf("cell %q: the harness enumerates no such cell", want)
}
