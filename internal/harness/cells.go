// Cell enumeration: every campaign type (characterization, pairings,
// fig10, fig12, counter/geometry/policy sweeps) enumerates its grid as
// a flat list of independently schedulable cells before anything runs.
// The drivers in experiments.go/policy.go run these cells through
// runGrid on the sched worker pool; the campaign service
// (internal/service) runs them one by one as CellSpecs. Both go through
// runCell. The enumerators here are the only code that formats a cell
// label, and the single source of per-cell simulation options, so a
// daemon job and a one-shot CLI run of the same spec produce
// byte-identical journal entries — the property the service's
// crash-recovery and result-cache layers rest on.

package harness

import (
	"encoding/json"
	"fmt"
	"sync"

	"javasmt/internal/bench"
	"javasmt/internal/core"
	"javasmt/internal/counters"
	"javasmt/internal/resilience"
	"javasmt/internal/sched"
)

// pairPool holds reusable pairing machines shared by every pairing
// campaign in the process (CLI drivers and service workers alike).
var pairPool = sync.Pool{New: func() any { return core.New(pairCPUConfig()) }}

// cellFn is one cell's simulation: it receives the campaign Config and
// the attempt's armed Watch and returns the typed result.
type cellFn[T any] func(cfg Config, w *resilience.Watch) (T, error)

// typedCell is one enumerated cell of a campaign: a stable label (the
// journal identity), the simulation, and the FAILED-row constructor
// drivers fall back to when the campaign gives the cell up.
type typedCell[T any] struct {
	label  string
	fn     cellFn[T]
	failed func(reason string) T
}

// runGrid is the one runner every campaign driver uses: it fans the
// enumerated cells across the engine through runCell (journal lookup,
// resilience policy, conservation validation, journaling), reporting
// each cell's label as progress. It returns one row per cell in cell
// order — the completed value, or the cell's FAILED row when the
// campaign gave it up — and one Failure per given-up cell, also in cell
// order.
func runGrid[T any](cfg Config, cells []typedCell[T]) ([]T, []Failure, error) {
	report := sched.Progress(cfg.Progress)
	label := func(i int) string { return cells[i].label }
	outs, err := sched.MapObserved(len(cells), cfg.Jobs, cfg.Obs, label, func(i int) (outcome[T], error) {
		report(cells[i].label)
		return runCell(cfg, cells[i].label, cells[i].fn)
	})
	if err != nil {
		return nil, nil, err
	}
	rows := make([]T, len(outs))
	var fails []Failure
	for i, o := range outs {
		if o.fail != nil {
			rows[i] = cells[i].failed(o.fail.Reason())
			fails = append(fails, failureOf(o.fail))
			continue
		}
		rows[i] = o.v
	}
	return rows, fails, nil
}

// arm completes a cell's run options with the campaign-wide settings:
// scale, cycle budget, the attempt's cancel flag, sampling plan,
// seating policy and, when observing, the sink and the cell's label.
func (cfg Config) arm(opt Options, w *resilience.Watch, label string) Options {
	opt.Scale = cfg.Scale
	opt.MaxCycles = cfg.Policy.CycleBudget
	opt.Cancel = w.Flag()
	opt.Plan = cfg.Plan
	opt.SchedPolicy = cfg.SchedPolicy
	opt.SchedParams = cfg.SchedParams
	if cfg.Obs.Enabled() {
		opt.Obs, opt.ObsLabel = cfg.Obs, label
	}
	return opt
}

// characterizationCells enumerates the §4.1 run matrix: every
// multithreaded benchmark at 2 and 8 threads, HT off and on.
func characterizationCells() []typedCell[CharRun] {
	var cells []typedCell[CharRun]
	for _, b := range bench.Multithreaded() {
		for _, threads := range []int{2, 8} {
			for _, ht := range []bool{false, true} {
				label := fmt.Sprintf("%s t=%d ht=%v", b.Name, threads, ht)
				cells = append(cells, typedCell[CharRun]{
					label: label,
					failed: func(reason string) CharRun {
						return CharRun{Benchmark: b.Name, Threads: threads, HT: ht, Failed: reason}
					},
					fn: func(cfg Config, w *resilience.Watch) (CharRun, error) {
						res, err := Run(b, cfg.arm(Options{HT: ht, Threads: threads, Verify: true}, w, label))
						if err != nil {
							return CharRun{}, err
						}
						return CharRun{Benchmark: b.Name, Threads: threads, HT: ht, Result: res}, nil
					},
				})
			}
		}
	}
	return cells
}

// pairGrid enumerates the upper-triangle (i ≤ j) pair coordinates of
// progs — the cells RunPairings measures; the mirrored (j, i) matrix
// entries are filled from the same runs.
func pairGrid(progs []*bench.Benchmark) [][2]int {
	var grid [][2]int
	for i := 0; i < len(progs); i++ {
		for j := i; j < len(progs); j++ {
			grid = append(grid, [2]int{i, j})
		}
	}
	return grid
}

// pairCells enumerates the §4.2 pairing cells of progs in pairGrid
// order.
func pairCells(progs []*bench.Benchmark) []typedCell[*PairResult] {
	grid := pairGrid(progs)
	cells := make([]typedCell[*PairResult], len(grid))
	for i, ij := range grid {
		cells[i] = pairCell(progs[ij[0]], progs[ij[1]])
	}
	return cells
}

// pairLabel is the label of the pairing cell of programs a and b; the
// pairing's metrics series is recorded under the same name.
func pairLabel(a, b string) string { return "pair " + a + "+" + b }

// pairCell enumerates one §4.2 pairing cell. Workers draw reusable
// machines from the shared pool: a Reset CPU behaves bit-identically to
// a fresh one (asserted by the determinism test) but keeps its calendar
// rings, ROB rings and cache arrays.
func pairCell(a, b *bench.Benchmark) typedCell[*PairResult] {
	return typedCell[*PairResult]{
		label: pairLabel(a.Name, b.Name),
		failed: func(reason string) *PairResult {
			return &PairResult{A: a.Name, B: b.Name, Failed: reason}
		},
		fn: func(cfg Config, w *resilience.Watch) (*PairResult, error) {
			// A panicking cell unwinds past the Put, so its machine —
			// possibly mid-corruption — is never pooled; canceled or
			// over-budget machines are safe to reuse after Reset.
			cpu := pairPool.Get().(*core.CPU)
			cpu.Reset()
			o := cfg.pairOptions()
			o.Cancel = w.Flag()
			res, err := runPairOn(cpu, a, b, o)
			pairPool.Put(cpu)
			return res, err
		},
	}
}

// fig10Cells enumerates the per-benchmark HT-tax measurements (§4.3):
// HT off, HT on, and the dynamic-partition ablation in one cell.
func fig10Cells() []typedCell[Fig10Row] {
	var cells []typedCell[Fig10Row]
	for _, b := range bench.SingleThreaded() {
		label := "fig10 " + b.Name
		cells = append(cells, typedCell[Fig10Row]{
			label:  label,
			failed: func(reason string) Fig10Row { return Fig10Row{Benchmark: b.Name, Failed: reason} },
			fn: func(cfg Config, w *resilience.Watch) (Fig10Row, error) {
				run := func(mode string, opt Options) (*Result, error) {
					return Run(b, cfg.arm(opt, w, label+" "+mode))
				}
				off, err := run("ht=off", Options{Threads: 1, Verify: true})
				if err != nil {
					return Fig10Row{}, err
				}
				on, err := run("ht=on", Options{HT: true, Threads: 1})
				if err != nil {
					return Fig10Row{}, err
				}
				dyn, err := run("ht=on dyn", Options{HT: true, Threads: 1, Partition: core.DynamicPartition})
				if err != nil {
					return Fig10Row{}, err
				}
				return Fig10Row{Benchmark: b.Name, CyclesOff: off.Cycles, CyclesOn: on.Cycles, CyclesDyn: dyn.Cycles}, nil
			},
		})
	}
	return cells
}

// fig12Cells enumerates the thread-count sweep grid (§4.4).
func fig12Cells(threadCounts []int) []typedCell[Fig12Row] {
	var cells []typedCell[Fig12Row]
	for _, b := range bench.Multithreaded() {
		for _, t := range threadCounts {
			label := fmt.Sprintf("fig12 %s t=%d", b.Name, t)
			cells = append(cells, typedCell[Fig12Row]{
				label: label,
				failed: func(reason string) Fig12Row {
					return Fig12Row{Benchmark: b.Name, Threads: t, Failed: reason}
				},
				fn: func(cfg Config, w *resilience.Watch) (Fig12Row, error) {
					res, err := Run(b, cfg.arm(Options{HT: true, Threads: t, Verify: true}, w, label))
					if err != nil {
						return Fig12Row{}, err
					}
					return Fig12Row{
						Benchmark: b.Name, Threads: t,
						IPC:     res.Counters.IPC(),
						L1DPerK: res.Counters.PerKiloInstr(counters.L1DMisses),
					}, nil
				},
			})
		}
	}
	return cells
}

// sweepCells enumerates the counter-sweep grid (cmd/sweep): each target
// benchmark at each thread count on the HT processor.
func sweepCells(targets []*bench.Benchmark, threadCounts []int) []typedCell[SweepCell] {
	var cells []typedCell[SweepCell]
	for _, b := range targets {
		for _, t := range threadCounts {
			if t > 1 && !b.Multithreaded {
				continue
			}
			label := fmt.Sprintf("%s t=%d", b.Name, t)
			cells = append(cells, typedCell[SweepCell]{
				label: label,
				failed: func(reason string) SweepCell {
					return SweepCell{Benchmark: b.Name, Threads: t, Failed: reason}
				},
				fn: func(cfg Config, w *resilience.Watch) (SweepCell, error) {
					res, err := Run(b, cfg.arm(Options{HT: true, Threads: t, Verify: true}, w, label))
					if err != nil {
						return SweepCell{}, err
					}
					return SweepCell{Benchmark: b.Name, Threads: t, Counters: res.Counters}, nil
				},
			})
		}
	}
	return cells
}

// geometryCells enumerates the machine-shape sweep grid (cmd/sweep
// -geos): each target benchmark on each M×N geometry, multithreaded
// benchmarks seating one software thread per hardware context.
func geometryCells(targets []*bench.Benchmark, geos []core.Geometry) []typedCell[GeometryCell] {
	var cells []typedCell[GeometryCell]
	for _, b := range targets {
		for _, g := range geos {
			label := fmt.Sprintf("%s geo=%v", b.Name, g)
			cells = append(cells, typedCell[GeometryCell]{
				label: label,
				failed: func(reason string) GeometryCell {
					return GeometryCell{Benchmark: b.Name, Geometry: g, Failed: reason}
				},
				fn: func(cfg Config, w *resilience.Watch) (GeometryCell, error) {
					threads := 1
					if b.Multithreaded {
						threads = g.Total()
					}
					res, err := Run(b, cfg.arm(Options{Geometry: g, Threads: threads, Verify: true}, w, label))
					if err != nil {
						return GeometryCell{}, err
					}
					return GeometryCell{Benchmark: b.Name, Geometry: g, Threads: threads, Counters: res.Counters}, nil
				},
			})
		}
	}
	return cells
}

// policyCells enumerates the policy × mix × geometry grid (cmd/sweep
// -policies), policy-major within mix×geometry so rendered rows group
// naturally.
func policyCells(policies []string, mixes []Mix, geos []core.Geometry) []typedCell[PolicyCell] {
	var cells []typedCell[PolicyCell]
	for _, m := range mixes {
		for _, g := range geos {
			for _, pol := range policies {
				label := fmt.Sprintf("%s policy=%s geo=%v", m.Name, pol, g)
				cells = append(cells, typedCell[PolicyCell]{
					label: label,
					failed: func(reason string) PolicyCell {
						return PolicyCell{Mix: m.Name, Threads: m.Threads(), Policy: pol, Geometry: g, Failed: reason}
					},
					fn: func(cfg Config, w *resilience.Watch) (PolicyCell, error) {
						opt := cfg.arm(Options{Geometry: g, Verify: true}, w, label)
						opt.SchedPolicy = pol
						res, err := RunMix(m, opt)
						if err != nil {
							return PolicyCell{}, err
						}
						return PolicyCell{
							Mix: m.Name, Threads: res.Threads, Policy: pol, Geometry: g,
							Cycles: res.Cycles, Migrations: res.Migrations, Counters: res.Counters,
						}, nil
					},
				})
			}
		}
	}
	return cells
}

// CellOutcome is the service-facing result of one executed cell:
// exactly one of Payload (the completed cell's journal-payload JSON —
// the cellRecord bytes a single-process campaign writes) or Fail is
// set.
type CellOutcome struct {
	Label   string
	Payload json.RawMessage
	Fail    *resilience.CellError
}

// CellSpec is one independently schedulable cell of an enumerated
// campaign, as consumed by the campaign service's executor. Label is
// the cell's stable identity — the same string the CLI drivers journal,
// so a service ledger and a CLI journal for the same spec are
// interchangeable byte for byte.
type CellSpec struct {
	Label string
	exec  func(cfg Config) (CellOutcome, error)
}

// Run executes the cell under cfg's full campaign stack — journal
// lookup (a ledgered cell is never re-simulated), resilience policy,
// conservation validation, journaling. The error return is
// campaign-level (broken journal) only; the cell's own failure comes
// back in the outcome.
func (c CellSpec) Run(cfg Config) (CellOutcome, error) { return c.exec(cfg) }

// toSpecs adapts enumerated typed cells to the service-facing form;
// each spec runs its cell through runCell, as runGrid does.
func toSpecs[T any](cells []typedCell[T]) []CellSpec {
	specs := make([]CellSpec, len(cells))
	for i, c := range cells {
		specs[i] = CellSpec{Label: c.label, exec: func(cfg Config) (CellOutcome, error) {
			out, err := runCell(cfg, c.label, c.fn)
			if err != nil {
				return CellOutcome{}, err
			}
			return CellOutcome{Label: c.label, Payload: out.payload, Fail: out.fail}, nil
		}}
	}
	return specs
}

// CharacterizationCellSpecs enumerates the §4.1 run matrix for the
// campaign service.
func CharacterizationCellSpecs() []CellSpec { return toSpecs(characterizationCells()) }

// PairingCellSpecs enumerates the §4.2 pairing cells of progs for the
// campaign service.
func PairingCellSpecs(progs []*bench.Benchmark) []CellSpec { return toSpecs(pairCells(progs)) }

// Fig10CellSpecs enumerates the HT-tax cells (§4.3) for the campaign
// service.
func Fig10CellSpecs() []CellSpec { return toSpecs(fig10Cells()) }

// Fig12CellSpecs enumerates the thread-sweep cells (§4.4) for the
// campaign service.
func Fig12CellSpecs(threadCounts []int) []CellSpec { return toSpecs(fig12Cells(threadCounts)) }

// SweepCellSpecs enumerates the counter-sweep cells for the campaign
// service.
func SweepCellSpecs(targets []*bench.Benchmark, threadCounts []int) []CellSpec {
	return toSpecs(sweepCells(targets, threadCounts))
}

// GeometryCellSpecs enumerates the machine-shape sweep cells for the
// campaign service.
func GeometryCellSpecs(targets []*bench.Benchmark, geos []core.Geometry) []CellSpec {
	return toSpecs(geometryCells(targets, geos))
}

// PolicyCellSpecs enumerates the policy × mix × geometry cells for the
// campaign service.
func PolicyCellSpecs(policies []string, mixes []Mix, geos []core.Geometry) []CellSpec {
	return toSpecs(policyCells(policies, mixes, geos))
}
