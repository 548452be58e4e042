// Experiment drivers: one entry point per table/figure of the paper.
// cmd/report and the top-level benchmark harness both build on these.

package harness

import (
	"fmt"
	"sort"
	"strings"

	"javasmt/internal/bench"
	"javasmt/internal/core"
	"javasmt/internal/counters"
	"javasmt/internal/sched"
	"javasmt/internal/stats"
)

// CharRun is one characterization run of a multithreaded benchmark.
type CharRun struct {
	Benchmark string
	Threads   int
	HT        bool
	Result    *Result
}

// Characterization holds the run matrix behind Table 2 and Figures 1-7:
// every multithreaded benchmark at 2 and 8 threads, HT off and on.
// Cells the campaign gave up on are absent from Runs and listed in
// Failed; the renderers print them as FAILED(reason) rows.
type Characterization struct {
	Scale  bench.Scale
	Runs   []CharRun
	Failed []Failure
}

// RunCharacterization executes the §4.1 run matrix, fanning the
// independent cells across up to cfg.Jobs workers. Cell order in the
// result is fixed regardless of parallelism.
func RunCharacterization(cfg Config) (*Characterization, error) {
	outs, err := mapCells(cfg, characterizationCells())
	if err != nil {
		return nil, err
	}
	c := &Characterization{Scale: cfg.Scale}
	for _, o := range outs {
		if o.fail != nil {
			c.Failed = append(c.Failed, failureOf(o.fail))
			continue
		}
		c.Runs = append(c.Runs, o.v)
	}
	return c, nil
}

// find returns the run for (name, threads, ht), or nil if that cell
// failed (its reason is then available via reason).
func (c *Characterization) find(name string, threads int, ht bool) *Result {
	for _, r := range c.Runs {
		if r.Benchmark == name && r.Threads == threads && r.HT == ht {
			return r.Result
		}
	}
	return nil
}

// reason returns the failure reason recorded for cell (name, threads, ht).
func (c *Characterization) reason(name string, threads int, ht bool) string {
	cell := fmt.Sprintf("%s t=%d ht=%v", name, threads, ht)
	for _, f := range c.Failed {
		if f.Cell == cell {
			return f.Reason
		}
	}
	return "cell missing"
}

// Table1 renders the paper's benchmark-description table.
func Table1() string {
	var sb strings.Builder
	sb.WriteString("Table 1. Java benchmarks\n")
	fmt.Fprintf(&sb, "%-11s %-72s %s\n", "Benchmark", "Description", "Input")
	for _, b := range bench.All() {
		kind := "single-threaded"
		if b.Multithreaded {
			kind = "multithreaded"
		}
		fmt.Fprintf(&sb, "%-11s %-72s %s (%s)\n", b.Name, b.Description, b.Input, kind)
	}
	return sb.String()
}

// Table2 renders CPI / OS-cycle% / DT-mode% for the HT-on runs.
func (c *Characterization) Table2() string {
	var sb strings.Builder
	sb.WriteString("Table 2. Characterization of multithreaded benchmarks on Hyper-Threading processor\n")
	fmt.Fprintf(&sb, "%-12s %-8s %8s %10s %12s\n", "Benchmark", "Threads", "CPI", "OS cyc %", "CPU DT %")
	for _, b := range bench.Multithreaded() {
		for _, threads := range []int{2, 8} {
			r := c.find(b.Name, threads, true)
			if r == nil {
				fmt.Fprintf(&sb, "%-12s %-8d FAILED(%s)\n", b.Name, threads, c.reason(b.Name, threads, true))
				continue
			}
			fmt.Fprintf(&sb, "%-12s %-8d %8.2f %10.2f %12.2f\n",
				b.Name, threads, r.Counters.CPI(), r.Counters.OSCyclePercent(), r.Counters.DTModePercent())
		}
	}
	return sb.String()
}

// Fig1 renders IPC with HT disabled/enabled (2 threads).
func (c *Characterization) Fig1() string {
	var sb strings.Builder
	sb.WriteString("Figure 1. IPCs of multithreaded benchmarks on Pentium 4 processors\n")
	fmt.Fprintf(&sb, "%-12s %10s %10s %9s\n", "Benchmark", "HT off", "HT on", "gain")
	for _, b := range bench.Multithreaded() {
		roff, ron := c.find(b.Name, 2, false), c.find(b.Name, 2, true)
		if roff == nil || ron == nil {
			fmt.Fprintf(&sb, "%-12s FAILED(%s)\n", b.Name, c.firstReason(b.Name, 2))
			continue
		}
		off, on := roff.Counters.IPC(), ron.Counters.IPC()
		fmt.Fprintf(&sb, "%-12s %10.3f %10.3f %8.1f%%\n", b.Name, off, on, 100*(on/off-1))
	}
	return sb.String()
}

// firstReason returns the failure reason of the first failed HT mode of
// (name, threads) — for figures whose rows need both modes.
func (c *Characterization) firstReason(name string, threads int) string {
	if c.find(name, threads, false) == nil {
		return c.reason(name, threads, false)
	}
	return c.reason(name, threads, true)
}

// Fig2 renders the retirement profile (share of cycles retiring 0-3 µops).
func (c *Characterization) Fig2() string {
	var sb strings.Builder
	sb.WriteString("Figure 2. Instruction retirement profile (fraction of cycles retiring 0/1/2/3 µops)\n")
	fmt.Fprintf(&sb, "%-12s %-6s %7s %7s %7s %7s\n", "Benchmark", "HT", "0", "1", "2", "3")
	var avg [2][4]float64
	var n [2]int
	for _, b := range bench.Multithreaded() {
		for hi, ht := range []bool{false, true} {
			mode := "off"
			if ht {
				mode = "on"
			}
			r := c.find(b.Name, 2, ht)
			if r == nil {
				fmt.Fprintf(&sb, "%-12s %-6s FAILED(%s)\n", b.Name, mode, c.reason(b.Name, 2, ht))
				continue
			}
			p := r.Counters.RetirementProfile()
			fmt.Fprintf(&sb, "%-12s %-6s %7.3f %7.3f %7.3f %7.3f\n", b.Name, mode, p[0], p[1], p[2], p[3])
			for i := range p {
				avg[hi][i] += p[i]
			}
			n[hi]++
		}
	}
	for hi, mode := range []string{"off", "on"} {
		if n[hi] == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%-12s %-6s %7.3f %7.3f %7.3f %7.3f\n", "average", mode,
			avg[hi][0]/float64(n[hi]), avg[hi][1]/float64(n[hi]), avg[hi][2]/float64(n[hi]), avg[hi][3]/float64(n[hi]))
	}
	return sb.String()
}

// ratioFigure renders one misses-per-1000-instructions figure.
func (c *Characterization) ratioFigure(title string, metric func(*counters.File) float64) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	fmt.Fprintf(&sb, "%-14s %10s %10s\n", "Benchmark", "HT off", "HT on")
	for _, b := range bench.Multithreaded() {
		for _, threads := range []int{2, 8} {
			roff, ron := c.find(b.Name, threads, false), c.find(b.Name, threads, true)
			if roff == nil || ron == nil {
				fmt.Fprintf(&sb, "%-14s FAILED(%s)\n", fmt.Sprintf("%s%02d", b.Name, threads), c.firstReason(b.Name, threads))
				continue
			}
			fmt.Fprintf(&sb, "%-14s %10.3f %10.3f\n", fmt.Sprintf("%s%02d", b.Name, threads),
				metric(&roff.Counters), metric(&ron.Counters))
		}
	}
	return sb.String()
}

// Fig3 is trace-cache misses per 1000 µops.
func (c *Characterization) Fig3() string {
	return c.ratioFigure("Figure 3. Trace cache misses per 1,000 instructions",
		func(f *counters.File) float64 { return f.PerKiloInstr(counters.TCMisses) })
}

// Fig4 is L1 data-cache misses per 1000 µops.
func (c *Characterization) Fig4() string {
	return c.ratioFigure("Figure 4. L1 data cache misses per 1,000 instructions",
		func(f *counters.File) float64 { return f.PerKiloInstr(counters.L1DMisses) })
}

// Fig5 is L2 misses per 1000 µops.
func (c *Characterization) Fig5() string {
	return c.ratioFigure("Figure 5. L2 cache misses per 1,000 instructions",
		func(f *counters.File) float64 { return f.PerKiloInstr(counters.L2Misses) })
}

// Fig6 is ITLB misses per 1000 µops.
func (c *Characterization) Fig6() string {
	return c.ratioFigure("Figure 6. Instruction TLB misses per 1,000 instructions",
		func(f *counters.File) float64 { return f.PerKiloInstr(counters.ITLBMisses) })
}

// Fig7 is the BTB miss ratio.
func (c *Characterization) Fig7() string {
	return c.ratioFigure("Figure 7. BTB miss ratios",
		func(f *counters.File) float64 { return f.Rate(counters.BTBMisses, counters.Branches) })
}

// Pairings is the 9x9 multiprogramming cross product behind Figures 8, 9
// and 11. Cells the campaign gave up on leave nil in Results (and 0 in
// Combined) and are listed in Failed; renderers skip them in statistics
// and append a FAILED-cells trailer.
type Pairings struct {
	Names []string
	// Combined[i][j] is C_AB for row benchmark i paired with column j.
	Combined [][]float64
	Results  [][]*PairResult
	Failed   []Failure
}

// RunPairings executes the cross product of the nine single-threaded
// programs (§4.2). Pairs are measured in both (A,B) and (B,A) roles —
// the full 81-cell map, like the paper's Figure 9. cfg.Jobs pairings
// run concurrently (each on its own machine); the result matrix is
// byte-identical at every job count.
func RunPairings(cfg Config) (*Pairings, error) {
	return RunPairingsOf(bench.SingleThreaded(), cfg)
}

// RunPairingsOf is RunPairings over an explicit program list — tests and
// cmd/pairings -benches use reduced lists for fast smoke campaigns.
func RunPairingsOf(progs []*bench.Benchmark, cfg Config) (*Pairings, error) {
	p := &Pairings{}
	for _, b := range progs {
		p.Names = append(p.Names, b.Name)
	}
	n := len(progs)
	p.Combined = make([][]float64, n)
	p.Results = make([][]*PairResult, n)
	for i := range p.Combined {
		p.Combined[i] = make([]float64, n)
		p.Results[i] = make([]*PairResult, n)
	}
	grid := pairGrid(progs)
	cells := make([]typedCell[*PairResult], len(grid))
	for idx, ij := range grid {
		cells[idx] = pairCell(progs[ij[0]], progs[ij[1]])
	}
	report := sched.Progress(cfg.Progress)
	label := func(idx int) string { return cells[idx].label }
	results, err := sched.MapObserved(len(grid), cfg.Jobs, cfg.Obs, label, func(idx int) (outcome[*PairResult], error) {
		a, b := progs[grid[idx][0]], progs[grid[idx][1]]
		report(fmt.Sprintf("pair %s + %s: start", a.Name, b.Name))
		out, err := runTyped(cfg, cells[idx])
		if err != nil {
			return out, err
		}
		if out.fail != nil {
			report(fmt.Sprintf("pair %s + %s: FAILED(%s)", a.Name, b.Name, out.fail.Reason()))
		} else {
			report(fmt.Sprintf("pair %s + %s: done C_AB=%.3f", a.Name, b.Name, out.v.CombinedSpeedup()))
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for idx, o := range results {
		i, j := grid[idx][0], grid[idx][1]
		if o.fail != nil {
			p.Failed = append(p.Failed, failureOf(o.fail))
			continue
		}
		res := o.v
		p.Results[i][j] = res
		p.Combined[i][j] = res.CombinedSpeedup()
		if i != j {
			// The (j,i) cell is the same co-schedule observed from
			// the other program's seat; the simulator is
			// deterministic, so the mirrored cell is measured
			// from the same run (the paper's near-perfect
			// reflective symmetry, which it attributes to fair
			// OS scheduling).
			p.Results[j][i] = res
			p.Combined[j][i] = res.CombinedSpeedup()
		}
	}
	return p, nil
}

// ok reports whether cell (i, j) completed. A Pairings built without a
// Results matrix (literal fixtures) treats every cell as complete.
func (p *Pairings) ok(i, j int) bool {
	return len(p.Results) <= i || len(p.Results[i]) <= j || p.Results[i][j] != nil
}

// RowSpeedups returns the combined speedups of row benchmark i against
// every partner (the Figure 8 box population). Failed cells are
// excluded rather than contributing zeros.
func (p *Pairings) RowSpeedups(i int) []float64 {
	var out []float64
	for j := range p.Combined[i] {
		if p.ok(i, j) {
			out = append(out, p.Combined[i][j])
		}
	}
	return out
}

// Fig8 renders the box chart of combined-speedup distributions.
func (p *Pairings) Fig8() string {
	var sb strings.Builder
	sb.WriteString("Figure 8. Distribution of combined speedup for multiprogrammed Java benchmarks\n")
	var names []string
	var boxes []stats.Box
	lo, hi := 2.0, 0.0
	for i, n := range p.Names {
		pop := p.RowSpeedups(i)
		if len(pop) == 0 {
			continue // every cell of the row failed; the trailer reports them
		}
		bx := stats.Summarize(pop)
		names = append(names, n)
		boxes = append(boxes, bx)
		if bx.Min < lo {
			lo = bx.Min
		}
		if bx.Max > hi {
			hi = bx.Max
		}
	}
	if len(names) > 0 {
		sb.WriteString(stats.RenderBoxes(names, boxes, lo-0.05, hi+0.05, 64))
		sb.WriteString("('=' box: 25th-75th percentile, '|' median, '*' mean, '-' whiskers to min/max)\n")
		for i, n := range names {
			fmt.Fprintf(&sb, "  %-11s %s\n", n, boxes[i])
		}
	}
	sb.WriteString(renderFailures(p.Failed))
	return sb.String()
}

// Fig9 renders the combined-speedup color map and flags slowdown cells.
func (p *Pairings) Fig9() string {
	var sb strings.Builder
	sb.WriteString("Figure 9. Combined speedup color map\n")
	lo, hi := 2.0, 0.0
	for i, row := range p.Combined {
		for j, v := range row {
			if !p.ok(i, j) {
				continue // failed cells render as the low end; scale from real data
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	sb.WriteString(stats.RenderColorMap(p.Names, p.Combined, lo, hi, 1.0))
	// Slowdown audit, as the paper calls out (nine combinations of
	// jack/javac/jess on its machine). Failed cells are not slowdowns.
	var bad []string
	for i := range p.Combined {
		for j := range p.Combined[i] {
			if j < i || !p.ok(i, j) {
				continue
			}
			if p.Combined[i][j] < 1.0 {
				bad = append(bad, fmt.Sprintf("%s+%s=%.3f", p.Names[i], p.Names[j], p.Combined[i][j]))
			}
		}
	}
	sort.Strings(bad)
	fmt.Fprintf(&sb, "slowdown pairs (C_AB < 1): %d\n", len(bad))
	for _, s := range bad {
		fmt.Fprintf(&sb, "  %s\n", s)
	}
	sb.WriteString(renderFailures(p.Failed))
	return sb.String()
}

// Fig11 renders self-pairing speedups (two identical copies under HT).
func (p *Pairings) Fig11() string {
	var sb strings.Builder
	sb.WriteString("Figure 11. Impact of Hyper-Threading on multiprogrammed (self-paired) programs\n")
	fmt.Fprintf(&sb, "%-12s %16s\n", "Benchmark", "combined speedup")
	for i, n := range p.Names {
		if !p.ok(i, i) {
			fmt.Fprintf(&sb, "%-12s FAILED(%s)\n", n, p.reason(n, n))
			continue
		}
		fmt.Fprintf(&sb, "%-12s %16.3f\n", n, p.Combined[i][i])
	}
	sb.WriteString(renderFailures(p.Failed))
	return sb.String()
}

// reason returns the failure reason recorded for the (a, b) pairing cell.
func (p *Pairings) reason(a, b string) string {
	cell := "pair " + a + "+" + b
	for _, f := range p.Failed {
		if f.Cell == cell {
			return f.Reason
		}
	}
	return "cell missing"
}

// Fig10Row is one single-threaded HT-tax measurement. Failed is the
// failure reason when the campaign gave up on this benchmark's cell
// (the cycle fields are then zero).
type Fig10Row struct {
	Benchmark string
	CyclesOff uint64
	CyclesOn  uint64
	// CyclesDyn is the dynamic-partition ablation (DESIGN.md §9).
	CyclesDyn uint64
	Failed    string `json:",omitempty"`
}

// SlowdownPct returns the execution-time increase from merely enabling HT.
func (r Fig10Row) SlowdownPct() float64 {
	return 100 * (float64(r.CyclesOn)/float64(r.CyclesOff) - 1)
}

// DynSlowdownPct returns the same under dynamic partitioning.
func (r Fig10Row) DynSlowdownPct() float64 {
	return 100 * (float64(r.CyclesDyn)/float64(r.CyclesOff) - 1)
}

// RunFig10 measures the static-partition tax on each single-threaded
// program (paper §4.3), plus the dynamic-partition ablation, fanning
// the per-benchmark measurements across up to cfg.Jobs workers.
func RunFig10(cfg Config) ([]Fig10Row, error) {
	return runGrid(cfg, fig10Cells())
}

// RenderFig10 formats the Figure 10 rows.
func RenderFig10(rows []Fig10Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 10. Impact of Hyper-Threading technology on single-threaded Java programs\n")
	fmt.Fprintf(&sb, "%-12s %12s %12s %11s %14s\n", "Benchmark", "HT-off cyc", "HT-on cyc", "slowdown", "dyn-partition")
	slower, measured := 0, 0
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(&sb, "%-12s FAILED(%s)\n", r.Benchmark, r.Failed)
			continue
		}
		measured++
		if r.CyclesOn > r.CyclesOff {
			slower++
		}
		fmt.Fprintf(&sb, "%-12s %12d %12d %10.2f%% %13.2f%%\n",
			r.Benchmark, r.CyclesOff, r.CyclesOn, r.SlowdownPct(), r.DynSlowdownPct())
	}
	fmt.Fprintf(&sb, "%d of %d programs slow down when Hyper-Threading is merely enabled\n", slower, measured)
	return sb.String()
}

// Fig12Row is an IPC measurement at one thread count. Failed is the
// failure reason when the campaign gave up on this cell.
type Fig12Row struct {
	Benchmark string
	Threads   int
	IPC       float64
	L1DPerK   float64
	Failed    string `json:",omitempty"`
}

// RunFig12 sweeps thread counts on the HT processor (paper §4.4),
// fanning the sweep grid across up to cfg.Jobs workers.
func RunFig12(cfg Config, threadCounts []int) ([]Fig12Row, error) {
	return runGrid(cfg, fig12Cells(threadCounts))
}

// RenderFig12 formats the thread sweep.
func RenderFig12(rows []Fig12Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 12. IPC vs. the number of threads (HT on)\n")
	fmt.Fprintf(&sb, "%-12s %8s %8s %10s\n", "Benchmark", "threads", "IPC", "L1D/1k")
	for _, r := range rows {
		if r.Failed != "" {
			fmt.Fprintf(&sb, "%-12s %8d FAILED(%s)\n", r.Benchmark, r.Threads, r.Failed)
			continue
		}
		fmt.Fprintf(&sb, "%-12s %8d %8.3f %10.2f\n", r.Benchmark, r.Threads, r.IPC, r.L1DPerK)
	}
	return sb.String()
}

// SweepCell is one cell of a counter sweep (cmd/sweep): a benchmark at
// one thread count with its full counter file. Failed carries the
// failure reason when the campaign gave up on the cell.
type SweepCell struct {
	Benchmark string
	Threads   int
	Counters  counters.File
	Failed    string `json:",omitempty"`
}

// RunSweep runs each target benchmark at each thread count on the HT
// processor and collects full counter files, under cfg's campaign
// policy (deadline, budget, retries, journal, fault injection).
func RunSweep(cfg Config, targets []*bench.Benchmark, threadCounts []int) ([]SweepCell, error) {
	return runGrid(cfg, sweepCells(targets, threadCounts))
}

// GeometryCell is one cell of a machine-geometry sweep (cmd/sweep
// -geos): a benchmark run on one Cores×ContextsPerCore machine shape
// with its full counter file. Threads is how many software threads the
// run seated (the machine's total context count for multithreaded
// benchmarks, 1 for single-threaded ones). Failed carries the failure
// reason when the campaign gave up on the cell.
type GeometryCell struct {
	Benchmark string
	Geometry  core.Geometry
	Threads   int
	Counters  counters.File
	Failed    string `json:",omitempty"`
}

// RunGeometrySweep runs each target benchmark on each machine geometry —
// the paper's HT processor ({1,2}) against wider SMT ({1,4}), CMP
// ({2,1}, {2,2}) and beyond — under cfg's campaign policy. Multithreaded benchmarks get one software
// thread per hardware context so every seat is filled; single-threaded
// ones run solo on context 0, measuring the partitioning tax of each
// shape.
func RunGeometrySweep(cfg Config, targets []*bench.Benchmark, geos []core.Geometry) ([]GeometryCell, error) {
	return runGrid(cfg, geometryCells(targets, geos))
}
