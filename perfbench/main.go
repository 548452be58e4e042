// Command perfbench is javasmt's end-to-end benchmark. Each run executes
// one workload's campaign through the public APIs — harness cell specs
// on the sched executor with the resilience policy and a journal on, or
// a pairings job on an in-process javasmtd server over loopback HTTP —
// checks every cell against a pinned counter digest, and prints one JSON
// result line. An untraced run (-trace 0) reports the end-to-end
// metrics; a separate traced run (-trace 1) times the benchmark's own
// calls into each layer and reports per-layer metrics. README.md
// describes the workloads and how to read the numbers.
//
//	go run . -workload paper-1x2-full -seed 1 -seconds 20 -trace 0
//	go run . -pin > pins.go
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/format"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"javasmt/internal/bench"
	"javasmt/internal/counters"
	"javasmt/internal/harness"
	"javasmt/internal/sampling"
	"javasmt/internal/sched"
)

// minSetups is the least number of setup_s samples a run takes; runs
// with fewer repetitions set up extra campaigns just to time them.
const minSetups = 101

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// run parses the flags, runs one workload (or the pinning pass) and
// prints the result; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: selects the campaign's cells and their order")
	secs := fs.Float64("seconds", 20, "measurement time: repetitions continue while the next one fits")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced per-layer measurement")
	cells := fs.Int("cells", 0, "keep only the campaign's first n cells (service-pairings: programs); 0 keeps all")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench-data"), "scratch root for journals and server data; each run's subdirectory is removed at exit")
	pinMode := fs.Bool("pin", false, "simulate every pool cell, print pins.go and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	if *pinMode {
		if err := pinAll(stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: pin: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	b := &bencher{w: w, camp: w.pick(rand.New(rand.NewSource(*seed))).truncate(*cells), workers: min(w.workers, workers()), dir: scratch}
	var labels []string
	for _, c := range b.camp.cells {
		labels = append(labels, c.label(w.kind, w.geo))
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %s\n", w.name, *seed, strings.Join(labels, "; "))

	var res *result
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced(*secs)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	host, _ := json.Marshal(hostContext())
	fmt.Fprintf(stderr, "perfbench: host %s\n", host)
	fmt.Fprintf(stdout, "host %s\n", host)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// workers is the most workers a campaign (or the pinning pass) uses:
// one per CPU, at most two.
func workers() int { return min(2, runtime.NumCPU()) }

// hostContext identifies the box a result was measured on, so numbers
// from different machines are never compared.
func hostContext() map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{"go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "commit": commit}
}

// newResult totals the operations of every repetition and reports each
// failure on stderr.
func newResult(reps ...*repResult) *result {
	r := &result{Metrics: map[string]metric{}}
	for _, rr := range reps {
		r.Attempted += rr.attempted
		r.Failed += rr.failed
		for _, e := range rr.errs {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED %s\n", e)
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// untraced repeats the campaign while the next repetition fits in secs
// and reports the end-to-end metrics: medians over the repetitions. The
// service workload first runs one unmeasured repetition, so the
// measured ones see the warm solo-time cache a long-running daemon has
// after its first job; executor campaigns have no process-wide cache.
func (b *bencher) untraced(secs float64) (*result, error) {
	warm := &repResult{}
	if b.w.kind == kindService {
		var err error
		if warm, err = b.rep(b.w.kind); err != nil {
			return nil, err
		}
	}
	reps := []*repResult{}
	start := time.Now()
	for {
		t := time.Now()
		rr, err := b.rep(b.w.kind)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rr)
		if time.Since(start)+time.Since(t) > secondsDur(secs) {
			break
		}
	}
	setups := each(reps, func(rr *repResult) float64 { return rr.setup.Seconds() })
	for len(setups) < minSetups {
		d, err := b.setupOnly()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	walls := each(reps, func(rr *repResult) float64 { return rr.wall.Seconds() })
	fmt.Fprintf(os.Stderr, "perfbench: %d repetitions, wall_s %.3f\n", len(reps), walls)
	res := newResult(append(reps, warm)...)
	res.set("wall_s", median(walls), "s")
	res.set("uops_per_s", median(each(reps, func(rr *repResult) float64 { return float64(rr.uops) / rr.wall.Seconds() })), "1/s")
	res.set("setup_s", median(setups), "s")
	res.set("max_rss_mb", peakRSSMB(), "MB")
	res.set("first_result_s", median(each(reps, func(rr *repResult) float64 { return rr.first.Seconds() })), "s")
	return res, nil
}

// traced runs an unmeasured warm-up repetition, then one untraced and
// one traced repetition, times every cell bare, times each layer alone
// on the campaign's programs, and reports the per-layer metrics.
func (b *bencher) traced() (*result, error) {
	warm, err := b.rep(b.w.kind)
	if err != nil {
		return nil, err
	}
	base, err := b.rep(b.w.kind)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr, err := b.rep(b.w.kind)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	reps := []*repResult{warm, base, tr}

	// Per-cell busy time inside CellSpec.Run. The daemon's dispatcher
	// is internal to the service, so the service workload's cells are
	// timed through the executor path the CLIs use.
	ex := tr
	if b.w.kind == kindService {
		if ex, err = b.rep(kindSweep); err != nil {
			return nil, err
		}
		reps = append(reps, ex)
	}
	if len(ex.cells) == 0 || len(tr.cells) == 0 {
		newResult(reps...)
		return nil, fmt.Errorf("no cell completed")
	}
	bare, bareRep, err := b.bare(ex.cells)
	if err != nil {
		return nil, err
	}
	ls, err := b.layers()
	if err != nil {
		return nil, err
	}
	records, err := b.recordTimes(ex.cells)
	if err != nil {
		return nil, err
	}

	res := newResult(append(reps, bareRep)...)
	set := res.set
	fillRate := float64(ls.fillUops) / ls.fill.Seconds()
	replayRate := float64(ls.replayUops) / ls.replay.Seconds()
	warmRate := float64(ls.replayUops) / ls.warm.Seconds()
	ffRate := float64(ls.replayUops) / ls.ff.Seconds()
	set("jvm.fill_uops_per_s", fillRate, "1/s")
	set("jvm.fill_s", ls.fill.Seconds(), "s")
	set("jvm.build_s", ls.build.Seconds(), "s")
	set("jvm.gc_count", float64(ls.gcs), "count")
	set("core.replay_uops_per_s", replayRate, "1/s")
	set("core.replay_s", ls.replay.Seconds(), "s")
	set("core.functional_warm_uops_per_s", warmRate, "1/s")
	set("core.functional_ff_uops_per_s", ffRate, "1/s")
	set("core.new_s", median(ls.newTimes), "s")
	set("core.reset_s", median(ls.resetTimes), "s")

	sum := func(name string) float64 {
		var n uint64
		for _, c := range tr.cells {
			n += c.ctr[name]
		}
		return float64(n)
	}
	perK := func(name string) float64 { return 1000 * sum(name) / sum("uops_retired") }
	set("core.cycles", sum("cycles"), "count")
	set("core.uops", sum("uops_retired"), "count")
	set("core.halted_cycles", sum("cycles_halted"), "count")
	set("core.fence_stall_cycles", sum("fence_stall_cycles"), "count")
	set("cache.tc_per_k", perK("tc_misses"), "1/kuop")
	set("cache.l1d_per_k", perK("l1d_misses"), "1/kuop")
	set("cache.l2_per_k", perK("l2_misses"), "1/kuop")
	set("simos.context_switches", sum("context_switches"), "count")
	set("simos.migrations", sum("thread_migrations"), "count")

	var detail, detailW, windows, relErr, ipcErr float64
	var busy, predicted float64
	var overhead []float64
	for _, c := range ex.cells {
		uops := float64(c.ctr["uops_retired"])
		br := bare[c.label]
		busy += c.busy.Seconds()
		overhead = append(overhead, (c.busy - br.d).Seconds())
		predicted += uops / fillRate
		if est := br.est; est != nil {
			predicted += float64(est.DetailedUops)/replayRate + float64(est.WarmUops)/warmRate + float64(est.FFUops)/ffRate
			detail += est.DetailPct * uops
			detailW += uops
			windows += float64(est.Windows)
			relErr += 100 * est.IPCRelErr / float64(len(ex.cells))
			ref := pins["full/"+c.label].ipc
			ipcErr += 100 * math.Abs(observe(c.ctr).ipc-ref) / ref / float64(len(ex.cells))
		} else {
			predicted += uops / replayRate
		}
	}
	if detailW > 0 {
		detail /= detailW
	}
	set("sampling.detail_pct", detail, "%")
	set("sampling.windows", windows, "count")
	set("sampling.relstderr_pct", relErr, "%")
	set("sampled_ipc_err_pct", ipcErr, "%")

	cellTimes := each(ex.cells, func(c cellOut) float64 { return c.busy.Seconds() })
	sort.Float64s(cellTimes)
	set("harness.cell_p50_s", median(cellTimes), "s")
	set("harness.cell_max_s", cellTimes[len(cellTimes)-1], "s")
	set("harness.wrap_overhead_s", median(overhead), "s")
	set("resilience.record_p50_s", median(records), "s")
	set("resilience.journal_bytes", float64(ex.journalBytes), "B")
	set("resilience.resume_s", ex.resubmit.Seconds(), "s")
	capacity := tr.wall.Seconds() * float64(b.workers)
	set("sched.busy_frac", busy/capacity, "ratio")
	set("sched.idle_s", capacity-busy, "s")

	var ledger int64
	var resubmit time.Duration
	if b.w.kind == kindService {
		ledger, resubmit = tr.journalBytes, tr.resubmit
	}
	set("service.resubmit_s", resubmit.Seconds(), "s")
	set("service.submit_s", tr.submit.Seconds(), "s")
	set("service.stream_s", tr.stream.Seconds(), "s")
	set("service.cache_hits", float64(tr.hits), "count")
	set("service.cache_misses", float64(tr.misses), "count")
	set("service.ledger_bytes", float64(ledger), "B")

	set("go.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), "MB")
	set("go.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	set("go.gc_pause_s", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e9, "s")
	set("attrib.unexplained_pct", 100*(busy-predicted)/busy, "%")
	set("trace_overhead_pct", 100*(tr.wall.Seconds()-base.wall.Seconds())/base.wall.Seconds(), "%")
	return res, nil
}

// bareRun is one cell run through the bare harness entry point.
type bareRun struct {
	d   time.Duration
	est *sampling.Estimate
}

// bare runs every cell once through the bare harness entry point
// (harness.Run, RunMix or RunPair: no journal, no resilience policy)
// with the campaign's worker count, and checks each result against its
// pin. The returned repetition carries the checks as operations.
func (b *bencher) bare(cells []cellOut) (map[string]bareRun, *repResult, error) {
	byLabel := map[string]cell{}
	for _, c := range b.camp.cells {
		byLabel[c.label(b.w.kind, b.w.geo)] = c
	}
	type out struct {
		run bareRun
		ctr counters.File
	}
	outs, err := sched.Map(len(cells), b.workers, func(i int) (out, error) {
		c := byLabel[cells[i].label]
		t := time.Now()
		var o out
		switch b.w.kind {
		case kindSweep:
			bn, _ := bench.ByName(c.bench)
			r, err := harness.Run(bn, harness.Options{HT: true, Threads: c.threads, Scale: b.w.scale, Verify: true, Plan: b.w.plan})
			if err != nil {
				return o, err
			}
			o.ctr, o.run.est = r.Counters, r.Sampling
		case kindPolicy:
			r, err := harness.RunMix(harness.ServerMix(c.mix), harness.Options{Geometry: b.w.geo, Scale: b.w.scale,
				Verify: true, Plan: b.w.plan, SchedPolicy: c.policy})
			if err != nil {
				return o, err
			}
			o.ctr, o.run.est = r.Counters, r.Sampling
		case kindService:
			x, _ := bench.ByName(c.a)
			y, _ := bench.ByName(c.b)
			r, err := harness.RunPair(x, y, harness.PairOptions{Scale: b.w.scale, Runs: pairRuns,
				MaxCycles: harness.DefaultConfig().MaxCycles, Plan: b.w.plan})
			if err != nil {
				return o, err
			}
			o.ctr, o.run.est = r.Counters, r.Sampling
		}
		o.run.d = time.Since(t)
		return o, nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("bare cells: %w", err)
	}
	runs := map[string]bareRun{}
	rr := &repResult{}
	for i, o := range outs {
		runs[cells[i].label] = o.run
		rr.attempted++
		data, err := json.Marshal(o.ctr)
		var ctr map[string]uint64
		if err == nil {
			err = json.Unmarshal(data, &ctr)
		}
		if err == nil {
			err = b.w.checkCell(cells[i].label, ctr)
		}
		if err != nil {
			rr.fail(fmt.Errorf("bare run: %w", err))
		}
	}
	return runs, rr, nil
}

// pinAll simulates every cell of every workload's pool and prints the
// pins.go source.
func pinAll(stdout, stderr io.Writer) error {
	var buf bytes.Buffer
	buf.WriteString(`// Code generated by "go run . -pin"; DO NOT EDIT.

package main

// pins holds the pinned outcome of every cell a workload seed can
// select, keyed "<mode>/<cell label>": the FNV-64a digest of the cell's
// nonzero counters, its retired µops and its IPC. A change that leaves
// the simulated machine alone reproduces every entry exactly; after a
// deliberate model change, regenerate with "go run . -pin > pins.go"
// and say so.
var pins = map[string]pin{
`)
	for _, w := range workloads() {
		cfg := harness.Config{Scale: w.scale, Jobs: workers(), Runs: pairRuns,
			MaxCycles: harness.DefaultConfig().MaxCycles, Plan: w.plan}
		var specs []harness.CellSpec
		for _, c := range w.pool {
			s, err := w.specFor(c)
			if err != nil {
				return err
			}
			specs = append(specs, s)
		}
		outs, err := sched.Map(len(specs), workers(), func(i int) (harness.CellOutcome, error) {
			t := time.Now()
			out, err := specs[i].Run(cfg)
			fmt.Fprintf(stderr, "pinned %s/%s in %.2fs\n", w.mode(), specs[i].Label, time.Since(t).Seconds())
			return out, err
		})
		if err != nil {
			return err
		}
		for _, out := range outs {
			if out.Fail != nil {
				return fmt.Errorf("cell %s failed: %s", out.Label, out.Fail.Reason())
			}
			ctr, err := cellCounters(out.Payload)
			if err != nil {
				return err
			}
			p := observe(ctr)
			fmt.Fprintf(&buf, "%q: {digest: %#016x, uops: %d, ipc: %v},\n", w.mode()+"/"+out.Label, p.digest, p.uops, p.ipc)
		}
	}
	buf.WriteString("}\n")
	src, err := format.Source(buf.Bytes())
	if err != nil {
		return err
	}
	_, err = stdout.Write(src)
	return err
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func each[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
