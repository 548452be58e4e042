package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"javasmt/internal/bench"
	"javasmt/internal/harness"
	"javasmt/internal/resilience"
	"javasmt/internal/sched"
	"javasmt/internal/service"
)

// resubmits is how many times each repetition re-serves its finished
// campaign from stored results; resubmit_s is their median.
const resubmits = 20

// cellPolicy is the resilience policy every cell runs under: a
// wall-clock watchdog and one retry of transient faults, as a careful
// user would configure a long campaign.
var cellPolicy = resilience.CellPolicy{WallDeadline: 2 * time.Minute, Retries: 1}

// bencher runs one workload's campaign.
type bencher struct {
	w       *workload
	camp    campaign
	workers int
	dir     string // scratch root; every repetition works in a fresh subdirectory
}

// env is one set-up campaign: everything a repetition needs before its
// first cell can start.
type env struct {
	dir string
	// Executor campaigns: enumerated specs under a journaled harness
	// configuration.
	specs   []harness.CellSpec
	cfg     harness.Config
	journal *resilience.Journal
	// Service campaigns: the in-process daemon behind a loopback
	// listener, and a client limited to one connection.
	srv    *service.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
}

// cellOut is one completed, verified cell.
type cellOut struct {
	label   string
	payload []byte
	ctr     map[string]uint64
	busy    time.Duration // time inside CellSpec.Run (executor campaigns)
}

// repResult is one repetition of a campaign.
type repResult struct {
	setup, wall, first time.Duration
	resubmit           time.Duration // median over the resubmissions
	uops               uint64        // simulated µops retired, summed over cells
	cells              []cellOut
	attempted, failed  int
	errs               []string
	journalBytes       int64
	// Service campaigns only.
	submit, stream time.Duration
	hits, misses   int
}

func (rr *repResult) fail(err error) {
	rr.failed++
	rr.errs = append(rr.errs, err.Error())
}

// meta is the journal identity of the benchmark's executor campaigns.
func (b *bencher) meta() resilience.Meta {
	return resilience.Meta{Tool: "perfbench", Config: b.w.name}
}

// setup builds the campaign's programs, opens its journal or starts its
// server, and enumerates its cells; the duration is setup_s. k selects
// the execution path.
func (b *bencher) setup(dir string, k kind) (*env, time.Duration, error) {
	t0 := time.Now()
	if _, err := b.buildPrograms(); err != nil {
		return nil, 0, err
	}
	e := &env{dir: dir}
	if k == kindService {
		if err := b.startServer(e); err != nil {
			b.teardown(e)
			return nil, 0, err
		}
		return e, time.Since(t0), nil
	}
	j, err := resilience.Open(dir, b.meta(), false)
	if err != nil {
		return nil, 0, err
	}
	e.journal = j
	e.cfg = harness.Config{
		Scale: b.w.scale, Jobs: b.workers, Runs: pairRuns, MaxCycles: harness.DefaultConfig().MaxCycles,
		Policy: cellPolicy, Journal: j, Plan: b.w.plan,
	}
	for _, c := range b.camp.cells {
		spec, err := b.w.specFor(c)
		if err != nil {
			j.Close()
			return nil, 0, err
		}
		e.specs = append(e.specs, spec)
	}
	return e, time.Since(t0), nil
}

// startServer starts an in-process javasmtd on a loopback port and
// waits until it answers /healthz.
func (b *bencher) startServer(e *env) error {
	srv, err := service.New(service.Config{DataDir: e.dir, Workers: b.workers})
	if err != nil {
		return err
	}
	e.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	e.hs = &http.Server{Handler: srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	e.base = "http://" + ln.Addr().String()
	_, _, err = e.health()
	return err
}

// teardown releases what setup acquired: the journal, or the server
// with its listener goroutine and workers.
func (b *bencher) teardown(e *env) {
	e.journal.Close()
	if e.hs != nil {
		e.hs.Close()
		<-e.served
		e.client.CloseIdleConnections()
	}
	if e.srv != nil {
		e.srv.Drain()
	}
}

// rep runs one repetition in a fresh directory: setup, the campaign,
// then its resubmissions. k selects the execution path (the service
// workload's cells can also run through the executor).
func (b *bencher) rep(k kind) (*repResult, error) {
	dir, err := os.MkdirTemp(b.dir, "rep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e, setup, err := b.setup(dir, k)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer b.teardown(e)
	rr := &repResult{setup: setup}
	if k == kindService {
		err = b.runService(e, rr)
	} else {
		err = b.runExecutor(e, rr)
	}
	return rr, err
}

// setupOnly sets a campaign up and tears it down again, for extra
// setup_s samples.
func (b *bencher) setupOnly() (time.Duration, error) {
	dir, err := os.MkdirTemp(b.dir, "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	e, d, err := b.setup(dir, b.w.kind)
	if err != nil {
		return 0, err
	}
	b.teardown(e)
	return d, nil
}

// collect verifies one cell outcome against its pin and records it.
func (b *bencher) collect(rr *repResult, label string, payload []byte, failure string, busy time.Duration) {
	rr.attempted++
	if failure != "" {
		rr.fail(fmt.Errorf("cell %s failed: %s", label, failure))
		return
	}
	ctr, err := cellCounters(payload)
	if err == nil {
		err = b.w.checkCell(label, ctr)
	}
	if err != nil {
		rr.fail(err)
		return
	}
	rr.uops += ctr["uops_retired"]
	rr.cells = append(rr.cells, cellOut{label: label, payload: payload, ctr: ctr, busy: busy})
}

// runExecutor runs the campaign the way the CLI drivers do — cell specs
// across sched.MapObserved under the journal — then re-serves it from
// the journal `resubmits` times, as `-resume` of a finished campaign
// does.
func (b *bencher) runExecutor(e *env, rr *repResult) error {
	n := len(e.specs)
	label := func(i int) string { return e.specs[i].Label }
	busy := make([]time.Duration, n)
	var (
		mu    sync.Mutex
		first time.Time
	)
	start := time.Now()
	outs, err := sched.MapObserved(n, b.workers, nil, label, func(i int) (harness.CellOutcome, error) {
		t := time.Now()
		out, err := e.specs[i].Run(e.cfg)
		done := time.Now()
		busy[i] = done.Sub(t)
		mu.Lock()
		if first.IsZero() || done.Before(first) {
			first = done
		}
		mu.Unlock()
		return out, err
	})
	rr.wall = time.Since(start)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	rr.first = first.Sub(start)
	for i, out := range outs {
		failure := ""
		if out.Fail != nil {
			failure = out.Fail.Reason()
		}
		b.collect(rr, out.Label, out.Payload, failure, busy[i])
	}
	err = e.journal.Close()
	e.journal = nil
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if fi, err := os.Stat(filepath.Join(e.dir, "journal.jsonl")); err == nil {
		rr.journalBytes = fi.Size()
	}

	var times []float64
	for k := 0; k < resubmits; k++ {
		t := time.Now()
		j, err := resilience.Open(e.dir, b.meta(), true)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		cfg := e.cfg
		cfg.Journal = j
		again, err := sched.MapObserved(n, b.workers, nil, label, func(i int) (harness.CellOutcome, error) {
			return e.specs[i].Run(cfg)
		})
		j.Close()
		times = append(times, time.Since(t).Seconds())
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		for i, out := range again {
			rr.attempted++
			if out.Fail != nil || !bytes.Equal(out.Payload, outs[i].Payload) {
				rr.fail(fmt.Errorf("cell %s: resumed result differs from the simulated one", out.Label))
			}
		}
	}
	rr.resubmit = secondsDur(median(times))
	return nil
}

// jobSpec is the service workload's campaign as a daemon job.
func (b *bencher) jobSpec() service.JobSpec {
	return service.JobSpec{Kind: "pairings", Benchmarks: b.camp.benches, Scale: b.w.scale.String(),
		Runs: pairRuns, CellDeadline: cellPolicy.WallDeadline.String(), Retries: cellPolicy.Retries}
}

// runService submits the campaign to the daemon, streams its results,
// then resubmits the identical spec `resubmits` times; every
// resubmission must be served entirely from the digest cache with
// byte-identical payloads.
func (b *bencher) runService(e *env, rr *repResult) error {
	spec := b.jobSpec()
	start := time.Now()
	id, err := e.submit(spec)
	if err != nil {
		return err
	}
	rr.submit = time.Since(start)
	results, first, err := e.stream(id)
	if err != nil {
		return err
	}
	rr.wall = time.Since(start)
	rr.stream = rr.wall - rr.submit
	rr.first = first.Sub(start)
	fresh := map[string][]byte{}
	for _, res := range results {
		failure := ""
		if res.Status != resilience.StatusOK {
			failure = res.Status + ": " + res.Reason
		}
		b.collect(rr, res.Cell, res.Payload, failure, 0)
		fresh[res.Cell] = res.Payload
	}
	if len(results) != len(b.camp.cells) {
		rr.fail(fmt.Errorf("job %s streamed %d cells, want %d", id, len(results), len(b.camp.cells)))
	}

	var times []float64
	for k := 0; k < resubmits; k++ {
		t := time.Now()
		id, err := e.submit(spec)
		if err != nil {
			return err
		}
		again, _, err := e.stream(id)
		if err != nil {
			return err
		}
		times = append(times, time.Since(t).Seconds())
		for _, res := range again {
			rr.attempted++
			if !res.Cached || !bytes.Equal(res.Payload, fresh[res.Cell]) {
				rr.fail(fmt.Errorf("resubmitted cell %s was not served byte-identically from the cache", res.Cell))
			}
		}
		if len(again) != len(results) {
			rr.fail(fmt.Errorf("resubmitted job %s streamed %d cells, want %d", id, len(again), len(results)))
		}
	}
	rr.resubmit = secondsDur(median(times))
	if rr.hits, rr.misses, err = e.health(); err != nil {
		return err
	}
	rr.journalBytes = ledgerBytes(e.dir)
	return nil
}

// submit POSTs a job spec and returns the admitted job's ID.
func (e *env) submit(spec service.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := e.client.Post(e.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("submit: decode status: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, st.Error)
	}
	return st.ID, nil
}

// stream reads a job's NDJSON results to the end of the stream (the job
// going terminal) and returns them with the arrival time of the first.
func (e *env) stream(id string) ([]service.CellResult, time.Time, error) {
	var first time.Time
	resp, err := e.client.Get(e.base + "/jobs/" + id + "/results")
	if err != nil {
		return nil, first, fmt.Errorf("results: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, first, fmt.Errorf("results: HTTP %d", resp.StatusCode)
	}
	var out []service.CellResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if first.IsZero() {
			first = time.Now()
		}
		var res service.CellResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, first, fmt.Errorf("results: %w", err)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, first, fmt.Errorf("results: %w", err)
	}
	return out, first, nil
}

// health queries /healthz and returns the digest cache's hit and miss
// counts.
func (e *env) health() (hits, misses int, err error) {
	resp, err := e.client.Get(e.base + "/healthz")
	if err != nil {
		return 0, 0, fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string         `json:"status"`
		Cache  map[string]int `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.Status != "ok" {
		return 0, 0, fmt.Errorf("healthz: status %q: %v", h.Status, err)
	}
	return h.Cache["hits"], h.Cache["misses"], nil
}

// ledgerBytes sums the sizes of every job ledger under a daemon data
// directory.
func ledgerBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && d.Name() == "journal.jsonl" {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// part is one program a campaign runs: a benchmark at a thread count,
// linked at a code base, with its heap in lane slot.
type part struct {
	b       *bench.Benchmark
	threads int
	slot    int
	base    uint64
}

// groups returns the campaign's programs grouped by the machine they
// share: one group per sweep cell, the whole server mix for a policy
// cell, one program per pairing benchmark (as its solo runs build it).
func (b *bencher) groups() ([][]part, error) {
	var gs [][]part
	seen := map[string]bool{}
	add := func(key string, g []part) {
		if !seen[key] {
			seen[key] = true
			gs = append(gs, g)
		}
	}
	lookup := func(name string) (*bench.Benchmark, error) {
		bn, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		return bn, nil
	}
	for _, c := range b.camp.cells {
		switch b.w.kind {
		case kindSweep:
			bn, err := lookup(c.bench)
			if err != nil {
				return nil, err
			}
			add(c.label(b.w.kind, b.w.geo), []part{{b: bn, threads: c.threads}})
		case kindPolicy:
			var g []part
			for slot, p := range harness.ServerMix(c.mix).Parts {
				bn, err := lookup(p.Benchmark)
				if err != nil {
					return nil, err
				}
				threads := p.Threads
				if !bn.Multithreaded {
					threads = 1
				}
				g = append(g, part{b: bn, threads: threads, slot: slot, base: 1<<40 | uint64(slot)<<26})
			}
			add(fmt.Sprint("mix ", c.mix), g)
		case kindService:
			for _, name := range []string{c.a, c.b} {
				bn, err := lookup(name)
				if err != nil {
					return nil, err
				}
				add(name, []part{{b: bn, threads: 1, base: 1 << 26}})
			}
		}
	}
	return gs, nil
}

// buildPrograms links every program of the campaign once and returns
// the time it took (jvm.build_s).
func (b *bencher) buildPrograms() (time.Duration, error) {
	gs, err := b.groups()
	if err != nil {
		return 0, err
	}
	t := time.Now()
	for _, g := range gs {
		build(g, b.w.scale)
	}
	return time.Since(t), nil
}
