package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"javasmt/internal/counters"
)

// TestNilSinkIsNoOp pins the disabled-observability contract: every hook
// on a nil *Sink and nil *RunObs must be a safe no-op, and the writers
// must still emit valid (empty) documents.
func TestNilSinkIsNoOp(t *testing.T) {
	var s *Sink
	if s.Enabled() || s.MetricsEnabled() || s.TraceEnabled() {
		t.Fatal("nil sink reports itself enabled")
	}
	if got := s.Stride(); got != DefaultStride {
		t.Fatalf("nil sink stride = %d, want %d", got, DefaultStride)
	}
	if r := s.RunFor("x", 2); r != nil {
		t.Fatal("nil sink handed out a non-nil observer")
	}
	s.CellSpan(0, "cell", time.Now(), time.Now())
	if s.Series("x") != nil {
		t.Fatal("nil sink returned a series")
	}

	var r *RunObs
	var f counters.File
	r.Sample(100, &f, &CoreState{})
	r.ThreadSlice(0, "thread", 0, 100)
	if got := r.Stride(); got != DefaultStride {
		t.Fatalf("nil observer stride = %d, want %d", got, DefaultStride)
	}

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var m struct {
		Stride uint64      `json:"stride"`
		Runs   []RunSeries `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("nil-sink metrics are not valid JSON: %v", err)
	}
	if len(m.Runs) != 0 {
		t.Fatalf("nil-sink metrics contain %d runs", len(m.Runs))
	}

	buf.Reset()
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("nil-sink trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) != 0 {
		t.Fatalf("nil-sink trace contains %d events", len(tr.TraceEvents))
	}
}

// TestDisabledSinkRunIsNil pins that a sink with neither output enabled
// behaves like nil from Run's perspective.
func TestDisabledSinkRunIsNil(t *testing.T) {
	s := New(Config{})
	if s.Enabled() {
		t.Fatal("output-less sink reports itself enabled")
	}
	if r := s.RunFor("x", 2); r != nil {
		t.Fatal("output-less sink handed out an observer")
	}
}

// fileAt builds a cumulative counter file with the given totals.
func fileAt(cycles, uops, tc, l1d, l2, mispredicts uint64) counters.File {
	var f counters.File
	f.Set(counters.Cycles, cycles)
	f.Set(counters.Instructions, uops)
	f.Set(counters.TCMisses, tc)
	f.Set(counters.L1DMisses, l1d)
	f.Set(counters.L2Misses, l2)
	f.Set(counters.BranchMispredicts, mispredicts)
	return f
}

// TestSampleWindowedMetrics checks that IPC and the per-1k ratios are
// computed over the interval since the previous sample, not cumulatively,
// while the Cum block stays cumulative.
func TestSampleWindowedMetrics(t *testing.T) {
	s := New(Config{Metrics: true, Stride: 1000})
	r := s.RunFor("run", 2)
	if r == nil {
		t.Fatal("enabled sink returned nil observer")
	}

	f := fileAt(1000, 2000, 10, 20, 4, 2)
	r.Sample(1000, &f, &CoreState{})
	f = fileAt(2000, 3000, 10, 120, 4, 2) // +1000 uops, +100 L1D, nothing else
	r.Sample(2000, &f, &CoreState{})

	series := s.Series("run")
	if series == nil || len(series.Samples) != 2 {
		t.Fatalf("series = %+v, want 2 samples", series)
	}
	s0, s1 := series.Samples[0], series.Samples[1]
	if s0.IPC != 2.0 {
		t.Errorf("first-sample IPC = %v, want 2 (window starts at zero)", s0.IPC)
	}
	if s1.IPC != 1.0 {
		t.Errorf("second-sample IPC = %v, want 1 (1000 uops over 1000 cycles)", s1.IPC)
	}
	if s1.TCPer1K != 0 {
		t.Errorf("second-sample TC/1k = %v, want 0 (no misses in window)", s1.TCPer1K)
	}
	if s1.L1DPer1K != 100 {
		t.Errorf("second-sample L1D/1k = %v, want 100 (100 misses per 1000 uops)", s1.L1DPer1K)
	}
	if s1.Cum.L1DMisses != 120 || s1.Cum.Uops != 3000 {
		t.Errorf("cumulative block lost totals: %+v", s1.Cum)
	}
}

// TestSampleSameCycleDedupe pins that a flush landing on a stride
// boundary replaces the boundary sample instead of duplicating it.
func TestSampleSameCycleDedupe(t *testing.T) {
	s := New(Config{Metrics: true})
	r := s.RunFor("run", 2)
	f := fileAt(1000, 100, 0, 0, 0, 0)
	r.Sample(1000, &f, &CoreState{})
	f.Set(counters.Instructions, 150)
	r.Sample(1000, &f, &CoreState{ROB: []int{7, 0}})

	series := s.Series("run")
	if len(series.Samples) != 1 {
		t.Fatalf("%d samples at one cycle, want 1", len(series.Samples))
	}
	got := series.Final()
	if got.Cum.Uops != 150 || got.Core.ROB[0] != 7 {
		t.Fatalf("dedupe kept the stale sample: %+v", got)
	}
}

// TestMetricsExportSortedByLabel pins export determinism: runs appear
// sorted by label no matter the registration order (which is worker-
// scheduling dependent in parallel experiments).
func TestMetricsExportSortedByLabel(t *testing.T) {
	s := New(Config{Metrics: true})
	for _, label := range []string{"zeta", "alpha", "mid"} {
		r := s.RunFor(label, 2)
		f := fileAt(10, 10, 0, 0, 0, 0)
		r.Sample(10, &f, &CoreState{})
	}
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Stride uint64      `json:"stride"`
		Runs   []RunSeries `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	if len(doc.Runs) != len(want) {
		t.Fatalf("%d runs exported, want %d", len(doc.Runs), len(want))
	}
	for i, w := range want {
		if doc.Runs[i].Label != w {
			t.Errorf("runs[%d] = %q, want %q", i, doc.Runs[i].Label, w)
		}
	}
}

// TestTraceExport builds a small trace with every event kind and checks
// the exported document parses, carries the expected phases, and orders
// events by (pid, tid, ts).
func TestTraceExport(t *testing.T) {
	s := New(Config{Metrics: true, Trace: true})
	r := s.RunFor("compress", 2)
	r.ThreadSlice(0, "main", 100, 500)
	r.ThreadSlice(1, "gc", 200, 400)
	r.ThreadSlice(0, "empty", 300, 300) // zero-length: must be dropped
	f := fileAt(500, 1000, 5, 10, 1, 3)
	r.Sample(500, &f, &CoreState{})
	t0 := time.Now()
	s.CellSpan(2, "cell compress", t0, t0.Add(3*time.Millisecond))

	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []Event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e.Phase]++
		if e.Name == "empty" {
			t.Error("zero-length thread slice was emitted")
		}
	}
	if phases["M"] == 0 || phases["X"] == 0 || phases["C"] == 0 {
		t.Fatalf("missing event phases: %v", phases)
	}
	for i := 1; i < len(doc.TraceEvents); i++ {
		a, b := doc.TraceEvents[i-1], doc.TraceEvents[i]
		if a.Pid > b.Pid || (a.Pid == b.Pid && a.Tid > b.Tid) ||
			(a.Pid == b.Pid && a.Tid == b.Tid && a.Ts > b.Ts) {
			t.Fatalf("events out of (pid,tid,ts) order at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestRunPidsDistinct pins that every observed run gets its own trace
// process, so per-LP tracks from different simulations never merge.
func TestRunPidsDistinct(t *testing.T) {
	s := New(Config{Trace: true})
	r1, r2 := s.RunFor("a", 2), s.RunFor("b", 2)
	if r1.pid == r2.pid {
		t.Fatalf("two runs share pid %d", r1.pid)
	}
	if r1.pid == enginePid || r2.pid == enginePid {
		t.Fatal("simulation run claimed the engine pid")
	}
}

// TestFailuresExported pins the degraded-campaign contract: recorded
// cell failures appear in the metrics export sorted by cell, and a
// failure-free export omits the field entirely (so historical goldens
// keep their bytes).
func TestFailuresExported(t *testing.T) {
	s := New(Config{Metrics: true})
	s.Failure("pair z+a", "panic", "panic: boom")
	s.Failure("pair a+b", "timeout", "timeout: wall deadline 5s exceeded")
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Failures []CellFailure `json:"failures"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Failures) != 2 || doc.Failures[0].Cell != "pair a+b" || doc.Failures[1].Cell != "pair z+a" {
		t.Fatalf("failures = %+v, want two sorted by cell", doc.Failures)
	}
	if doc.Failures[0].Kind != "timeout" {
		t.Fatalf("failure kind = %q", doc.Failures[0].Kind)
	}

	clean := New(Config{Metrics: true})
	buf.Reset()
	if err := clean.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("failures")) {
		t.Fatal("clean export mentions failures; omitempty broken")
	}

	var nilSink *Sink
	nilSink.Failure("c", "panic", "r") // must not panic
}

// TestAddSeriesAndSeriesByPrefix pins the resume path: series re-added
// from a journal export exactly like freshly recorded ones, and
// SeriesByPrefix groups a cell's series without matching longer labels.
func TestAddSeriesAndSeriesByPrefix(t *testing.T) {
	s := New(Config{Metrics: true})
	s.AddSeries(
		&RunSeries{Label: "fig10 db ht=off"},
		&RunSeries{Label: "fig10 db ht=on"},
		&RunSeries{Label: "fig10 dbx ht=off"},
		&RunSeries{Label: "pair a+b"},
	)
	got := s.SeriesByPrefix("fig10 db")
	if len(got) != 2 {
		t.Fatalf("prefix matched %d series, want 2 (no label-boundary bleed)", len(got))
	}
	if got := s.SeriesByPrefix("pair a+b"); len(got) != 1 || got[0].Label != "pair a+b" {
		t.Fatalf("exact-label prefix = %+v", got)
	}
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []RunSeries `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 4 {
		t.Fatalf("export holds %d runs, want 4", len(doc.Runs))
	}

	var nilSink *Sink
	nilSink.AddSeries(&RunSeries{Label: "x"}) // must not panic
	if nilSink.SeriesByPrefix("x") != nil {
		t.Fatal("nil sink returned series")
	}
}
