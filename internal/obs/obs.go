// Package obs is the observability layer: the simulator-side analogue of
// attaching Brink & Abyss to a *running* machine instead of reading the
// counters once at exit. The paper's whole method is watching P4
// performance counters over time with HT on and off; this package gives
// every experiment the same view of the simulated machine — plus a view
// the paper could not have: the experiment engine itself.
//
// A Sink is the per-experiment hub. It collects two kinds of output:
//
//   - Metrics: interval-sampled time-series of the paper's quantities
//     (IPC, trace-cache/L1D/L2 misses per 1k µops, branch MPKI) together
//     with instantaneous per-context pipeline state (ROB/LSQ occupancy,
//     trace-cache lines and ITLB entries held per logical processor),
//     captured at a configurable cycle stride. One RunSeries per observed
//     simulation; exported as JSON that goldens can pin.
//
//   - Trace: Chrome trace-event JSON (loadable in chrome://tracing or
//     Perfetto) with one track per logical processor showing which
//     software thread occupied it over cycles, counter tracks fed from
//     the metric samples, and experiment-engine tracks showing per-cell
//     wall time and sched worker occupancy.
//
// Everything is nil-safe: a nil *Sink (observability off) makes every
// hook a no-op, and the hot-path cost in the core is a single integer
// compare per cycle (see core.AttachObs). Sinks are safe for concurrent
// use by parallel experiment workers; each RunObs, however, belongs to
// exactly one simulation goroutine.
//
// Two timebases coexist in a trace file: simulation tracks stamp events
// in cycles (reported as microseconds, 1 cycle = 1 µs), while engine
// tracks stamp wall-clock microseconds since the Sink was created. Each
// pid is self-consistent; compare durations within a track, not across
// the simulation/engine boundary.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultStride is the sample interval, in cycles, used when a Config
// leaves Stride zero. At the tiny scale a solo run lasts a few million
// cycles, so the default yields a few dozen samples per run.
const DefaultStride = 100_000

// Config selects which outputs a Sink collects.
type Config struct {
	// Metrics enables time-series sampling.
	Metrics bool
	// Trace enables Chrome trace-event collection.
	Trace bool
	// Stride is the sample interval in cycles (0 = DefaultStride).
	Stride uint64
}

// Sink collects observability output for one experiment. The zero value
// is not useful; build one with New. All methods are safe on a nil
// receiver (everything becomes a no-op), which is how disabled
// observability is represented throughout the repository.
type Sink struct {
	cfg Config
	t0  time.Time

	mu       sync.Mutex
	runs     []*RunSeries
	events   []Event
	failures []CellFailure
	nextPid  int
	workers  map[int]bool // engine worker tids already named
}

// New builds a Sink from cfg. A sink with neither output enabled is
// legal (Run returns nil observers) but pointless; callers normally pass
// nil instead.
func New(cfg Config) *Sink {
	if cfg.Stride == 0 {
		cfg.Stride = DefaultStride
	}
	return &Sink{cfg: cfg, t0: time.Now(), nextPid: simPidBase, workers: map[int]bool{}}
}

// Trace-event pid layout: the experiment engine is pid 1; each observed
// simulation gets its own pid starting at simPidBase.
const (
	enginePid  = 1
	simPidBase = 100
)

// Enabled reports whether the sink collects anything. Nil-safe.
func (s *Sink) Enabled() bool {
	return s != nil && (s.cfg.Metrics || s.cfg.Trace)
}

// MetricsEnabled reports whether time-series sampling is on. Nil-safe.
func (s *Sink) MetricsEnabled() bool { return s != nil && s.cfg.Metrics }

// TraceEnabled reports whether trace collection is on. Nil-safe.
func (s *Sink) TraceEnabled() bool { return s != nil && s.cfg.Trace }

// Stride returns the sample interval in cycles. Nil-safe (a disabled
// sink reports the default, which no one will consult).
func (s *Sink) Stride() uint64 {
	if s == nil || s.cfg.Stride == 0 {
		return DefaultStride
	}
	return s.cfg.Stride
}

// RunFor registers one simulation of a machine with lps logical
// processors with the sink under label and returns its observer. Labels
// should be unique within a sink (the metrics export sorts by label so
// files are deterministic at any worker count). Returns nil — a
// universal no-op observer — when the sink is nil or fully disabled.
// Safe for concurrent use. The trace gets one track per logical
// processor, at least two (the legacy layout of the paper's one- and
// two-context geometries).
func (s *Sink) RunFor(label string, lps int) *RunObs {
	if !s.Enabled() {
		return nil
	}
	if lps < 2 {
		lps = 2
	}
	r := &RunObs{sink: s, trace: s.cfg.Trace, stride: s.Stride()}
	s.mu.Lock()
	r.pid = s.nextPid
	s.nextPid++
	if s.cfg.Metrics {
		r.series = &RunSeries{Label: label}
		s.runs = append(s.runs, r.series)
	}
	s.mu.Unlock()
	if s.cfg.Trace {
		s.meta(r.pid, 0, "process_name", label)
		for lp := 0; lp < lps; lp++ {
			s.meta(r.pid, lp, "thread_name", fmt.Sprintf("LP%d", lp))
		}
	}
	return r
}

// CellSpan records one experiment-engine cell (a complete simulation job)
// on the given worker's track: a span from start to end wall time. The
// worker occupancy view falls out of the per-worker tracks — gaps between
// spans are idle time. Nil-safe; a no-op unless tracing is on.
func (s *Sink) CellSpan(worker int, label string, start, end time.Time) {
	if !s.TraceEnabled() {
		return
	}
	ts := float64(start.Sub(s.t0).Microseconds())
	dur := float64(end.Sub(start).Microseconds())
	s.mu.Lock()
	if !s.workers[worker] {
		s.workers[worker] = true
		s.events = append(s.events,
			Event{Name: "process_name", Phase: "M", Pid: enginePid, Tid: worker,
				Args: map[string]any{"name": "experiment engine"}},
			Event{Name: "thread_name", Phase: "M", Pid: enginePid, Tid: worker,
				Args: map[string]any{"name": fmt.Sprintf("worker %d", worker)}})
	}
	s.events = append(s.events, Event{
		Name: label, Phase: "X", Ts: ts, Dur: dur, Pid: enginePid, Tid: worker,
	})
	s.mu.Unlock()
}

// CellFailure records one experiment cell the resilience layer gave up
// on: the campaign completed without it, and the metrics export carries
// the failure so a degraded run is distinguishable from a clean one.
type CellFailure struct {
	Cell   string `json:"cell"`
	Kind   string `json:"kind"`
	Reason string `json:"reason"`
}

// Failure records a failed experiment cell. Nil-safe and safe for
// concurrent workers; the export sorts by cell label so output is
// deterministic at any worker count.
func (s *Sink) Failure(cell, kind, reason string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.failures = append(s.failures, CellFailure{Cell: cell, Kind: kind, Reason: reason})
	s.mu.Unlock()
}

// AddSeries registers already-recorded time-series with the sink — how a
// resumed campaign re-injects the series of journaled cells so its
// metrics export is byte-identical to an uninterrupted run. Nil-safe.
func (s *Sink) AddSeries(series ...*RunSeries) {
	if s == nil || !s.cfg.Metrics {
		return
	}
	s.mu.Lock()
	s.runs = append(s.runs, series...)
	s.mu.Unlock()
}

// matchesPrefix reports whether a series label belongs to the cell named
// prefix: the label is prefix itself or extends it past a space.
func matchesPrefix(label, prefix string) bool {
	return label == prefix || strings.HasPrefix(label, prefix+" ")
}

// SeriesByPrefix returns every recorded series whose label is prefix
// itself or begins with prefix+" " — the series belonging to one
// experiment cell (a cell may record several, e.g. "fig10 db ht=off").
// Nil-safe.
func (s *Sink) SeriesByPrefix(prefix string) []*RunSeries {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*RunSeries
	for _, r := range s.runs {
		if matchesPrefix(r.Label, prefix) {
			out = append(out, r)
		}
	}
	return out
}

// DropSeriesByPrefix removes every recorded series belonging to the cell
// named prefix (same matching as SeriesByPrefix). The campaign layer
// uses it to discard the partial series of a failed or retried cell
// attempt — those stop at a wall-clock-dependent cycle, so keeping them
// would make the metrics export nondeterministic. Nil-safe.
func (s *Sink) DropSeriesByPrefix(prefix string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.runs[:0]
	for _, r := range s.runs {
		if !matchesPrefix(r.Label, prefix) {
			kept = append(kept, r)
		}
	}
	s.runs = kept
}

// Series returns the recorded time-series for label, or nil. Nil-safe.
func (s *Sink) Series(label string) *RunSeries {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		if r.Label == label {
			return r
		}
	}
	return nil
}

// metricsExport is the time-series JSON document layout. Failures is
// omitted when empty so clean runs keep their historical byte shape.
type metricsExport struct {
	Stride   uint64        `json:"stride"`
	Runs     []*RunSeries  `json:"runs"`
	Failures []CellFailure `json:"failures,omitempty"`
}

// WriteMetrics writes the sampled time-series as JSON. Runs and failures
// appear sorted by label, so the bytes are identical at any worker
// count. Nil-safe: a nil sink writes an empty document.
func (s *Sink) WriteMetrics(w io.Writer) error {
	doc := metricsExport{Stride: DefaultStride, Runs: []*RunSeries{}}
	if s != nil {
		s.mu.Lock()
		doc.Stride = s.Stride()
		doc.Runs = append(doc.Runs, s.runs...)
		doc.Failures = append(doc.Failures, s.failures...)
		s.mu.Unlock()
		sort.SliceStable(doc.Runs, func(i, j int) bool { return doc.Runs[i].Label < doc.Runs[j].Label })
		sort.SliceStable(doc.Failures, func(i, j int) bool { return doc.Failures[i].Cell < doc.Failures[j].Cell })
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// traceExport is the Chrome trace-event JSON document layout (the
// "JSON Object Format" both chrome://tracing and Perfetto load).
type traceExport struct {
	TraceEvents     []Event        `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteTrace writes the collected trace events as Chrome trace-event
// JSON. Events are ordered by (pid, tid, ts) so output is stable for a
// given event set. Nil-safe: a nil sink writes an empty, loadable trace.
func (s *Sink) WriteTrace(w io.Writer) error {
	doc := traceExport{TraceEvents: []Event{}, DisplayTimeUnit: "ms"}
	if s != nil {
		s.mu.Lock()
		doc.TraceEvents = append(doc.TraceEvents, s.events...)
		s.mu.Unlock()
		sort.SliceStable(doc.TraceEvents, func(i, j int) bool {
			a, b := doc.TraceEvents[i], doc.TraceEvents[j]
			if a.Pid != b.Pid {
				return a.Pid < b.Pid
			}
			if a.Tid != b.Tid {
				return a.Tid < b.Tid
			}
			return a.Ts < b.Ts
		})
		doc.OtherData = map[string]any{
			"source": "javasmt internal/obs",
			"note":   "simulation pids stamp cycles as µs; engine pid 1 stamps wall µs",
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteMetricsFile writes the metrics document to path.
func (s *Sink) WriteMetricsFile(path string) error {
	return s.writeFile(path, s.WriteMetrics)
}

// WriteTraceFile writes the trace document to path.
func (s *Sink) WriteTraceFile(path string) error {
	return s.writeFile(path, s.WriteTrace)
}

func (s *Sink) writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: %s: %w", path, err)
	}
	return f.Close()
}

// meta appends a metadata event naming a process or thread track.
func (s *Sink) meta(pid, tid int, kind, name string) {
	s.mu.Lock()
	s.events = append(s.events, Event{
		Name: kind, Phase: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name},
	})
	s.mu.Unlock()
}

// addEvents appends prepared events under the sink lock.
func (s *Sink) addEvents(evs ...Event) {
	s.mu.Lock()
	s.events = append(s.events, evs...)
	s.mu.Unlock()
}
