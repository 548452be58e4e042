// Campaign layer: every experiment cell of every driver runs through
// runCell, which composes the resilience pieces around the simulation —
// panic recovery, the wall-clock watchdog, cycle budgets, retries
// (resilience.CellPolicy), checkpoint/resume (resilience.Journal),
// always-on counter-conservation validation of completed results, and
// the deterministic fault hooks (faultinject, `faults` builds only).
//
// A failed cell becomes a Failure carried in the driver's result instead
// of aborting the campaign; only journal I/O errors (the campaign's
// memory is broken) and scheduler-level errors still abort.

package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"javasmt/internal/bench"
	"javasmt/internal/counters"
	"javasmt/internal/faultinject"
	"javasmt/internal/obs"
	"javasmt/internal/resilience"
)

// Failure is one experiment cell the campaign gave up on. Drivers carry
// failures in their results; renderers print them as FAILED(reason)
// entries so a degraded report is complete and self-describing.
type Failure struct {
	// Cell is the cell label ("pair jack+jess", "compress t=2 ht=true").
	Cell string
	// Kind is the resilience failure kind ("panic", "timeout", ...).
	Kind string
	// Reason is the compact one-line reason.
	Reason string
}

func failureOf(ce *resilience.CellError) Failure {
	return Failure{Cell: ce.Cell, Kind: string(ce.Kind), Reason: ce.Reason()}
}

// renderFailures formats the FAILED-cells trailer appended to figures
// when a campaign degraded; empty (no trailer at all) on clean runs, so
// failure-free output is byte-identical to pre-resilience reports.
func renderFailures(fails []Failure) string {
	if len(fails) == 0 {
		return ""
	}
	sorted := append([]Failure(nil), fails...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Cell < sorted[j].Cell })
	var sb strings.Builder
	fmt.Fprintf(&sb, "FAILED cells (%d):\n", len(sorted))
	for _, f := range sorted {
		fmt.Fprintf(&sb, "  %s: %s\n", f.Cell, f.Reason)
	}
	return sb.String()
}

// outcome is one cell's result: exactly one of v (completed) or fail is
// meaningful. payload carries the completed cell's journal-payload
// bytes (the cellRecord JSON), so the service layer can ledger, cache
// and stream results without re-marshaling — and therefore without any
// chance of drifting from what a single-process campaign journals.
type outcome[T any] struct {
	v       T
	payload json.RawMessage
	fail    *resilience.CellError
}

// cellRecord is the journal payload of a completed cell: its typed
// result plus any metrics series it recorded, so a resumed campaign
// reproduces the metrics export byte-for-byte without re-simulating.
type cellRecord[T any] struct {
	V      T                `json:"v"`
	Series []*obs.RunSeries `json:"series,omitempty"`
}

// describe renders the campaign configuration a CellError reports, so a
// failure is reproducible from its message alone.
func (c Config) describe() string {
	s := fmt.Sprintf("scale=%v runs=%d", c.Scale, c.Runs)
	if faultinject.Enabled && c.Inject != nil {
		s += " inject=" + c.Inject.String()
	}
	return s
}

// cellMaxCycles is the per-cell simulated-cycle bound: the pairing
// protocol's MaxCycles tightened by the policy's CycleBudget.
func (c Config) cellMaxCycles() uint64 {
	m := c.MaxCycles
	if b := c.Policy.CycleBudget; b > 0 && (m == 0 || b < m) {
		m = b
	}
	return m
}

// runCell executes one experiment cell under the campaign's resilience
// policy. The journal is consulted first: a completed cell is decoded
// from its payload (its metrics series re-registered with the sink) and
// never re-simulated; a failed one is re-run. The returned error is a
// campaign-level fault (journal I/O, undecodable payload) that aborts
// the whole run; cell failures come back inside the outcome.
func runCell[T any](cfg Config, cell string, fn cellFn[T]) (outcome[T], error) {
	var out outcome[T]
	if e, ok := cfg.Journal.Lookup(cell); ok && e.Status == resilience.StatusOK {
		var rec cellRecord[T]
		if err := json.Unmarshal(e.Payload, &rec); err != nil {
			return out, fmt.Errorf("harness: journal payload for cell %q: %w", cell, err)
		}
		cfg.Obs.AddSeries(rec.Series...)
		out.v = rec.V
		out.payload = e.Payload
		return out, nil
	}

	var val T
	ce := cfg.Policy.Run(cell, cfg.describe(), func(w *resilience.Watch) error {
		// A previous attempt may have left a partial metrics series
		// (sampling stops wherever the watchdog struck); discard it so
		// only the surviving attempt's series is exported.
		cfg.Obs.DropSeriesByPrefix(cell)
		return runGuarded(cfg, cell, w, fn, &val)
	})
	if ce != nil {
		cfg.Obs.DropSeriesByPrefix(cell)
		cfg.Obs.Failure(cell, string(ce.Kind), ce.Reason())
		if err := cfg.Journal.Record(cell, resilience.StatusFailed, ce.Reason(), nil); err != nil {
			return out, err
		}
		out.fail = ce
		return out, nil
	}

	rec := cellRecord[T]{V: val}
	if cfg.Obs.MetricsEnabled() {
		rec.Series = cfg.Obs.SeriesByPrefix(cell)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return out, fmt.Errorf("harness: journal payload for cell %q: %w", cell, err)
	}
	if err := cfg.Journal.Record(cell, resilience.StatusOK, "", payload); err != nil {
		return out, err
	}
	out.v = val
	out.payload = payload
	return out, nil
}

// runGuarded is one attempt of a cell: fault hooks, the simulation, and
// the always-on conservation validation of its counters.
func runGuarded[T any](cfg Config, cell string, w *resilience.Watch, fn cellFn[T], val *T) error {
	fault := faultinject.None
	if faultinject.Enabled && cfg.Inject != nil {
		fault = cfg.Inject.Decide(cell)
		switch fault {
		case faultinject.Panic:
			panic(fmt.Sprintf("faultinject: injected panic in cell %s", cell))
		case faultinject.Stall:
			cfg.Inject.StallUntil(w.Canceled)
			return errors.New("faultinject: injected stall canceled by the watchdog")
		case faultinject.Slow:
			time.Sleep(cfg.Inject.SlowDelay)
		case faultinject.Transient:
			if attempt := cfg.Inject.Attempt(cell); attempt <= cfg.Inject.FailFor {
				return resilience.MarkTransient(
					fmt.Errorf("faultinject: injected transient fault in cell %s (attempt %d)", cell, attempt))
			}
		}
	}

	v, err := fn(cfg, w)
	if err != nil {
		return err
	}
	if faultinject.Enabled && fault == faultinject.Corrupt {
		for _, f := range counterFiles(&v) {
			// Phantom retirements: breaks the exact law
			// "cycles == cycles_halted + retire histogram".
			f.Add(counters.Retire1, 1_000_000)
		}
	}
	// Completed cells are validated unconditionally — corrupted
	// measurements are worse than missing ones. The laws are a handful
	// of integer comparisons, noise next to any simulation.
	for _, f := range counterFiles(&v) {
		if cerr := f.CheckConservation(); cerr != nil {
			return resilience.MarkKind(fmt.Errorf("cell %s result: %w", cell, cerr), resilience.KindCorrupt)
		}
	}
	*val = v
	return nil
}

// counterFiles returns the counter files embedded in a cell result, for
// corruption injection and conservation validation. Result shapes
// without full counter files (derived-metric rows) return nil.
func counterFiles(v any) []*counters.File {
	switch t := v.(type) {
	case **PairResult:
		if *t == nil {
			return nil
		}
		return []*counters.File{&(*t).Counters}
	case **Result:
		if *t == nil {
			return nil
		}
		return []*counters.File{&(*t).Counters}
	case *CharRun:
		if t.Result == nil {
			return nil
		}
		return []*counters.File{&t.Result.Counters}
	case *SweepCell:
		return []*counters.File{&t.Counters}
	case *GeometryCell:
		return []*counters.File{&t.Counters}
	case *PolicyCell:
		return []*counters.File{&t.Counters}
	}
	return nil
}

// RunResilient is Run under cfg's campaign policy: panics, deadline
// expiries and budget exhaustion come back as the cell's Failure
// instead of crashing or hanging, and a journaled cell is resumed
// rather than re-simulated. The error return is campaign-level (journal
// I/O) only.
func RunResilient(b *bench.Benchmark, opts Options, cfg Config) (*Result, []Failure, error) {
	cell := opts.ObsLabel
	if cell == "" {
		cell = b.Name
	}
	if opts.MaxCycles == 0 {
		opts.MaxCycles = cfg.Policy.CycleBudget
	}
	return runOne(cfg, typedCell[*Result]{label: cell, fn: func(_ Config, w *resilience.Watch) (*Result, error) {
		o := opts
		o.Cancel = w.Flag()
		return Run(b, o)
	}})
}

// RunPairCell is the pairing cell of a and b under cfg's campaign
// policy; see RunResilient.
func RunPairCell(a, b *bench.Benchmark, cfg Config) (*PairResult, []Failure, error) {
	return runOne(cfg, pairCell(a, b))
}

// runOne runs a single cell through runCell: the completed value, or
// nil and the cell's one Failure.
func runOne[T any](cfg Config, c typedCell[T]) (T, []Failure, error) {
	out, err := runCell(cfg, c.label, c.fn)
	if out.fail != nil {
		return out.v, []Failure{failureOf(out.fail)}, err
	}
	return out.v, nil, err
}
