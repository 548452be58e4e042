package harness

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"javasmt/internal/bench"
	"javasmt/internal/core"
	"javasmt/internal/obs"
	"javasmt/internal/resilience"
)

// testMeta is the journal identity campaign tests open journals under.
var testMeta = resilience.Meta{Tool: "harness-test", Config: "scale=tiny"}

func openJournal(t *testing.T, dir string, resume bool) *resilience.Journal {
	t.Helper()
	j, err := resilience.Open(dir, testMeta, resume)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestRunCellJournalRoundTrip pins the checkpoint/resume core: a
// completed cell is recorded, and a resumed campaign decodes it from the
// journal instead of re-simulating.
func TestRunCellJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Journal = openJournal(t, dir, false)
	want := Fig10Row{Benchmark: "x", CyclesOff: 10, CyclesOn: 13, CyclesDyn: 11}
	calls := 0
	out, err := runCell(cfg, "cell x", func(_ Config, w *resilience.Watch) (Fig10Row, error) {
		calls++
		return want, nil
	})
	if err != nil || out.fail != nil {
		t.Fatalf("first run: err=%v fail=%v", err, out.fail)
	}
	if calls != 1 || out.v != want {
		t.Fatalf("first run: calls=%d v=%+v", calls, out.v)
	}
	if err := cfg.Journal.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Journal = openJournal(t, dir, true)
	defer cfg.Journal.Close()
	if cfg.Journal.Resumed() != 1 {
		t.Fatalf("resumed = %d, want 1", cfg.Journal.Resumed())
	}
	out, err = runCell(cfg, "cell x", func(_ Config, w *resilience.Watch) (Fig10Row, error) {
		t.Fatal("re-simulated a journaled cell")
		return Fig10Row{}, nil
	})
	if err != nil || out.fail != nil {
		t.Fatalf("resume: err=%v fail=%v", err, out.fail)
	}
	if out.v != want {
		t.Fatalf("resume decoded %+v, want %+v", out.v, want)
	}
}

// TestRunCellPanicBecomesFailure pins panic recovery: a panicking cell
// yields a structured CellError (with the cell identity and a stack) and
// a StatusFailed journal entry, and is retried — not skipped — on resume.
func TestRunCellPanicBecomesFailure(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Journal = openJournal(t, dir, false)
	out, err := runCell(cfg, "cell boom", func(_ Config, w *resilience.Watch) (int, error) {
		panic("kaboom")
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.fail == nil || out.fail.Kind != resilience.KindPanic {
		t.Fatalf("fail = %+v, want a panic CellError", out.fail)
	}
	if out.fail.Cell != "cell boom" || !strings.Contains(out.fail.Stack, "campaign_test") {
		t.Fatalf("CellError lost identity or stack: %+v", out.fail)
	}
	if e, ok := cfg.Journal.Lookup("cell boom"); !ok || e.Status != resilience.StatusFailed {
		t.Fatalf("journal entry = %+v, want StatusFailed", e)
	}
	if err := cfg.Journal.Close(); err != nil {
		t.Fatal(err)
	}

	// The failed cell re-runs on resume and its success supersedes.
	cfg.Journal = openJournal(t, dir, true)
	defer cfg.Journal.Close()
	out, err = runCell(cfg, "cell boom", func(_ Config, w *resilience.Watch) (int, error) {
		return 7, nil
	})
	if err != nil || out.fail != nil || out.v != 7 {
		t.Fatalf("retry after failed journal entry: v=%d err=%v fail=%v", out.v, err, out.fail)
	}
	if e, ok := cfg.Journal.Lookup("cell boom"); !ok || e.Status != resilience.StatusOK {
		t.Fatalf("journal entry after retry = %+v, want StatusOK", e)
	}
}

// TestRunCellRetriesTransient pins bounded retry: a transient failure is
// re-attempted up to Retries times; a persistent one is not.
func TestRunCellRetriesTransient(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy.Retries = 2
	cfg.Policy.Backoff = time.Nanosecond
	calls := 0
	out, err := runCell(cfg, "cell flaky", func(_ Config, w *resilience.Watch) (int, error) {
		calls++
		if calls < 3 {
			return 0, resilience.MarkTransient(errTransientProbe)
		}
		return 42, nil
	})
	if err != nil || out.fail != nil || out.v != 42 {
		t.Fatalf("v=%d err=%v fail=%v", out.v, err, out.fail)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (two retries)", calls)
	}

	calls = 0
	out, err = runCell(cfg, "cell broken", func(_ Config, w *resilience.Watch) (int, error) {
		calls++
		return 0, errTransientProbe // unmarked: permanent
	})
	if err != nil || out.fail == nil {
		t.Fatalf("err=%v fail=%v, want a cell failure", err, out.fail)
	}
	if calls != 1 {
		t.Fatalf("permanent error attempted %d times, want 1", calls)
	}
}

var errTransientProbe = errors.New("probe failure")

// TestCampaignDegradesGracefully runs every campaign driver on a reduced
// grid under an unmeetable cycle budget: each must complete with no
// error and no crash, hand back exactly one cycle-budget Failure per
// enumerated cell — labelled as the matching *CellSpecs enumerator
// labels it, in cell order — carry each cell's reason in its FAILED
// row, and render those rows. The sweeps have no harness renderer
// (cmd/sweep prints their rows), so only their rows are checked.
func TestCampaignDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	skipIfChecks(t)
	progs := []*bench.Benchmark{mustBench(t, "compress"), mustBench(t, "mpegaudio")}
	geos := []core.Geometry{{Cores: 1, ContextsPerCore: 2}, {Cores: 2, ContextsPerCore: 2}}
	mixes := []Mix{ServerMix(8)}

	// degraded is what a driver hands back: its failures, every row's
	// Failed reason in cell order, and its rendered figures, each of
	// which must contain want.
	type degraded struct {
		fails   []Failure
		reasons []string
		figs    []string
		want    string
	}
	reasonsOf := func(n int, reason func(i int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = reason(i)
		}
		return out
	}
	cases := []struct {
		name  string
		specs []CellSpec
		run   func(cfg Config) (degraded, error)
	}{
		{"characterization", CharacterizationCellSpecs(), func(cfg Config) (degraded, error) {
			c, err := RunCharacterization(cfg)
			if err != nil {
				return degraded{}, err
			}
			return degraded{
				fails:   c.Failed,
				reasons: reasonsOf(len(c.Runs), func(i int) string { return c.Runs[i].Failed }),
				figs:    []string{c.Table2(), c.Fig1(), c.Fig2(), c.Fig3(), c.Fig4(), c.Fig5(), c.Fig6(), c.Fig7()},
				want:    "FAILED(",
			}, nil
		}},
		{"pairings", PairingCellSpecs(progs), func(cfg Config) (degraded, error) {
			p, err := RunPairingsOf(progs, cfg)
			if err != nil {
				return degraded{}, err
			}
			grid := pairGrid(progs)
			return degraded{
				fails: p.Failed,
				reasons: reasonsOf(len(grid), func(i int) string {
					return p.Results[grid[i][0]][grid[i][1]].Failed
				}),
				// compress+compress, compress+mpegaudio, mpegaudio+mpegaudio
				figs: []string{p.Fig8(), p.Fig9(), p.Fig11()},
				want: "FAILED cells (3):",
			}, nil
		}},
		{"fig10", Fig10CellSpecs(), func(cfg Config) (degraded, error) {
			rows, fails, err := RunFig10(cfg)
			return degraded{
				fails:   fails,
				reasons: reasonsOf(len(rows), func(i int) string { return rows[i].Failed }),
				figs:    []string{RenderFig10(rows)},
				want:    "FAILED(",
			}, err
		}},
		{"fig12", Fig12CellSpecs([]int{2}), func(cfg Config) (degraded, error) {
			rows, fails, err := RunFig12(cfg, []int{2})
			return degraded{
				fails:   fails,
				reasons: reasonsOf(len(rows), func(i int) string { return rows[i].Failed }),
				figs:    []string{RenderFig12(rows)},
				want:    "FAILED(",
			}, err
		}},
		{"sweep", SweepCellSpecs(progs, []int{1}), func(cfg Config) (degraded, error) {
			rows, fails, err := RunSweep(cfg, progs, []int{1})
			return degraded{
				fails:   fails,
				reasons: reasonsOf(len(rows), func(i int) string { return rows[i].Failed }),
			}, err
		}},
		{"geometry", GeometryCellSpecs(progs, geos), func(cfg Config) (degraded, error) {
			rows, fails, err := RunGeometrySweep(cfg, progs, geos)
			return degraded{
				fails:   fails,
				reasons: reasonsOf(len(rows), func(i int) string { return rows[i].Failed }),
			}, err
		}},
		{"policy", PolicyCellSpecs([]string{"naive"}, mixes, geos), func(cfg Config) (degraded, error) {
			rows, fails, err := RunPolicySweep(cfg, []string{"naive"}, mixes, geos)
			return degraded{
				fails:   fails,
				reasons: reasonsOf(len(rows), func(i int) string { return rows[i].Failed }),
				figs:    []string{RenderPolicySweep(rows)},
				want:    "FAILED",
			}, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Runs = 2
			cfg.Jobs = 4
			cfg.Policy.CycleBudget = 50_000 // far below any cell's runtime
			got, err := tc.run(cfg)
			if err != nil {
				t.Fatalf("campaign aborted instead of degrading: %v", err)
			}
			if len(got.fails) != len(tc.specs) || len(got.reasons) != len(tc.specs) {
				t.Fatalf("%d failures and %d rows for %d cells: %+v",
					len(got.fails), len(got.reasons), len(tc.specs), got.fails)
			}
			for i, f := range got.fails {
				if f.Cell != tc.specs[i].Label {
					t.Errorf("failure %d is cell %q, enumerator says %q", i, f.Cell, tc.specs[i].Label)
				}
				if f.Kind != string(resilience.KindCycleBudget) {
					t.Errorf("failure kind = %q, want cycle-budget: %+v", f.Kind, f)
				}
				if f.Reason == "" || got.reasons[i] != f.Reason {
					t.Errorf("cell %s: row reason %q, failure reason %q", f.Cell, got.reasons[i], f.Reason)
				}
			}
			for _, fig := range got.figs {
				if !strings.Contains(fig, got.want) {
					t.Errorf("rendered output lacks %q:\n%s", got.want, fig)
				}
			}
		})
	}
}

// TestCampaignDeadline pins the watchdog path end to end on a real
// simulation: an unmeetable wall deadline cancels the cycle loop and the
// cell reports a timeout.
func TestCampaignDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	skipIfChecks(t)
	progs := []*bench.Benchmark{mustBench(t, "compress")}
	cfg := DefaultConfig()
	cfg.Runs = 2
	cfg.Policy.WallDeadline = time.Microsecond
	p, err := RunPairingsOf(progs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Failed) != 1 || p.Failed[0].Kind != string(resilience.KindTimeout) {
		t.Fatalf("failed = %+v, want one timeout", p.Failed)
	}
}

// TestCampaignResumeByteIdentical is the crash-safety acceptance test: a
// campaign interrupted mid-journal and resumed must produce the same
// report and the same metrics export, byte for byte, as an uninterrupted
// run.
func TestCampaignResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	skipIfChecks(t)
	progs := []*bench.Benchmark{mustBench(t, "compress"), mustBench(t, "mpegaudio"), mustBench(t, "db")}

	runCampaign := func(j *resilience.Journal) (string, []byte) {
		sink := obs.New(obs.Config{Metrics: true, Stride: 100_000})
		cfg := DefaultConfig()
		cfg.Runs = 2
		cfg.Jobs = 4
		cfg.Obs = sink
		cfg.Journal = j
		p, err := RunPairingsOf(progs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sink.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return p.Fig9(), buf.Bytes()
	}

	full := t.TempDir()
	j := openJournal(t, full, false)
	wantFig, wantMetrics := runCampaign(j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash: a second campaign directory holding only a
	// prefix of the journal, with the last line torn mid-record.
	data, err := os.ReadFile(filepath.Join(full, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal too short to truncate meaningfully: %d lines", len(lines))
	}
	partial := bytes.Join(lines[:3], nil)
	partial = append(partial, lines[3][:len(lines[3])/2]...) // torn tail
	crashDir := t.TempDir()
	meta, err := os.ReadFile(filepath.Join(full, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crashDir, "meta.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crashDir, "journal.jsonl"), partial, 0o644); err != nil {
		t.Fatal(err)
	}

	j = openJournal(t, crashDir, true)
	if j.Resumed() != 3 {
		t.Fatalf("resumed = %d cells, want 3 intact entries", j.Resumed())
	}
	gotFig, gotMetrics := runCampaign(j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if gotFig != wantFig {
		t.Fatalf("resumed report differs:\n--- want ---\n%s\n--- got ---\n%s", wantFig, gotFig)
	}
	if !bytes.Equal(gotMetrics, wantMetrics) {
		t.Fatal("resumed metrics export is not byte-identical to the uninterrupted run")
	}
}

// TestRunSweepSmoke runs the exported sweep driver over one benchmark.
func TestRunSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cells, _, err := RunSweep(DefaultConfig(), []*bench.Benchmark{mustBench(t, "db")}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Failed != "" || cells[0].Counters.IPC() <= 0 {
		t.Fatalf("cells = %+v", cells)
	}
}
