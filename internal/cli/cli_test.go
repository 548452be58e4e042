package cli

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"javasmt/internal/bench"
	"javasmt/internal/faultinject"
	"javasmt/internal/obs"
	"javasmt/internal/resilience"
	"javasmt/internal/sampling"
)

// parse registers the common block on a throwaway flag set, parses args
// and resolves them.
func parse(t *testing.T, opt Options, args ...string) (*Common, error) {
	t.Helper()
	fs := flag.NewFlagSet("testtool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register("testtool", fs, opt)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f.Finish()
}

func TestParseScale(t *testing.T) {
	for in, want := range map[string]bench.Scale{
		"tiny": bench.Tiny, "small": bench.Small, "medium": bench.Medium,
		"Small": bench.Small, "TINY": bench.Tiny,
	} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("ParseScale accepted an unknown scale")
	}
}

func TestDefaults(t *testing.T) {
	c, err := parse(t, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Scale != bench.Tiny {
		t.Errorf("default scale = %v, want tiny", c.Scale)
	}
	if c.Jobs != 1 {
		t.Errorf("jobs without -j registered = %d, want 1 (serial)", c.Jobs)
	}
	if c.Obs != nil {
		t.Error("observability sink built without -metrics/-trace")
	}
	if err := c.WriteObs(); err != nil {
		t.Errorf("WriteObs with nothing requested: %v", err)
	}
}

func TestScaleFlag(t *testing.T) {
	c, err := parse(t, Options{}, "-scale", "small")
	if err != nil {
		t.Fatal(err)
	}
	if c.Scale != bench.Small {
		t.Errorf("scale = %v, want small", c.Scale)
	}
}

func TestJobsAndQuiet(t *testing.T) {
	c, err := parse(t, Options{Jobs: true, Quiet: true}, "-j", "3", "-q")
	if err != nil {
		t.Fatal(err)
	}
	if c.Jobs != 3 || !c.Quiet {
		t.Errorf("jobs=%d quiet=%v, want 3 true", c.Jobs, c.Quiet)
	}
	if c.Progress() != nil {
		t.Error("quiet tool still got a progress callback")
	}
	loud, err := parse(t, Options{Jobs: true, Quiet: true}, "-j", "2")
	if err != nil {
		t.Fatal(err)
	}
	if loud.Progress() == nil {
		t.Error("non-quiet tool got no progress callback")
	}
}

func TestObsFlags(t *testing.T) {
	c, err := parse(t, Options{}, "-metrics", t.TempDir()+"/m.json", "-sample", "12345")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Obs.MetricsEnabled() || c.Obs.TraceEnabled() {
		t.Errorf("-metrics built metrics=%v trace=%v", c.Obs.MetricsEnabled(), c.Obs.TraceEnabled())
	}
	if got := c.Obs.Stride(); got != 12345 {
		t.Errorf("stride = %d, want 12345", got)
	}
	if err := c.WriteObs(); err != nil {
		t.Errorf("WriteObs: %v", err)
	}

	c, err = parse(t, Options{}, "-trace", t.TempDir()+"/t.json")
	if err != nil {
		t.Fatal(err)
	}
	if c.Obs.MetricsEnabled() || !c.Obs.TraceEnabled() {
		t.Errorf("-trace built metrics=%v trace=%v", c.Obs.MetricsEnabled(), c.Obs.TraceEnabled())
	}
	if got := c.Obs.Stride(); got != obs.DefaultStride {
		t.Errorf("default stride = %d, want %d", got, obs.DefaultStride)
	}
}

// TestErrorPaths pins the usage errors Finish must reject rather than
// letting a long campaign start under a nonsensical configuration.
func TestErrorPaths(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-sample", "0"}, "-sample"},
		{[]string{"-j", "-2"}, "-j"},
		{[]string{"-retries", "-1"}, "-retries"},
		{[]string{"-deadline", "-5s"}, "-deadline"},
		{[]string{"-resume"}, "-journal"},
		{[]string{"-scale", "huge"}, "unknown scale"},
	}
	for _, tc := range cases {
		_, err := parse(t, Options{Jobs: true}, tc.args...)
		if err == nil {
			t.Errorf("%v: accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}

// TestInjectFlag pins that -inject follows the build tag: parse errors
// (including the untagged-build refusal) surface as usage errors, and an
// empty spec means no injector.
func TestInjectFlag(t *testing.T) {
	c, err := parse(t, Options{})
	if err != nil || c.Inject != nil {
		t.Fatalf("no -inject: c.Inject=%v err=%v", c.Inject, err)
	}
	c, err = parse(t, Options{}, "-inject", "panic=0.5")
	if faultinject.Enabled {
		if err != nil || c.Inject == nil {
			t.Fatalf("faults build rejected a valid spec: %v", err)
		}
		if _, err := parse(t, Options{}, "-inject", "panic=2"); err == nil {
			t.Error("rate > 1 accepted")
		}
	} else {
		if err == nil || !strings.Contains(err.Error(), "faults") {
			t.Fatalf("untagged build accepted -inject (err=%v); injection would silently not happen", err)
		}
	}
}

// TestCampaignFlags pins the policy block and the journal lifecycle.
func TestCampaignFlags(t *testing.T) {
	c, err := parse(t, Options{}, "-deadline", "30s", "-cycle-budget", "5000000000", "-retries", "2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Policy.WallDeadline != 30*time.Second || c.Policy.CycleBudget != 5_000_000_000 || c.Policy.Retries != 2 {
		t.Fatalf("policy = %+v", c.Policy)
	}
	if j, err := c.OpenJournal("cfg"); j != nil || err != nil {
		t.Fatalf("no -journal: journal=%v err=%v", j, err)
	}

	dir := t.TempDir()
	c, err = parse(t, Options{}, "-journal", dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.OpenJournal("cfg")
	if err != nil || j == nil {
		t.Fatalf("fresh journal: %v", err)
	}
	if err := j.Record("cell", resilience.StatusOK, "", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-running without -resume over a used journal must refuse.
	if _, err := c.OpenJournal("cfg"); err == nil {
		t.Fatal("fresh open over an existing journal did not refuse")
	}
	c, err = parse(t, Options{}, "-journal", dir, "-resume")
	if err != nil {
		t.Fatal(err)
	}
	j, err = c.OpenJournal("cfg")
	if err != nil {
		t.Fatal(err)
	}
	if j.Resumed() != 1 {
		t.Fatalf("resumed = %d, want 1", j.Resumed())
	}
	j.Close()
	// Resuming under a different campaign configuration must refuse.
	if _, err := c.OpenJournal("other-config"); err == nil {
		t.Fatal("resume with a different config did not refuse")
	}
}

// TestJournalSyncFlag pins the -journal-sync wiring: it needs -journal,
// and a synced journal stays resumable by an unsynced run (durability
// is not campaign identity).
func TestJournalSyncFlag(t *testing.T) {
	if _, err := parse(t, Options{}, "-journal-sync"); err == nil {
		t.Fatal("-journal-sync without -journal was accepted")
	}
	dir := t.TempDir()
	c, err := parse(t, Options{}, "-journal", dir, "-journal-sync")
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.OpenJournal("cfg")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("cell", resilience.StatusOK, "", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	c, err = parse(t, Options{}, "-journal", dir, "-resume")
	if err != nil {
		t.Fatal(err)
	}
	j, err = c.OpenJournal("cfg")
	if err != nil {
		t.Fatal(err)
	}
	if j.Resumed() != 1 {
		t.Fatalf("resumed = %d, want 1", j.Resumed())
	}
	j.Close()
}

// TestSamplingFlags pins the -sim-mode flag block: full is the default
// (zero-value plan, byte-identical path), sampled picks up the default
// regime, the knobs override it, and nonsense is rejected before a
// campaign starts.
func TestSamplingFlags(t *testing.T) {
	c, err := parse(t, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Plan.Sampled() || c.Plan != sampling.FullPlan() {
		t.Errorf("default plan = %+v, want full", c.Plan)
	}

	c, err = parse(t, Options{}, "-sim-mode", "sampled")
	if err != nil {
		t.Fatal(err)
	}
	if c.Plan != sampling.DefaultSampledPlan() {
		t.Errorf("-sim-mode sampled plan = %+v, want default sampled regime", c.Plan)
	}

	c, err = parse(t, Options{}, "-sim-mode", "sampled",
		"-ff-interval", "300000", "-warmup", "50000", "-window", "20000")
	if err != nil {
		t.Fatal(err)
	}
	want := sampling.Plan{Mode: sampling.Sampled, FFUops: 300_000, WarmupUops: 50_000, WindowCycles: 20_000}
	if c.Plan != want {
		t.Errorf("knobs resolved to %+v, want %+v", c.Plan, want)
	}

	for _, args := range [][]string{
		{"-sim-mode", "turbo"},                   // unknown mode
		{"-sim-mode", "sampled", "-window", "0"}, // no detailed window
		{"-ff-interval", "1000"},                 // stray knob without sampled
		{"-warmup", "1000"},
		{"-window", "1000"},
	} {
		if _, err := parse(t, Options{}, args...); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}

// TestSampledJournalCrossMode pins the resume guard in both directions:
// a journal written by a full-mode campaign refuses a sampled resume, a
// sampled journal refuses a full resume (and a differently-tuned sampled
// resume), and only the identical regime resumes.
func TestSampledJournalCrossMode(t *testing.T) {
	record := func(c *Common) {
		t.Helper()
		j, err := c.OpenJournal("cfg")
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Record("cell", resilience.StatusOK, "", []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Full-mode journal: sampled resume must refuse.
	dir := t.TempDir()
	c, err := parse(t, Options{}, "-journal", dir)
	if err != nil {
		t.Fatal(err)
	}
	record(c)
	c, err = parse(t, Options{}, "-journal", dir, "-resume", "-sim-mode", "sampled")
	if err != nil {
		t.Fatal(err)
	}
	if j, err := c.OpenJournal("cfg"); err == nil {
		j.Close()
		t.Fatal("sampled resume over a full-mode journal did not refuse")
	}

	// Sampled journal: full resume and a different regime must refuse;
	// the identical regime resumes.
	dir = t.TempDir()
	c, err = parse(t, Options{}, "-journal", dir, "-sim-mode", "sampled")
	if err != nil {
		t.Fatal(err)
	}
	record(c)
	c, err = parse(t, Options{}, "-journal", dir, "-resume")
	if err != nil {
		t.Fatal(err)
	}
	if j, err := c.OpenJournal("cfg"); err == nil {
		j.Close()
		t.Fatal("full resume over a sampled journal did not refuse")
	}
	c, err = parse(t, Options{}, "-journal", dir, "-resume", "-sim-mode", "sampled", "-window", "123")
	if err != nil {
		t.Fatal(err)
	}
	if j, err := c.OpenJournal("cfg"); err == nil {
		j.Close()
		t.Fatal("resume under a different sampled regime did not refuse")
	}
	c, err = parse(t, Options{}, "-journal", dir, "-resume", "-sim-mode", "sampled")
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.OpenJournal("cfg")
	if err != nil {
		t.Fatalf("identical sampled regime failed to resume: %v", err)
	}
	if j.Resumed() != 1 {
		t.Errorf("resumed = %d, want 1", j.Resumed())
	}
	j.Close()
}

// TestSharedListParsers pins the list and sim-mode parsers the CLIs and
// the campaign service's JobSpec resolution share.
func TestSharedListParsers(t *testing.T) {
	bs, err := ParseBenchmarks("compress, SyncLock")
	if err != nil || len(bs) != 2 || bs[0].Name != "compress" || bs[1].Name != "SyncLock" {
		t.Fatalf("ParseBenchmarks = %v, %v", bs, err)
	}
	for in, want := range map[string]string{
		"compress,nope": "unknown benchmark",
		"compress,":     "unknown benchmark",
		"":              "empty benchmark list",
		" ":             "empty benchmark list",
	} {
		if _, err := ParseBenchmarks(in); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseBenchmarks(%q) error %v, want %q", in, err, want)
		}
	}

	ns, err := ParseCounts("thread count", "1, 2,16")
	if err != nil || len(ns) != 3 || ns[0] != 1 || ns[1] != 2 || ns[2] != 16 {
		t.Fatalf("ParseCounts = %v, %v", ns, err)
	}
	for in, want := range map[string]string{
		"1,0":  "bad thread count 0: must be positive",
		"-2":   "bad thread count -2: must be positive",
		"1,x":  `bad thread count "x"`,
		"":     `bad thread count ""`,
		"4,,8": `bad thread count ""`,
	} {
		if ns, err := ParseCounts("thread count", in); err == nil || ns != nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseCounts(%q) = %v, %v; want error %q", in, ns, err, want)
		}
	}
	if err := CheckCounts("mix size", []int{8, 0}); err == nil || !strings.Contains(err.Error(), "mix size 0") {
		t.Errorf("CheckCounts accepted a zero mix size: %v", err)
	}
	if err := CheckCounts("mix size", nil); err != nil {
		t.Errorf("CheckCounts(nil) = %v", err)
	}

	for _, mode := range []string{"sampled", "Sampled", "SAMPLED"} {
		c, err := parse(t, Options{}, "-sim-mode", mode)
		if err != nil || c.Plan.Mode != sampling.Sampled {
			t.Errorf("-sim-mode %s: plan %+v, err %v", mode, c.Plan, err)
		}
	}
	if _, err := parse(t, Options{}, "-sim-mode", "approximate"); err == nil {
		t.Error("-sim-mode approximate accepted")
	}
}
