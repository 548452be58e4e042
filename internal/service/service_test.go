package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"javasmt/internal/resilience"
)

// smallSweep is the test campaign: three single-threaded benchmarks at
// one thread each — three quick cells with deterministic payloads.
func smallSweep() JobSpec {
	return JobSpec{Kind: "sweep", Benchmarks: []string{"compress", "db", "jess"}, Threads: []int{1}}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	return s
}

func waitDone(t *testing.T, jb *Job) JobStatus {
	t.Helper()
	select {
	case <-jb.doneCh:
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish: %+v", jb.id, jb.status())
	}
	return jb.status()
}

func readLedger(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sortLines order-normalizes a ledger: workers interleave cell
// completions differently across runs, but the set of lines must be
// byte-identical.
func sortLines(data []byte) []byte {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}

func TestSubmitRunsCampaignToDone(t *testing.T) {
	s := newTestServer(t, Config{})
	jb, err := s.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, jb)
	if st.State != StateDone || st.Total != 3 || st.OK != 3 || st.Failed != 0 {
		t.Fatalf("status = %+v", st)
	}
	entries, _, err := resilience.Parse(readLedger(t, jb.dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("ledger holds %d entries, want 3", len(entries))
	}
	for _, e := range entries {
		if e.Status != resilience.StatusOK || len(e.Payload) == 0 {
			t.Fatalf("entry %+v not an OK payload", e)
		}
	}
	// The terminal marker must exist so a restart loads the job
	// read-only instead of resubmitting it.
	if _, err := os.Stat(filepath.Join(jb.dir, stateFile)); err != nil {
		t.Fatalf("terminal marker: %v", err)
	}
}

// TestResubmitServedFromCache re-submits an identical campaign and
// checks every cell is served from the result cache — and that the
// cached job's ledger is byte-identical to the simulated one.
func TestResubmitServedFromCache(t *testing.T) {
	s := newTestServer(t, Config{})
	first, err := s.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)

	second, err := s.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, second)
	if st.State != StateDone || st.OK != 3 {
		t.Fatalf("status = %+v", st)
	}
	if st.Cached != 3 {
		t.Fatalf("cached = %d, want all 3 cells from cache", st.Cached)
	}
	a := sortLines(readLedger(t, first.dir))
	b := sortLines(readLedger(t, second.dir))
	if !bytes.Equal(a, b) {
		t.Fatalf("cached ledger differs from simulated ledger:\n%s\n---\n%s", a, b)
	}
	// A different campaign configuration must not hit the cache.
	third, err := s.Submit(JobSpec{Kind: "sweep", Benchmarks: []string{"compress"}, Threads: []int{1}, SimMode: "sampled"})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, third); st.Cached != 0 {
		t.Fatalf("sampled-mode job hit the full-mode cache: %+v", st)
	}
}

// TestRecoveryResumesTornLedger is the crash-recovery contract: a job
// directory with a partial ledger — last line torn mid-append, as
// kill -9 leaves it — resumes to completion, and the resumed ledger's
// lines are byte-identical to an uninterrupted run's.
func TestRecoveryResumesTornLedger(t *testing.T) {
	// Reference: an uninterrupted run of the same campaign.
	ref := newTestServer(t, Config{})
	refJob, err := ref.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, refJob)
	refLedger := readLedger(t, refJob.dir)
	refLines := strings.SplitAfter(strings.TrimRight(string(refLedger), "\n"), "\n")
	if len(refLines) != 3 {
		t.Fatalf("reference ledger has %d lines", len(refLines))
	}

	// Hand-build a crashed daemon's state: spec + meta intact, ledger
	// holding one committed cell plus a torn tail, no terminal marker.
	dataDir := t.TempDir()
	dir := filepath.Join(dataDir, "jobs", "j0001")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"spec.json", "meta.json"} {
		data, err := os.ReadFile(filepath.Join(refJob.dir, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	torn := refLines[0] + refLines[1][:len(refLines[1])/2]
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{DataDir: dataDir})
	jb, ok := s.Job("j0001")
	if !ok {
		t.Fatal("crashed job not recovered")
	}
	st := waitDone(t, jb)
	if st.State != StateDone || st.OK != 3 || st.Failed != 0 {
		t.Fatalf("resumed status = %+v", st)
	}
	if st.Resumed != 1 {
		t.Fatalf("resumed = %d, want 1 (the committed cell; the torn one re-runs)", st.Resumed)
	}
	if !bytes.Equal(sortLines(readLedger(t, jb.dir)), sortLines(refLedger)) {
		t.Fatalf("resumed ledger differs from uninterrupted reference:\n%s\n---\n%s",
			readLedger(t, jb.dir), refLedger)
	}
	// New job IDs must not collide with the recovered one.
	next, err := s.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if next.id == "j0001" {
		t.Fatal("recovered job ID reused")
	}
	waitDone(t, next)
}

// TestRecoveryRestoresTerminalJobs restarts a server over a data
// directory whose job already finished: the job must come back done,
// with results replayable, without re-running anything — and its
// payloads must seed the new daemon's cache.
func TestRecoveryRestoresTerminalJobs(t *testing.T) {
	dataDir := t.TempDir()
	s1 := newTestServer(t, Config{DataDir: dataDir})
	jb1, err := s1.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jb1)
	s1.Drain()

	s2 := newTestServer(t, Config{DataDir: dataDir})
	jb2, ok := s2.Job(jb1.id)
	if !ok {
		t.Fatal("finished job not loaded after restart")
	}
	st := jb2.status()
	if st.State != StateDone || st.Completed != 3 || st.OK != 3 {
		t.Fatalf("restored status = %+v", st)
	}
	replay, live := jb2.subscribe()
	if len(replay) != 3 || live != nil {
		t.Fatalf("subscribe on restored job: %d results, live=%v", len(replay), live != nil)
	}
	resub, err := s2.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, resub); st.Cached != 3 {
		t.Fatalf("restart lost the cache seed: %+v", st)
	}
}

// TestAdmissionControl fills the job bound and checks the next
// submission is refused with errBusy while the admitted job still
// completes.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxJobs: 1})
	jb, err := s.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(smallSweep()); !errors.Is(err, errBusy) {
		t.Fatalf("over-bound submit returned %v, want errBusy", err)
	}
	if st := waitDone(t, jb); st.State != StateDone {
		t.Fatalf("admitted job degraded by rejected one: %+v", st)
	}
	// Capacity freed: the same spec is admitted now (and cache-served).
	again, err := s.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, again)
}

func TestCancel(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	// characterization has enough cells that cancellation lands while
	// most are still queued.
	jb, err := s.Submit(JobSpec{Kind: "characterization"})
	if err != nil {
		t.Fatal(err)
	}
	jb.cancel("test cancel")
	st := waitDone(t, jb)
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if st.Completed == st.Total {
		t.Fatal("cancel ran the whole campaign anyway")
	}
	// The terminal marker persists the cancellation across restarts.
	data, err := os.ReadFile(filepath.Join(jb.dir, stateFile))
	if err != nil {
		t.Fatal(err)
	}
	var ps persistedState
	if err := json.Unmarshal(data, &ps); err != nil {
		t.Fatal(err)
	}
	if ps.State != StateCanceled {
		t.Fatalf("persisted state = %+v", ps)
	}
}

func TestDrainRefusesSubmissions(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Drain()
	if _, err := s.Submit(smallSweep()); !errors.Is(err, errDraining) {
		t.Fatalf("submit during drain returned %v, want errDraining", err)
	}
}

// TestHTTPAPI drives the full HTTP surface: submit, status, list,
// NDJSON results, cancel, and the error paths.
func TestHTTPAPI(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Bad specs are 400 with a JSON error body.
	for _, body := range []string{
		"{not json",
		`{"kind":"frobnicate"}`,
		`{"kind":"sweep","unknown_knob":1}`,
	} {
		resp := post(body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q = %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp := post(`{"kind":"sweep","benchmarks":["compress","db","jess"],"threads":[1]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == "" || st.Total != 3 {
		t.Fatalf("submit status = %+v", st)
	}

	// Stream results: the NDJSON connection stays open until the job is
	// terminal and carries one line per cell.
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results Content-Type = %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var res CellResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if res.Cell == "" || res.Status != resilience.StatusOK {
			t.Fatalf("streamed result %+v", res)
		}
		lines++
	}
	resp.Body.Close()
	if lines != 3 {
		t.Fatalf("streamed %d results, want 3", lines)
	}

	// Status and list reflect the finished job.
	resp, err = http.Get(ts.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != StateDone || st.OK != 3 {
		t.Fatalf("status = %+v", st)
	}
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	// Unknown job IDs are 404 everywhere.
	for _, path := range []string{"/jobs/j9999", "/jobs/j9999/results"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Health endpoint is live.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Cancel over HTTP: submit a fresh campaign, delete it.
	resp = post(`{"kind":"characterization"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	var st2 JobStatus
	json.NewDecoder(resp.Body).Decode(&st2)
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st2.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	json.NewDecoder(resp.Body).Decode(&st2)
	resp.Body.Close()
	if st2.State != StateCanceled {
		t.Fatalf("canceled status = %+v", st2)
	}
}

// TestHTTPBusy maps admission rejection to 429 + Retry-After.
func TestHTTPBusy(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxJobs: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec, _ := json.Marshal(smallSweep())
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if jb, ok := s.Job(fmt.Sprintf("j%04d", 1)); ok {
		waitDone(t, jb)
	}
}
