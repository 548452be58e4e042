package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"javasmt/internal/resilience"
	"javasmt/internal/sched"
)

// Config configures the campaign server.
type Config struct {
	// DataDir is the daemon's state root; each job lives in
	// DataDir/jobs/<id>/ (spec.json + ledger + terminal marker).
	DataDir string
	// Workers bounds how many cells simulate concurrently across all
	// jobs; 0 or negative means one per CPU (sched.DefaultWorkers).
	Workers int
	// MaxQueuedCells bounds the total pending cells across all jobs;
	// a submission that would exceed it is rejected with 429. 0 = no
	// bound.
	MaxQueuedCells int
	// MaxJobs bounds concurrently active (non-terminal) jobs; 0 = no
	// bound.
	MaxJobs int
	// JournalSync fsyncs every ledger append (resilience.WithSync).
	JournalSync bool
	// Logf receives one line per lifecycle event; nil disables logging.
	Logf func(format string, args ...any)
}

// Server owns the cell executor, the digest cache and the job table.
// It is constructed with New (which also recovers jobs a previous
// daemon left unfinished) and exposed over HTTP via Handler.
//
// The executor is sched: every admitted job runs on its own tracked
// goroutine that fans the job's cells out with sched.ForEach, and a
// server-wide slot semaphore caps how many cells simulate at once
// across all jobs.
type Server struct {
	cfg     Config
	workers int
	slots   chan struct{}
	runs    sync.WaitGroup // one per started job goroutine
	cache   *Cache

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	seq      int
	draining bool
	// pending counts each started job's cells not yet handed a slot.
	pending map[cellRunner]int
}

// cellRunner is an admitted job as the executor sees it. *Job
// implements it; tests substitute stubs to exercise the executor alone.
type cellRunner interface {
	runOne(cell int)
	terminal() bool
}

// New builds the server and recovers every job found under DataDir:
// terminal jobs load read-only, interrupted ones resume from their
// ledgers (re-simulating only cells the ledger does not hold).
func New(cfg Config) (*Server, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = sched.DefaultWorkers()
	}
	s := &Server{
		cfg:     cfg,
		workers: workers,
		slots:   make(chan struct{}, workers),
		cache:   NewCache(),
		jobs:    map[string]*Job{},
		pending: map[cellRunner]int{},
	}
	if err := os.MkdirAll(s.jobsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Server) jobsDir() string { return filepath.Join(s.cfg.DataDir, "jobs") }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ledgerOptions builds the resilience options every job ledger opens
// with.
func (s *Server) ledgerOptions() []resilience.Option {
	if s.cfg.JournalSync {
		return []resilience.Option{resilience.WithSync()}
	}
	return nil
}

// recover scans the jobs directory and reloads every job: jobs with a
// terminal marker come back read-only (results replayable from their
// ledgers); the rest start again, where ledgered cells replay
// instantly and only genuinely unfinished cells simulate. A ledger torn
// mid-append by kill -9 is truncated to its valid prefix by
// resilience.Open, so the resumed run continues from exactly the cells
// that fully committed.
func (s *Server) recover() error {
	dirs, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	var ids []string
	for _, d := range dirs {
		if d.IsDir() {
			ids = append(ids, d.Name())
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := s.recoverJob(id); err != nil {
			// A damaged job directory must not take the daemon down
			// with it — log and keep recovering the rest.
			s.logf("job %s: not recovered: %v", id, err)
			continue
		}
		if n := jobSeq(id); n > s.seq {
			s.seq = n
		}
	}
	return nil
}

// jobSeq extracts the numeric part of a job ID ("j0007" → 7); 0 for
// foreign names.
func jobSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "j%d", &n); err != nil {
		return 0
	}
	return n
}

// recoverJob reloads one job directory.
func (s *Server) recoverJob(id string) error {
	dir := filepath.Join(s.jobsDir(), id)
	specData, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return err
	}
	var spec JobSpec
	if err := json.Unmarshal(specData, &spec); err != nil {
		return fmt.Errorf("spec.json: %w", err)
	}
	p, err := Resolve(spec)
	if err != nil {
		return err
	}
	meta := resilience.Meta{Tool: "javasmtd", Config: p.Identity()}

	var st persistedState
	if data, err := os.ReadFile(filepath.Join(dir, stateFile)); err == nil {
		if err := json.Unmarshal(data, &st); err != nil {
			return fmt.Errorf("%s: %w", stateFile, err)
		}
	}

	// The daemon may have died between writing spec.json and opening
	// the ledger; a job with no meta.json starts fresh.
	resume := true
	if _, err := os.Stat(filepath.Join(dir, "meta.json")); errors.Is(err, os.ErrNotExist) {
		resume = false
	}
	ledger, err := resilience.Open(dir, meta, resume, s.ledgerOptions()...)
	if err != nil {
		return err
	}
	jb := newJob(id, dir, p, ledger, s.cache)
	s.seedCache(jb)

	if st.State != "" && st.State != StateRunning {
		// Terminal before the crash: restore the state and the ledgered
		// results read-only; nothing re-runs.
		loadResults(jb)
		jb.mu.Lock()
		jb.state, jb.reason = st.State, st.Reason
		close(jb.doneCh)
		if jb.timer != nil {
			jb.timer.Stop()
		}
		jb.mu.Unlock()
		ledger.Close()
	} else if !s.start(jb, len(jb.cells)) {
		return fmt.Errorf("queue full while recovering")
	}
	// A resumed job's cells all run again: the ledgered ones replay
	// from the journal in microseconds (runCell's lookup path) and flow
	// through finish like any other completion, so progress counting
	// and the done transition need no resume-specific arithmetic.
	s.jobs[id] = jb
	s.order = append(s.order, id)
	s.logf("job %s: recovered (%s, %d/%d cells in ledger)", id, jb.status().State, jb.resumed, len(jb.cells))
	return nil
}

// seedCache loads a recovered job's completed payloads into the digest
// cache, so an identical campaign submitted after the restart is
// served without simulating.
func (s *Server) seedCache(jb *Job) {
	for _, c := range jb.cells {
		if e, ok := jb.ledger.Lookup(c.Label); ok && e.Status == resilience.StatusOK {
			s.cache.Put(jb.config, e.Cell, e.Payload)
		}
	}
}

// loadResults rebuilds a terminal job's results list from its ledger,
// in cell order, for replay over the results endpoint.
func loadResults(jb *Job) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	for _, c := range jb.cells {
		e, ok := jb.ledger.Lookup(c.Label)
		if !ok {
			continue
		}
		jb.results = append(jb.results, CellResult{Cell: e.Cell, Status: e.Status, Reason: e.Reason, Payload: e.Payload})
		if e.Status == resilience.StatusOK {
			jb.okCells++
		} else {
			jb.failed++
		}
	}
}

// Submit admits a campaign: validates the spec, persists it, opens the
// job's ledger and enqueues its cells. A queue-full rejection returns
// errBusy; validation problems return errBadSpec.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	p, err := Resolve(spec)
	if err != nil {
		return nil, &specError{err}
	}
	cells := p.cells()
	if len(cells) == 0 {
		return nil, &specError{fmt.Errorf("campaign has no cells")}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	if s.cfg.MaxJobs > 0 && s.activeLocked() >= s.cfg.MaxJobs {
		s.mu.Unlock()
		return nil, errBusy
	}
	s.seq++
	id := fmt.Sprintf("j%04d", s.seq)
	s.mu.Unlock()

	dir := filepath.Join(s.jobsDir(), id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	specData, err := canonicalSpec(spec)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "spec.json"), specData, 0o644); err != nil {
		return nil, err
	}
	ledger, err := resilience.Open(dir, resilience.Meta{Tool: "javasmtd", Config: p.Identity()}, false, s.ledgerOptions()...)
	if err != nil {
		return nil, err
	}
	jb := newJob(id, dir, p, ledger, s.cache)
	if !s.start(jb, len(jb.cells)) {
		// Admission refused: undo the directory so the rejected job
		// leaves no trace to recover.
		ledger.Close()
		os.RemoveAll(dir)
		return nil, errBusy
	}
	s.mu.Lock()
	s.jobs[id] = jb
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.logf("job %s: admitted (%s, %d cells)", id, spec.Kind, len(cells))
	return jb, nil
}

// activeLocked counts non-terminal jobs; caller holds s.mu.
func (s *Server) activeLocked() int {
	n := 0
	for _, jb := range s.jobs {
		if !jb.terminal() {
			n++
		}
	}
	return n
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	return jb, ok
}

// Jobs returns all jobs' statuses in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// start admits a job's n cells and runs them on a tracked goroutine.
// It refuses (false) when the server is draining or the queue bound
// would be exceeded — the caller turns that into an explicit 429-style
// rejection, keeping the daemon responsive for the jobs already
// admitted. Cells the job's ledger already holds run too: running them
// is a journal lookup, effectively free, so restart recovery needs no
// special path.
func (s *Server) start(jb cellRunner, n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || (s.cfg.MaxQueuedCells > 0 && s.queuedLocked()+n > s.cfg.MaxQueuedCells) {
		return false
	}
	s.pending[jb] = n
	s.runs.Add(1)
	go s.run(jb, n)
	return true
}

// run fans one job's cells across up to Workers goroutines; each cell
// waits for a server-wide slot. A cell of a canceled or failed job is
// skipped before it takes a slot.
func (s *Server) run(jb cellRunner, n int) {
	defer s.runs.Done()
	sched.ForEach(n, s.workers, func(cell int) error {
		if jb.terminal() {
			return nil
		}
		s.slots <- struct{}{}
		defer func() { <-s.slots }()
		if s.take(jb) {
			jb.runOne(cell)
		}
		return nil
	})
}

// take claims one of jb's pending cells for a slot holder. It refuses
// once jb is terminal or the server drains; a drained cell runs
// nothing and stays pending for the next daemon to resume.
func (s *Server) take(jb cellRunner) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || jb.terminal() {
		return false
	}
	s.pending[jb]--
	return true
}

// queuedLocked counts the cells not yet started across live jobs: a
// canceled or failed job's unstarted cells stop counting the moment it
// goes terminal. Caller holds s.mu.
func (s *Server) queuedLocked() int {
	n := 0
	for jb, k := range s.pending {
		if !jb.terminal() {
			n += k
		}
	}
	return n
}

// queued returns the queued cell count (for /healthz and tests).
func (s *Server) queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedLocked()
}

// Drain gracefully stops the server: new submissions are refused,
// in-flight cells finish and commit to their ledgers, queued cells are
// left for the next daemon to resume. Call before process exit on
// SIGTERM.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.runs.Wait()
	s.logf("drained: in-flight cells committed, %d jobs still resumable", s.unfinished())
}

// unfinished counts non-terminal jobs.
func (s *Server) unfinished() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activeLocked()
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	errBusy     = errors.New("service: at capacity")
	errDraining = errors.New("service: draining, not accepting jobs")
)

// specError wraps a spec-validation error (HTTP 400).
type specError struct{ err error }

func (e *specError) Error() string { return e.err.Error() }

// Handler returns the HTTP API:
//
//	POST   /jobs              submit a campaign spec, 202 + status
//	GET    /jobs              list all jobs
//	GET    /jobs/{id}         one job's status
//	GET    /jobs/{id}/results stream results as NDJSON (replay + live)
//	DELETE /jobs/{id}         cancel a job
//	GET    /healthz           liveness + queue depth
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/results", s.handleResults)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	return mux
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	hits, misses, size := s.cache.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"queued_cells": s.queued(),
		"active_jobs":  s.unfinished(),
		"cache":        map[string]int{"hits": hits, "misses": misses, "entries": size},
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	jb, err := s.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, jb.status())
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		var se *specError
		if errors.As(err, &se) {
			writeError(w, http.StatusBadRequest, "%v", se)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, jb.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	jb.cancel("canceled by client")
	s.logf("job %s: canceled by client", jb.id)
	writeJSON(w, http.StatusOK, jb.status())
}

// handleResults streams a job's cell results as NDJSON: everything
// completed so far, then live results as workers finish them, until
// the job goes terminal or the client disconnects.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	replay, live := jb.subscribe()
	for _, res := range replay {
		enc.Encode(res)
	}
	if flusher != nil {
		flusher.Flush()
	}
	if live == nil {
		return
	}
	for {
		select {
		case res, open := <-live:
			if !open {
				return
			}
			enc.Encode(res)
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}
