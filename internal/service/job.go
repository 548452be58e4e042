package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"javasmt/internal/harness"
	"javasmt/internal/resilience"
)

// JobState is a job's lifecycle state. Running covers queued and
// executing cells alike (cells start flowing the moment a job is
// admitted); the other three are terminal and persisted to the job
// directory, so a restarted daemon never re-runs a finished, canceled
// or broken job.
type JobState string

const (
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateCanceled JobState = "canceled"
	// StateFailed is a campaign-level fault — the job's ledger broke —
	// not a cell failure; failed cells leave the job in StateDone with
	// a nonzero failed-cell count, like a degraded CLI campaign.
	StateFailed JobState = "failed"
)

// CellResult is one streamed cell outcome: the NDJSON line
// GET /jobs/{id}/results emits as each cell completes.
type CellResult struct {
	Cell   string `json:"cell"`
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
	// Cached marks a result served from the daemon's result cache
	// instead of simulation (its bytes are identical either way).
	Cached  bool            `json:"cached,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// JobStatus is the GET /jobs/{id} view of a job.
type JobStatus struct {
	ID        string   `json:"id"`
	Kind      string   `json:"kind"`
	State     JobState `json:"state"`
	Total     int      `json:"total"`
	Completed int      `json:"completed"`
	OK        int      `json:"ok"`
	Failed    int      `json:"failed"`
	Cached    int      `json:"cached"`
	// Resumed counts cells recovered from the ledger at daemon restart.
	Resumed int    `json:"resumed,omitempty"`
	Error   string `json:"error,omitempty"`
}

// stateFile is the terminal-state marker inside a job directory; its
// absence means the job was still running when the daemon last died,
// and the next daemon resumes it from the ledger.
const stateFile = "state.json"

type persistedState struct {
	State  JobState `json:"state"`
	Reason string   `json:"reason,omitempty"`
}

// Job is one admitted campaign: its resolved spec, enumerated cells,
// per-job ledger, and live progress. The executor calls runOne
// concurrently; everything mutable is behind mu.
type Job struct {
	id     string
	dir    string
	plan   *Plan
	config string
	cells  []harness.CellSpec
	cfg    harness.Config
	ledger *resilience.Journal
	cache  *Cache

	// stop is the job's cancellation signal, wired into every cell's
	// resilience policy (CellPolicy.Stop): closing it aborts running
	// attempts from inside their cycle loops and skips retry waits.
	stop     chan struct{}
	stopOnce sync.Once
	timer    *time.Timer

	mu      sync.Mutex
	state   JobState
	reason  string
	results []CellResult
	okCells int
	failed  int
	cached  int
	resumed int
	subs    []chan CellResult
	doneCh  chan struct{} // closed on any terminal transition
}

// newJob builds a Job from a resolved plan and an open ledger.
func newJob(id, dir string, p *Plan, ledger *resilience.Journal, cache *Cache) *Job {
	jb := &Job{
		id: id, dir: dir, plan: p, config: p.Identity(),
		cells: p.cells(), cfg: p.Config(), ledger: ledger, cache: cache,
		stop:    make(chan struct{}),
		state:   StateRunning,
		resumed: ledger.Resumed(),
		doneCh:  make(chan struct{}),
	}
	jb.cfg.Policy.Stop = jb.stop
	jb.cfg.Journal = ledger
	if p.jobDL > 0 {
		jb.timer = time.AfterFunc(p.jobDL, func() {
			jb.cancel(fmt.Sprintf("job deadline %v exceeded", p.jobDL))
		})
	}
	return jb
}

// runOne executes one cell in an executor slot: ledger first (a
// recorded cell replays for free), then the cross-job result cache,
// then real simulation under the job's full resilience stack.
func (jb *Job) runOne(i int) {
	spec := jb.cells[i]
	if _, ok := jb.ledger.Lookup(spec.Label); !ok {
		if payload, hit := jb.cache.Get(jb.config, spec.Label); hit {
			// Record the cached bytes into this job's ledger so the
			// ledger stays the complete record of the job — identical
			// to what simulating would have written.
			if err := jb.ledger.Record(spec.Label, resilience.StatusOK, "", payload); err != nil {
				jb.fail(err)
				return
			}
			jb.finish(CellResult{Cell: spec.Label, Status: resilience.StatusOK, Cached: true, Payload: payload})
			return
		}
	}
	out, err := spec.Run(jb.cfg)
	if err != nil {
		jb.fail(err)
		return
	}
	if out.Fail != nil {
		jb.finish(CellResult{Cell: spec.Label, Status: resilience.StatusFailed, Reason: out.Fail.Reason()})
		return
	}
	jb.cache.Put(jb.config, spec.Label, out.Payload)
	jb.finish(CellResult{Cell: spec.Label, Status: resilience.StatusOK, Payload: out.Payload})
}

// finish records one completed cell, streams it to subscribers, and
// closes the job when it was the last.
func (jb *Job) finish(res CellResult) {
	jb.mu.Lock()
	jb.results = append(jb.results, res)
	switch {
	case res.Status == resilience.StatusFailed:
		jb.failed++
	case res.Cached:
		jb.cached++
		jb.okCells++
	default:
		jb.okCells++
	}
	if jb.state == StateRunning {
		for _, ch := range jb.subs {
			ch <- res // buffered to the job's cell count; never blocks
		}
		if len(jb.results) == len(jb.cells) {
			jb.terminalLocked(StateDone, "")
		}
	}
	jb.mu.Unlock()
}

// cancel cancels the job: it goes terminal immediately, so the
// executor starts none of its pending cells, and running cells are
// aborted through the Stop channel.
func (jb *Job) cancel(reason string) {
	jb.stopOnce.Do(func() { close(jb.stop) })
	jb.mu.Lock()
	if jb.state == StateRunning {
		jb.terminalLocked(StateCanceled, reason)
	}
	jb.mu.Unlock()
}

// fail marks a campaign-level fault (broken ledger): the job cannot
// make progress and goes terminal with the error recorded.
func (jb *Job) fail(err error) {
	jb.stopOnce.Do(func() { close(jb.stop) })
	jb.mu.Lock()
	if jb.state == StateRunning {
		jb.terminalLocked(StateFailed, err.Error())
	}
	jb.mu.Unlock()
}

// terminalLocked transitions to a terminal state: persists the marker,
// closes subscriber streams and the done channel, stops the deadline
// timer. Caller holds mu.
func (jb *Job) terminalLocked(state JobState, reason string) {
	jb.state, jb.reason = state, reason
	for _, ch := range jb.subs {
		close(ch)
	}
	jb.subs = nil
	close(jb.doneCh)
	if jb.timer != nil {
		jb.timer.Stop()
	}
	data, err := json.Marshal(persistedState{State: state, Reason: reason})
	if err == nil {
		err = os.WriteFile(filepath.Join(jb.dir, stateFile), append(data, '\n'), 0o644)
	}
	if err != nil && jb.state != StateFailed {
		// A job whose terminal marker cannot be written will be resumed
		// (done) or re-run (canceled) by the next daemon; record the
		// degradation but keep the in-memory state authoritative.
		jb.reason = fmt.Sprintf("%s (terminal marker not persisted: %v)", reason, err)
	}
}

// terminal reports whether the job has reached a terminal state.
func (jb *Job) terminal() bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.state != StateRunning
}

// status snapshots the job for the API.
func (jb *Job) status() JobStatus {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return JobStatus{
		ID:        jb.id,
		Kind:      jb.plan.spec.Kind,
		State:     jb.state,
		Total:     len(jb.cells),
		Completed: len(jb.results),
		OK:        jb.okCells,
		Failed:    jb.failed,
		Cached:    jb.cached,
		Resumed:   jb.resumed,
		Error:     jb.reason,
	}
}

// subscribe returns the results so far plus, for a still-running job,
// a channel of the rest. The channel is buffered to the job's full
// cell count so finish never blocks on a slow reader, and is closed
// when the job goes terminal.
func (jb *Job) subscribe() ([]CellResult, <-chan CellResult) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	replay := append([]CellResult(nil), jb.results...)
	if jb.state != StateRunning {
		return replay, nil
	}
	ch := make(chan CellResult, len(jb.cells))
	jb.subs = append(jb.subs, ch)
	return replay, ch
}
