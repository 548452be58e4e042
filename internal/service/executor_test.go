package service

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubRunner implements cellRunner for executor tests: it records
// which cells ran, optionally blocking each run until release is
// closed, and signals each start on started.
type stubRunner struct {
	mu       sync.Mutex
	ran      []int
	release  chan struct{} // if non-nil, runOne blocks until closed
	started  chan struct{} // receives one send per runOne entry
	canceled atomic.Bool   // terminal() once set
	gauge    *gauge        // if non-nil, tracks cells running at once
	wg       sync.WaitGroup
}

// gauge tracks how many stub cells run at once, across runners.
type gauge struct{ now, peak atomic.Int64 }

func newStubRunner(n int, blocking bool) *stubRunner {
	r := &stubRunner{started: make(chan struct{}, n)}
	if blocking {
		r.release = make(chan struct{})
	}
	r.wg.Add(n)
	return r
}

func (r *stubRunner) terminal() bool { return r.canceled.Load() }

func (r *stubRunner) runOne(cell int) {
	if r.gauge != nil {
		now := r.gauge.now.Add(1)
		for peak := r.gauge.peak.Load(); now > peak && !r.gauge.peak.CompareAndSwap(peak, now); peak = r.gauge.peak.Load() {
		}
		defer r.gauge.now.Add(-1)
	}
	r.started <- struct{}{}
	if r.release != nil {
		<-r.release
	}
	r.mu.Lock()
	r.ran = append(r.ran, cell)
	r.mu.Unlock()
	r.wg.Done()
}

func (r *stubRunner) cells() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.ran...)
}

// waitDone fails the test if the runner's cells don't all complete.
func (r *stubRunner) waitDone(t *testing.T) {
	t.Helper()
	done := make(chan struct{})
	go func() { r.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for runner cells")
	}
}

// TestDispatcherRunsEveryCellOnce fans three jobs of uneven sizes over
// several workers and checks each cell ran exactly once.
func TestDispatcherRunsEveryCellOnce(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	sizes := []int{5, 1, 9}
	runners := make([]*stubRunner, len(sizes))
	for i, n := range sizes {
		runners[i] = newStubRunner(n, false)
		if !s.start(runners[i], n) {
			t.Fatalf("start %d refused", i)
		}
	}
	for i, r := range runners {
		r.waitDone(t)
		got := r.cells()
		if len(got) != sizes[i] {
			t.Fatalf("runner %d: ran %d cells, want %d", i, len(got), sizes[i])
		}
		seen := map[int]bool{}
		for _, c := range got {
			if seen[c] {
				t.Fatalf("runner %d: cell %d ran twice", i, c)
			}
			seen[c] = true
			if c < 0 || c >= sizes[i] {
				t.Fatalf("runner %d: cell %d out of range", i, c)
			}
		}
	}
	s.Drain()
	if s.queued() != 0 {
		t.Fatalf("queued = %d after everything ran", s.queued())
	}
}

// TestDispatcherAdmission checks the queued-cell bound: submissions
// that would exceed it are refused while smaller ones are admitted.
func TestDispatcherAdmission(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxQueuedCells: 5})
	r1 := newStubRunner(3, true)
	if !s.start(r1, 3) {
		t.Fatal("first start refused with empty queue")
	}
	<-r1.started // one cell holds the slot; two remain queued
	r2 := newStubRunner(4, false)
	if s.start(r2, 4) {
		t.Fatal("start admitted past the queue bound (2+4 > 5)")
	}
	r3 := newStubRunner(3, false)
	if !s.start(r3, 3) {
		t.Fatal("start refused within the queue bound (2+3 <= 5)")
	}
	close(r1.release)
	r1.waitDone(t)
	r3.waitDone(t)
	s.Drain()
	if got := len(r2.cells()); got != 0 {
		t.Fatalf("refused runner ran %d cells", got)
	}
}

// TestDispatcherDropCancelsPending checks that a canceled job runs no
// further cells and stops counting against the queue bound, without
// touching other jobs.
func TestDispatcherDropCancelsPending(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	r1 := newStubRunner(2, true)
	if !s.start(r1, 2) {
		t.Fatal("start refused")
	}
	<-r1.started // r1 cell 0 holds the only slot
	r2 := newStubRunner(3, false)
	if !s.start(r2, 3) {
		t.Fatal("start refused")
	}
	if got := s.queued(); got != 4 {
		t.Fatalf("queued = %d before cancel, want 4", got)
	}
	r2.canceled.Store(true)
	if got := s.queued(); got != 1 {
		t.Fatalf("queued = %d after cancel, want r1's one pending cell", got)
	}
	close(r1.release)
	r1.waitDone(t)
	s.Drain()
	if got := len(r2.cells()); got != 0 {
		t.Fatalf("canceled runner ran %d cells", got)
	}
	if got := r1.cells(); len(got) != 2 {
		t.Fatalf("surviving runner ran %d cells, want 2", len(got))
	}
}

// TestDispatcherDrainLeavesQueuedCells checks drain finishes the
// in-flight cell but starts nothing more — queued cells stay pending
// for the next daemon to resume.
func TestDispatcherDrainLeavesQueuedCells(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	r := newStubRunner(3, true)
	r.wg.Add(-2) // only the in-flight cell will complete
	if !s.start(r, 3) {
		t.Fatal("start refused")
	}
	<-r.started // cell 0 holds the only slot
	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	// Wait for Drain to set the flag, then release the in-flight cell.
	for {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(r.release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not return")
	}
	if got := len(r.cells()); got != 1 {
		t.Fatalf("ran %d cells across drain, want exactly the in-flight one", got)
	}
	if s.queued() != 2 {
		t.Fatalf("queued = %d after drain, want 2", s.queued())
	}
	if s.start(newStubRunner(1, false), 1) {
		t.Fatal("start admitted while draining")
	}
}

// TestExecutorBoundsConcurrency starts three jobs on a two-slot server
// and checks that exactly two cells run at once across them, however
// many goroutines each job fans out.
func TestExecutorBoundsConcurrency(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	g := &gauge{}
	started := make(chan struct{}, 12)
	release := make(chan struct{})
	var runners []*stubRunner
	for range 3 {
		r := newStubRunner(4, true)
		r.started, r.release, r.gauge = started, release, g
		if !s.start(r, 4) {
			t.Fatal("start refused")
		}
		runners = append(runners, r)
	}
	<-started
	<-started
	select {
	case <-started:
		t.Fatal("a third cell started while two held both slots")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	for _, r := range runners {
		r.waitDone(t)
	}
	s.Drain()
	if peak := g.peak.Load(); peak != 2 {
		t.Fatalf("peak concurrent cells = %d, want 2", peak)
	}
}

// TestDefaultWorkersPerCPU checks that Workers 0 sizes the slot
// semaphore at one per CPU rather than running cells serially.
func TestDefaultWorkersPerCPU(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cap(s.slots), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers 0 gave %d slots, want GOMAXPROCS = %d", got, want)
	}
}
