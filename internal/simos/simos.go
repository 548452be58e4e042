// Package simos is the operating-system substrate: a timeslice scheduler
// in the style of the RedHat Linux 9 (2.4-series) kernel the paper ran,
// multiplexing software threads onto the processor's hardware contexts.
//
// It supplies each logical processor's core.Feed. Scheduling work is
// visible to the micro-architecture the same way it was in the paper:
// context-switch paths execute kernel-mode µops from a kernel code region
// (polluting the trace cache, ITLB and BTB), and — true to the O(n)
// 2.4 scheduler — the cost of picking the next thread grows with the run
// queue length, which is what makes the paper's "OS cycle percentage
// increases with the number of threads" observation come out of the
// model rather than being asserted.
//
// The kernel is geometry-aware: threads run on Seats (core × SMT context
// slot, core.Seat) rather than bare logical-processor indices, and a
// pluggable seating Policy (policy.go) is consulted at every dispatch
// boundary. The default nil policy is the seed FIFO timeslicer,
// byte-identical to the pre-policy kernel; metric-driven policies re-seat
// threads across cores, paying an explicit migration cost (the thread's
// tagged front-end state is flushed from its old seat and extra kernel
// µops are charged, counted as counters.ThreadMigrations).
package simos

import (
	"fmt"

	"javasmt/internal/core"
	"javasmt/internal/counters"
	"javasmt/internal/isa"
)

// Seat is the geometry-aware hardware-context identity threads are
// scheduled onto (core × SMT context slot). It aliases core.Seat: the
// kernel and its policies speak the same coordinates as the machine.
type Seat = core.Seat

// KernelCodeBase is the µop-granular PC base of kernel code. It is far
// from any user code region, so kernel execution drags its own lines into
// the trace cache and its own pages into the ITLB.
const KernelCodeBase = 1 << 31

// kernelDataBase is the byte address of kernel data structures.
const kernelDataBase = 0xF000_0000

// Params tunes the scheduler.
type Params struct {
	// Timeslice is the scheduling quantum in cycles. Real quanta are
	// tens of milliseconds; simulated runs are scaled down (DESIGN.md
	// §5), so the default keeps the switches-per-instruction ratio in
	// a realistic band for runs of 10^6-10^7 µops.
	Timeslice uint64
	// SwitchBaseUops is the fixed µop cost of a context switch.
	SwitchBaseUops int
	// SwitchPerThreadUops is the extra cost per runnable thread —
	// the O(n) goodness() scan of the 2.4 scheduler.
	SwitchPerThreadUops int
	// MigrationUops is the extra kernel-µop cost charged when a seating
	// policy dispatches a thread onto a different seat than it last ran
	// on (task-struct and run-queue rebalancing). It applies only under
	// a non-nil Policy: the seed FIFO timeslicer predates the migration
	// model and stays byte-identical to it.
	MigrationUops int
}

// DefaultParams returns the default scheduler tuning.
func DefaultParams() Params {
	return Params{Timeslice: 30_000, SwitchBaseUops: 120, SwitchPerThreadUops: 12, MigrationUops: 40}
}

// ThreadState is the lifecycle state of a software thread.
type ThreadState int

// Thread lifecycle states.
const (
	Runnable ThreadState = iota
	Running
	Blocked
	Exited
)

// String returns the state name.
func (s ThreadState) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Exited:
		return "exited"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Process groups threads that share an address space. Switching between
// threads of different processes invalidates the per-context virtually
// tagged front-end state, as a CR3 change did on the paper machine.
type Process struct {
	ID   int
	Name string
	k    *Kernel
}

// Thread is one schedulable software thread.
type Thread struct {
	ID   int
	Name string
	Proc *Process
	// Src feeds the thread's µops. The kernel drops it (sets it nil)
	// once it reports done, so an exited thread no longer keeps the
	// runtime behind it — a VM and its heap — reachable.
	Src isa.Source

	state ThreadState
	done  bool

	// Intrusive run-queue links: the FIFO queue is a doubly linked list
	// threaded through its members, so enqueue, dequeue-head and removal
	// of an arbitrary thread (Block, policy picks from the middle) are
	// all O(1) while preserving exact FIFO order.
	prev, next *Thread
	queued     bool

	// Seating history for policies: where the thread last ran and its
	// accumulated seated metrics (maintained only under a non-nil
	// Policy; the naive fast path skips the accounting).
	lastSeat   Seat
	everRan    bool
	ranCycles  uint64 // cycles spent seated
	ranRetired uint64 // µops retired while seated
	ranMisses  uint64 // core TC+L1D misses while seated (shared blame)
}

// State returns the thread's current lifecycle state.
func (t *Thread) State() ThreadState { return t.state }

// HasRun reports whether the thread has ever been dispatched.
func (t *Thread) HasRun() bool { return t.everRan }

// HasHistory reports whether the thread has accumulated seated metrics
// (at least one descheduled quantum under a metric-tracking policy), so
// IPC and CacheHostility are meaningful.
func (t *Thread) HasHistory() bool { return t.ranCycles > 0 }

// LastSeat returns the seat the thread last ran on (zero before its
// first dispatch; check HasRun).
func (t *Thread) LastSeat() Seat { return t.lastSeat }

// IPC returns the thread's lifetime retired-µops-per-cycle while seated
// — the symbiotic-ipc pairing signal. It is zero before the thread has
// history (and always under the naive fast path, which skips per-thread
// accounting).
func (t *Thread) IPC() float64 {
	if t.ranCycles == 0 {
		return 0
	}
	return float64(t.ranRetired) / float64(t.ranCycles)
}

// CacheHostility returns the TC+L1D misses per kilo-µop attributed to
// the thread while seated. The caches keep core-level miss totals, not
// per-context ones, so co-resident threads share the blame for a core's
// misses; the signal still separates cache-hostile threads from compute-
// bound ones, which is all the contention-aware policy needs.
func (t *Thread) CacheHostility() float64 {
	if t.ranRetired == 0 {
		return 0
	}
	return float64(t.ranMisses) * 1000 / float64(t.ranRetired)
}

// Kernel is the scheduler instance. It is not safe for concurrent use;
// the simulation is single-goroutine by design (deterministic replay).
type Kernel struct {
	cpu     *core.CPU
	file    *counters.File
	geo     core.Geometry
	params  Params
	policy  Policy
	procs   []*Process
	threads []*Thread
	cpus    []*cpuState
	nextTID int

	// FIFO run queue as an intrusive doubly linked list (see Thread).
	runqHead *Thread
	runqTail *Thread
	runqLen  int
	// blockedCount tracks threads in the Blocked state so Done() is O(1)
	// instead of scanning every thread ever spawned.
	blockedCount int

	view SchedView
}

type cpuState struct {
	k          *Kernel
	seat       Seat
	idx        int // flat LP index: the core.AttachFeed / obs-track shim
	current    *Thread
	lastProc   int // process that last ran here; -1 = none
	sliceStart uint64
	switchSeq  uint64 // varies kernel data addresses across switches
	runStart   uint64 // dispatch cycle of current, for the trace track

	// Dispatch-time metric snapshots, diffed at deschedule to attribute
	// retired µops and core misses to the departing thread (maintained
	// only under a non-nil Policy).
	startRetired uint64
	startMisses  uint64
}

// deschedule ends the thread's occupancy of this seat: it reports the
// dispatch-to-switch span to the run tracer (a detached observer makes
// that a no-op) and, under a metric-tracking policy, folds the seat's
// retired-µop and core-miss deltas into the thread's seated history.
func (c *cpuState) deschedule(t *Thread, now uint64) {
	k := c.k
	if r := k.cpu.Obs(); r != nil {
		r.ThreadSlice(c.idx, t.Name, c.runStart, now)
	}
	if k.policy != nil {
		d := k.cpu.SeatDyn(c.seat)
		t.ranCycles += now - c.runStart
		t.ranRetired += d.Retired - c.startRetired
		t.ranMisses += d.CoreTCMisses + d.CoreL1DMisses - c.startMisses
	}
	c.current = nil
}

// Options configures a kernel: scheduler tuning plus the seating policy.
// It is the single constructor-surface for every layer above (the
// harness's newKernel derives one from its own Options).
type Options struct {
	// Params tunes the timeslicer. Zero fields take their DefaultParams
	// values, so a partial override (say, only Timeslice) keeps the rest
	// of the tuning at the defaults.
	Params Params
	// Policy decides thread seating at dispatch boundaries. nil is the
	// seed FIFO timeslicer (the "naive" registry name), byte-identical
	// to the pre-policy kernel.
	Policy Policy
}

// New builds a kernel driving cpu under opts and wires its feeds into
// every hardware context.
func New(cpu *core.CPU, opts Options) *Kernel {
	def := DefaultParams()
	p := opts.Params
	if p.Timeslice == 0 {
		p.Timeslice = def.Timeslice
	}
	if p.SwitchBaseUops == 0 {
		p.SwitchBaseUops = def.SwitchBaseUops
	}
	if p.SwitchPerThreadUops == 0 {
		p.SwitchPerThreadUops = def.SwitchPerThreadUops
	}
	if p.MigrationUops == 0 {
		p.MigrationUops = def.MigrationUops
	}
	geo := cpu.Config().Geometry
	k := &Kernel{cpu: cpu, file: cpu.CountersFile(), geo: geo, params: p, policy: opts.Policy}
	k.view.k = k
	for i := 0; i < geo.Total(); i++ {
		cs := &cpuState{k: k, seat: geo.SeatOf(i), idx: i, lastProc: -1}
		k.cpus = append(k.cpus, cs)
		cpu.AttachFeed(i, cs)
	}
	return k
}

// Policy returns the kernel's seating policy (nil for the seed FIFO).
func (k *Kernel) Policy() Policy { return k.policy }

// Geometry returns the machine shape the kernel schedules onto.
func (k *Kernel) Geometry() core.Geometry { return k.geo }

// NewProcess registers a new address space.
func (k *Kernel) NewProcess(name string) *Process {
	p := &Process{ID: len(k.procs), Name: name, k: k}
	k.procs = append(k.procs, p)
	return p
}

// Spawn creates a runnable thread in process p fed by src.
func (p *Process) Spawn(name string, src isa.Source) *Thread {
	k := p.k
	t := &Thread{ID: k.nextTID, Name: name, Proc: p, Src: src, state: Runnable}
	k.nextTID++
	k.threads = append(k.threads, t)
	k.runqPush(t)
	return t
}

// Block marks t blocked. Threads call it (through the JVM) from inside
// their own Fill; the scheduler notices at the next feed boundary. It is
// legal to block an already-blocked thread (idempotent).
func (k *Kernel) Block(t *Thread) {
	if t.state == Exited {
		panic("simos: blocking an exited thread")
	}
	if t.state == Runnable {
		k.runqRemove(t)
	}
	if t.state != Blocked {
		k.blockedCount++
	}
	t.state = Blocked
	k.file.Inc(counters.MonitorBlocks)
}

// Unblock makes t runnable again. Unblocking a runnable/running thread is
// a no-op so wakeups can race benignly.
func (k *Kernel) Unblock(t *Thread) {
	if t.state != Blocked {
		return
	}
	t.state = Runnable
	k.blockedCount--
	k.runqPush(t)
}

// runqPush appends t to the run-queue tail (FIFO arrival order).
func (k *Kernel) runqPush(t *Thread) {
	if t.queued {
		panic("simos: thread already queued")
	}
	t.queued = true
	t.prev = k.runqTail
	t.next = nil
	if k.runqTail != nil {
		k.runqTail.next = t
	} else {
		k.runqHead = t
	}
	k.runqTail = t
	k.runqLen++
}

// runqRemove unlinks t from anywhere in the run queue in O(1),
// preserving the order of the remaining threads.
func (k *Kernel) runqRemove(t *Thread) {
	if !t.queued {
		return
	}
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		k.runqHead = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		k.runqTail = t.prev
	}
	t.prev, t.next = nil, nil
	t.queued = false
	k.runqLen--
}

// RunnableCount returns how many threads are runnable or running.
func (k *Kernel) RunnableCount() int {
	n := k.runqLen
	for _, c := range k.cpus {
		if c.current != nil {
			n++
		}
	}
	return n
}

// Threads returns all threads ever spawned. Exited threads keep their
// ID, name, process and Exited state, but their Src is nil.
func (k *Kernel) Threads() []*Thread { return k.threads }

// File exposes the machine's counter file so runtime layers above the
// kernel (the JVM) can record their own events.
func (k *Kernel) File() *counters.File { return k.file }

// --- core.Feed implementation (one per hardware context) ---

// Fill implements core.Feed.
func (c *cpuState) Fill(now uint64, buf []isa.Uop) int {
	k := c.k
	n := 0

	// Preempt on quantum expiry when someone else is waiting.
	if c.current != nil && k.runqLen > 0 && now-c.sliceStart >= k.params.Timeslice {
		prev := c.current
		c.deschedule(prev, now)
		prev.state = Runnable
		k.runqPush(prev)
	}

	// Dispatch a new thread if the seat is idle.
	if c.current == nil {
		if k.runqLen == 0 {
			return 0
		}
		next := k.runqHead
		if k.policy != nil {
			k.view.now = now
			next = k.policy.Pick(&k.view, c.seat)
			if next == nil {
				// The policy parked the seat (e.g. spreading across
				// cores before sharing contexts). Another idle seat
				// always accepts, so the queue still drains.
				return 0
			}
			if !next.queued {
				panic(fmt.Sprintf("simos: policy %q picked a thread that is not on the run queue", k.policy.Name()))
			}
		}
		k.runqRemove(next)
		extra := 0
		if next.everRan && next.lastSeat != c.seat {
			// Re-seating: the thread last ran somewhere else. The event
			// is counted under every policy; the migration cost model
			// (old-seat flush + extra kernel µops) applies only under a
			// seating policy — the seed FIFO timeslicer predates it and
			// stays byte-identical.
			k.file.Inc(counters.ThreadMigrations)
			if k.policy != nil {
				k.cpu.FlushSeat(next.lastSeat)
				extra = k.params.MigrationUops
			}
		}
		n += c.emitSwitch(buf[n:], k.runqLen+1, extra)
		if c.lastProc != next.Proc.ID {
			// Address-space change: drop this seat's virtually tagged
			// front-end state (trace lines, BTB, ITLB part).
			k.cpu.FlushSeat(c.seat)
		}
		c.lastProc = next.Proc.ID
		c.current = next
		next.state = Running
		next.everRan = true
		next.lastSeat = c.seat
		c.sliceStart = now
		c.runStart = now
		if k.policy != nil {
			d := k.cpu.SeatDyn(c.seat)
			c.startRetired = d.Retired
			c.startMisses = d.CoreTCMisses + d.CoreL1DMisses
		}
		k.file.Inc(counters.ContextSwitches)
	}

	// Run the current thread into the remaining buffer space.
	if n < len(buf) {
		got, done := c.current.Src.Fill(buf[n:])
		n += got
		switch {
		case done:
			cur := c.current
			c.deschedule(cur, now)
			cur.state = Exited
			cur.done = true
			cur.Src = nil
		case c.current.state == Blocked:
			// The thread blocked itself mid-fill (monitor, GC wait).
			c.deschedule(c.current, now)
		case got == 0 && n == 0:
			// A source returning 0 into an empty buffer without
			// blocking or finishing would spin the front end forever.
			// (got == 0 after switch µops is fine: sources may need
			// more space than the switch left over.)
			panic(fmt.Sprintf("simos: thread %q produced no µops while runnable", c.current.Name))
		}
	}
	return n
}

// Runnable implements core.Feed.
func (c *cpuState) Runnable(uint64) bool {
	return c.current != nil || c.k.runqLen > 0
}

// Done implements core.Feed. The blocked-thread check is O(1): the
// kernel maintains a count of Blocked threads across Block/Unblock
// instead of scanning every thread ever spawned.
func (c *cpuState) Done() bool {
	return c.current == nil && c.k.runqLen == 0 && c.k.blockedCount == 0
}

// emitSwitch writes the context-switch kernel path: save/restore µops plus
// the O(n) run-queue scan, plus any extra migration µops. All are
// kernel-mode with kernel PCs, so the switch has the same front-end
// footprint consequences as real kernel entry did on the paper machine.
func (c *cpuState) emitSwitch(buf []isa.Uop, queueLen, extra int) int {
	k := c.k
	total := k.params.SwitchBaseUops + k.params.SwitchPerThreadUops*queueLen + extra
	if total > len(buf) {
		total = len(buf)
	}
	c.switchSeq++
	base := uint64(kernelDataBase) + uint64(c.idx)<<16
	n := 0
	for n < total {
		pc := uint64(KernelCodeBase) + uint64(n%512)
		switch n % 8 {
		case 0: // load task struct field
			buf[n] = isa.Uop{PC: pc, Class: isa.Load, Addr: base + (c.switchSeq*64+uint64(n)*8)%4096, Kernel: true}
		case 3: // store register save area
			buf[n] = isa.Uop{PC: pc, Class: isa.Store, Addr: base + 4096 + uint64(n)*8%2048, Kernel: true, DepDist: 1}
		case 6: // loop branch over the run queue scan
			buf[n] = isa.Uop{PC: pc, Class: isa.Branch, Taken: n+8 < total, Target: pc - 6, Kernel: true}
		default:
			buf[n] = isa.Uop{PC: pc, Class: isa.ALU, DepDist: uint8(n % 2), Kernel: true}
		}
		n++
	}
	return n
}
