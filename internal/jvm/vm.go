// Package jvm is the Java Virtual Machine substrate: a bytecode
// interpreter with a garbage-collected heap, Java monitors and Java
// threads, executing programs from internal/bytecode and emitting the
// µop streams the SMT core consumes.
//
// The design mirrors what mattered about Sun JRE 1.4.2 in the paper:
//
//   - The VM itself is multithreaded even for single-threaded programs:
//     a garbage-collector helper thread exists from startup, so "the
//     whole JVM usually is a multithreaded application" holds here too.
//   - The instruction stream has the footprint of compiled Java code:
//     each bytecode occupies real code addresses (laid out at link time)
//     and calls/returns traverse method boundaries, so big-code programs
//     (javac, jack, jess) pressure the trace cache, ITLB and BTB exactly
//     as the paper observes.
//   - Data traffic comes from a real heap: objects and arrays live at
//     simulated addresses, and the collector traverses the actual object
//     graph when it runs.
package jvm

import (
	"fmt"

	"javasmt/internal/bytecode"
	"javasmt/internal/counters"
	"javasmt/internal/simos"
)

// Config sizes one VM instance.
type Config struct {
	// HeapBytes is the collected heap size. The paper configured 512 MB;
	// simulated runs are scaled down (DESIGN.md §5) and the default is
	// 32 MB. Live sets of the benchmarks scale with their inputs, so GC
	// frequency stays in a realistic band.
	HeapBytes int
	// HeapBase is the simulated base address of the heap. Distinct VM
	// instances (multiprogrammed runs) must use distinct bases.
	HeapBase uint64
	// GCThreshold is the live-heap fraction above which allocation
	// requests a collection.
	GCThreshold float64
	// GCWorkChunk is how many mark/sweep steps the collector performs
	// per scheduling quantum slice of its µop stream.
	GCWorkChunk int
}

// DefaultConfig returns the standard VM configuration.
func DefaultConfig() Config {
	return Config{
		HeapBytes:   32 << 20,
		HeapBase:    0x2000_0000,
		GCThreshold: 0.80,
		GCWorkChunk: 4096,
	}
}

// Layout constants relative to HeapBase. Each VM carves one contiguous
// simulated region: globals, then per-thread stacks, then the heap.
const (
	globalsWords   = 8192
	stackBytesPer  = 1 << 16
	maxThreadCount = 64
)

// blockReason records why a thread is blocked, so GC-safepoint wakeups
// do not disturb monitor or join waits.
type blockReason int

const (
	notBlocked blockReason = iota
	blockMonitor
	blockJoin
	blockGCWait   // mutator waiting for a collection it requested
	blockSafept   // mutator stopped at a GC safepoint
	blockGCIdle   // the collector thread waiting for work
	blockFinished // bookkeeping for exited threads
)

// monitor is a Java object monitor.
type monitor struct {
	owner   *Thread
	depth   int
	waiters []*Thread
}

// VM is one running Java virtual machine (one simulated process).
type VM struct {
	prog   *bytecode.Program
	kernel *simos.Kernel
	proc   *simos.Process
	cfg    Config
	file   *counters.File

	heap        *heap
	globals     []uint64
	globalsBase uint64
	stacksBase  uint64

	threads  []*Thread
	gcThread *Thread

	monitors map[uint64]*monitor

	// Collector coordination.
	gcRequested bool
	gcRunning   bool
	gcWaiters   []*Thread
	safepointed []*Thread
	gcCount     int
	shutdown    bool

	// Statistics.
	allocs     uint64
	allocWords uint64
}

// New creates a VM for prog (already linked) as a fresh process under
// kernel. Call Start to spawn the main and collector threads.
func New(prog *bytecode.Program, kernel *simos.Kernel, cfg Config) *VM {
	if cfg.HeapBytes == 0 {
		cfg = DefaultConfig()
	}
	vm := &VM{
		prog:     prog,
		kernel:   kernel,
		proc:     kernel.NewProcess(prog.Name),
		cfg:      cfg,
		monitors: make(map[uint64]*monitor),
	}
	vm.file = kernelFile(kernel)
	vm.globalsBase = cfg.HeapBase
	vm.stacksBase = cfg.HeapBase + globalsWords*8
	heapStart := vm.stacksBase + maxThreadCount*stackBytesPer
	vm.heap = newHeap(heapStart, cfg.HeapBytes/8)
	vm.globals = make([]uint64, max(prog.NumGlobals, 1))
	return vm
}

// kernelFile reaches the kernel's counter file; kept in a helper so the
// jvm package touches simos internals in exactly one place.
func kernelFile(k *simos.Kernel) *counters.File { return k.File() }

// Program returns the loaded program.
func (vm *VM) Program() *bytecode.Program { return vm.prog }

// Global returns global slot i — benchmarks publish checksums there.
func (vm *VM) Global(i int) uint64 { return vm.globals[i] }

// GlobalFloat returns global slot i reinterpreted as a float64.
func (vm *VM) GlobalFloat(i int) float64 { return f64(vm.globals[i]) }

// GCCount returns how many collections have completed.
func (vm *VM) GCCount() int { return vm.gcCount }

// AllocStats returns the object count and total words allocated.
func (vm *VM) AllocStats() (objects, words uint64) { return vm.allocs, vm.allocWords }

// Start spawns the main thread (the program entry) and the collector
// thread. The simulation then runs through the kernel/CPU as usual.
func (vm *VM) Start() *Thread {
	main := vm.newThread("main", vm.prog.Methods[vm.prog.Entry], nil)
	vm.gcThread = vm.newGCThread()
	// The collector parks until a mutator requests a collection.
	vm.blockThread(vm.gcThread, blockGCIdle)
	return main
}

// newThread creates a Java thread executing m with the given arguments
// and registers it with the OS. The arguments' reference bits come from
// m's declaration; they start with no producer.
func (vm *VM) newThread(name string, m *bytecode.Method, args []slot) *Thread {
	if len(vm.threads) >= maxThreadCount {
		panic("jvm: thread limit exceeded")
	}
	t := &Thread{vm: vm, id: len(vm.threads), name: name}
	f := t.pushFrame(m)
	for i, a := range args {
		f.slots[i] = slot{v: a.v, ref: m.ArgRefMask&(1<<uint(i)) != 0}
	}
	t.stackBase = vm.stacksBase + uint64(t.id)*stackBytesPer
	vm.threads = append(vm.threads, t)
	t.osThread = vm.proc.Spawn(name, t)
	return t
}

// blockThread parks t in the OS with the given reason. Blocking is a
// full memory barrier: the thread's store buffer drains first, so a
// stopped-world collector (and every other thread) sees all of its
// global stores — buffered reference stores must be visible roots
// before a mark phase can run.
func (vm *VM) blockThread(t *Thread, why blockReason) {
	t.sbDrain()
	t.blocked = why
	vm.kernel.Block(t.osThread)
}

// unblockThread resumes t.
func (vm *VM) unblockThread(t *Thread) {
	t.blocked = notBlocked
	t.waitMon = nil
	t.waitJoin = nil
	vm.kernel.Unblock(t.osThread)
}

// --- Monitors ---

// monEnter attempts to acquire the monitor of the object at addr for t.
// It returns true on success; on contention it blocks t and returns false
// (the interpreter re-executes the instruction when rescheduled).
func (vm *VM) monEnter(t *Thread, addr uint64) bool {
	m := vm.monitors[addr]
	if m == nil {
		m = &monitor{}
		vm.monitors[addr] = m
	}
	switch m.owner {
	case nil:
		// Lock acquisition is an atomic RMW (x86 lock cmpxchg): a full
		// fence that drains the acquirer's store buffer.
		t.sbDrain()
		m.owner = t
		m.depth = 1
		vm.file.Inc(counters.LockAcquires)
		return true
	case t:
		m.depth++
		vm.file.Inc(counters.LockAcquires)
		return true
	default:
		vm.checkDeadlock(t, m)
		t.waitMon = m
		m.waiters = append(m.waiters, t)
		vm.file.Inc(counters.LockContended)
		vm.file.Inc(counters.Syscalls)
		vm.blockThread(t, blockMonitor)
		vm.maybeStartGC()
		return false
	}
}

// checkDeadlock walks the waits-for graph (thread → monitor owner or
// join target) from the monitor t is about to block on. If the walk
// returns to t, blocking would close a cycle no future wakeup can
// break, so it panics with a structured "jvm: " error — the resilience
// layer turns it into a CellError instead of a cell hung until its
// cycle budget expires.
func (vm *VM) checkDeadlock(t *Thread, m *monitor) {
	cur := m.owner
	for steps := 0; cur != nil && steps <= maxThreadCount; steps++ {
		if cur == t {
			panic(fmt.Sprintf("jvm: deadlock: thread %q blocking on monitor held across a waits-for cycle", t.name))
		}
		switch cur.blocked {
		case blockMonitor:
			if cur.waitMon == nil {
				return
			}
			cur = cur.waitMon.owner
		case blockJoin:
			cur = cur.waitJoin
		default:
			return // running or unblockable-for-other-reasons: no cycle
		}
	}
}

// checkJoinDeadlock is the join-edge analogue of checkDeadlock: t is
// about to wait for target to exit, so a waits-for path from target
// back to t can never make progress.
func (vm *VM) checkJoinDeadlock(t, target *Thread) {
	cur := target
	for steps := 0; cur != nil && steps <= maxThreadCount; steps++ {
		if cur == t {
			panic(fmt.Sprintf("jvm: deadlock: thread %q joining thread %q across a waits-for cycle", t.name, target.name))
		}
		switch cur.blocked {
		case blockMonitor:
			if cur.waitMon == nil {
				return
			}
			cur = cur.waitMon.owner
		case blockJoin:
			cur = cur.waitJoin
		default:
			return
		}
	}
}

// monExit releases the monitor of the object at addr.
func (vm *VM) monExit(t *Thread, addr uint64) {
	m := vm.monitors[addr]
	if m == nil || m.owner != t {
		panic(fmt.Sprintf("jvm: thread %q releasing monitor %#x it does not own", t.name, addr))
	}
	// Release: everything stored inside the critical section must be
	// visible before the next owner can observe the lock as free.
	t.sbDrain()
	m.depth--
	if m.depth > 0 {
		return
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	// Direct handoff to the first waiter. Depth starts at zero: the
	// waiter re-executes its MonEnter when rescheduled, and the
	// owner==self path will bump the depth to one.
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.owner = next
	m.depth = 0
	vm.unblockThread(next)
}

// --- Volatile globals and compare-and-swap ---

// putVolatile performs a volatile store to global slot: a release
// operation that drains the thread's store buffer (older plain stores
// become visible first, preserving TSO store order) and then publishes
// the value itself.
func (vm *VM) putVolatile(t *Thread, slot int32, v uint64) {
	t.sbDrain()
	vm.globals[slot] = v
}

// cas atomically compare-and-swaps global slot from expected to nv,
// reporting success. It is a full fence: the buffer drains first, and
// the read-modify-write hits the globally visible array directly.
func (vm *VM) cas(t *Thread, slot int32, expected, nv uint64) bool {
	t.sbDrain()
	vm.file.Inc(counters.CASOps)
	if vm.globals[slot] != expected {
		vm.file.Inc(counters.CASFailures)
		return false
	}
	vm.globals[slot] = nv
	return true
}

// --- Thread intrinsics ---

// threadStart spawns a Java thread running method m with args and returns
// its id.
func (vm *VM) threadStart(t *Thread, m *bytecode.Method, args []slot) int {
	// Spawning is a release: the child must see every global store the
	// parent made before the start.
	t.sbDrain()
	nt := vm.newThread(m.Name, m, args)
	vm.file.Inc(counters.Syscalls)
	return nt.id
}

// threadJoin makes t wait for target to exit; returns true if it already
// has (no blocking needed).
func (vm *VM) threadJoin(t *Thread, targetID int) bool {
	if targetID < 0 || targetID >= len(vm.threads) {
		panic(fmt.Sprintf("jvm: join on invalid thread id %d", targetID))
	}
	target := vm.threads[targetID]
	if target.exited {
		return true
	}
	vm.checkJoinDeadlock(t, target)
	t.waitJoin = target
	target.joinWaiters = append(target.joinWaiters, t)
	vm.file.Inc(counters.Syscalls)
	vm.blockThread(t, blockJoin)
	vm.maybeStartGC()
	return false
}

// OnExit registers fn to run, on the simulation goroutine, when t exits.
// The harness uses it to drive the paper's relaunch-until-N-runs pairing
// protocol.
func OnExit(t *Thread, fn func()) { t.onExit = append(t.onExit, fn) }

// threadExited finalizes t: wakes joiners and, when the last mutator is
// gone, tells the collector to shut down so the process can terminate.
func (vm *VM) threadExited(t *Thread) {
	// Thread exit is a release: the exiting thread's plain global stores
	// become visible before any joiner resumes.
	t.sbDrain()
	t.exited = true
	t.blocked = blockFinished
	for _, w := range t.joinWaiters {
		vm.unblockThread(w)
	}
	t.joinWaiters = nil
	for _, fn := range t.onExit {
		fn()
	}
	t.onExit = nil
	if vm.liveMutators() == 0 {
		vm.shutdown = true
		if vm.gcThread != nil && vm.gcThread.blocked == blockGCIdle {
			vm.unblockThread(vm.gcThread)
		}
	} else {
		vm.maybeStartGC()
	}
}

func (vm *VM) liveMutators() int {
	n := 0
	for _, t := range vm.threads {
		if t != vm.gcThread && !t.exited {
			n++
		}
	}
	return n
}

// --- Allocation & GC coordination ---

// allocate tries to carve an object; on heap pressure it requests a
// collection and blocks t (returning -1 so the interpreter retries the
// instruction). A thread that has already waited for a collection forces
// the allocation through, so a live set above the GC threshold degrades
// into back-to-back collections rather than a livelock; if even the
// forced attempt fails the program is genuinely out of memory.
// dataWords is the payload size; kind/classOrLen fill the header.
func (vm *VM) allocate(t *Thread, dataWords int, kind, classOrLen int32) int {
	pressure := vm.heap.occupancy() > vm.cfg.GCThreshold
	if !pressure || t.gcRetried {
		if idx := vm.heap.alloc(dataWords, kind, classOrLen); idx >= 0 {
			t.gcRetried = false
			vm.allocs++
			vm.allocWords += uint64(dataWords + headerWords)
			return idx
		}
		if t.gcRetried {
			panic(fmt.Sprintf("jvm: OutOfMemoryError: %d-word allocation, live %.0f%% of %d bytes",
				dataWords, 100*vm.heap.occupancy(), vm.cfg.HeapBytes))
		}
	}
	// Request a collection and wait for it.
	t.gcRetried = true
	vm.gcRequested = true
	vm.gcWaiters = append(vm.gcWaiters, t)
	vm.file.Inc(counters.Syscalls)
	vm.blockThread(t, blockGCWait)
	vm.maybeStartGC()
	return -1
}

// enterSafepoint parks t because a collection is pending. The interpreter
// calls it from loop back-edges and method entries.
func (vm *VM) enterSafepoint(t *Thread) {
	vm.safepointed = append(vm.safepointed, t)
	vm.blockThread(t, blockSafept)
	vm.maybeStartGC()
}

// safepointPending reports whether t must stop for a collection.
func (vm *VM) safepointPending(t *Thread) bool {
	return vm.gcRequested && !vm.gcRunning && t != vm.gcThread
}

// maybeStartGC wakes the collector once every live mutator has stopped
// (at a safepoint or blocked for any other reason).
func (vm *VM) maybeStartGC() {
	if !vm.gcRequested || vm.gcRunning {
		return
	}
	for _, t := range vm.threads {
		if t == vm.gcThread || t.exited {
			continue
		}
		if t.blocked == notBlocked {
			return
		}
	}
	vm.gcRunning = true
	vm.unblockThread(vm.gcThread)
}

// gcFinished releases the stopped world.
func (vm *VM) gcFinished() {
	vm.gcRequested = false
	vm.gcRunning = false
	vm.gcCount++
	for _, t := range vm.safepointed {
		vm.unblockThread(t)
	}
	vm.safepointed = vm.safepointed[:0]
	for _, t := range vm.gcWaiters {
		vm.unblockThread(t)
	}
	vm.gcWaiters = vm.gcWaiters[:0]
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
