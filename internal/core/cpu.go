package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"javasmt/internal/branch"
	"javasmt/internal/cache"
	"javasmt/internal/check"
	"javasmt/internal/counters"
	"javasmt/internal/isa"
	"javasmt/internal/mem"
	"javasmt/internal/obs"
	"javasmt/internal/tlb"
)

// Feed supplies the µop stream of one logical processor. The OS substrate
// implements it by multiplexing software threads; tests implement it
// directly from isa sources.
//
// Runnable and Done may change only during a Fill call on a feed of the
// same CPU (a thread exit, an unblock, a spawn — possibly of another
// context's feed), or between Run/RunFunctional calls. The cycle loop
// relies on that rule: it caches every feed's Runnable/Done answers and
// re-polls them only after a Fill, an AttachFeed, a Reset or on entry to
// Run/RunFunctional, so a feed whose answers change with now alone, or
// behind the CPU's back mid-run, is not supported.
type Feed interface {
	// Fill writes up to len(buf) µops for cycle now and returns how
	// many were written. Returning 0 means nothing is runnable right
	// now on this logical CPU.
	Fill(now uint64, buf []isa.Uop) int
	// Runnable reports whether the feed could produce µops at cycle now.
	Runnable(now uint64) bool
	// Done reports that the feed will never produce µops again.
	Done() bool
}

// calendar bounds the number of µops beginning execution on any one cycle
// (the issue-port model): slot[uint16(cycle)] counts the µops claimed on
// that cycle. Claims are only ever made inside the horizon (now, now +
// calSlots), where each slot stands for exactly one cycle, and the clock
// clears the slot of every cycle it reaches (tick), so a slot holds no
// stale count from an earlier lap and needs no cycle tag. The ring is a
// fixed-size array so indexing by uint16 needs no bounds check; at two
// bytes a slot it is 128 KB per core, and the slots a cycle probes share
// host cache lines.
type calendar struct {
	slot  *[calSlots]uint16
	width int
}

const (
	calSlots = 1 << 16
	calMask  = calSlots - 1
)

func newCalendar(width int) calendar {
	return calendar{slot: new([calSlots]uint16), width: width}
}

// schedule returns the first cycle >= want with a free issue slot and
// claims it. Cycles beyond the ring horizon (now + calSlots onward) are
// admitted unconstrained (they are rare, deeply memory-bound cases where
// ports are not the bottleneck).
func (c *calendar) schedule(want, now uint64) uint64 {
	if want-now > calMask {
		return want
	}
	// want is inside the horizon, so probing forward reaches its end
	// exactly; the horizon test is the loop bound.
	for end := now + calSlots; want != end; want++ {
		if s := &c.slot[uint16(want)]; int(*s) < c.width {
			*s++
			return want
		}
	}
	return want
}

// robEntry is one in-flight µop: its completion cycle and the attributes
// retirement accounting needs.
type robEntry struct {
	done   uint64
	kernel bool
	load   bool
	store  bool
}

const depMask = 255 // dependency history window per context (power of two - 1)

// coreBlock is one physical core: the pipeline resources and private
// level-1 structures its SMT contexts share. On a one-core machine it is
// exactly the paper's P4; a multi-core machine replicates it per core
// over one shared L2 and DRAM channel.
type coreBlock struct {
	id int // core index
	lo int // global index of this core's first context
	// ctxs are the core's contexts, in local order (global index lo+i).
	ctxs []*context

	cal  calendar
	tc   *cache.TraceCache
	hier *cache.Hierarchy // private L1D over the shared L2
	itlb *tlb.TLB
	dtlb *tlb.TLB
	pred *branch.Predictor

	// decodeBusyUntil models the core's single shared x86 decode pipeline
	// that rebuilds traces after a trace-cache miss: while it is busy, the
	// core's *other* contexts cannot fetch either. Solo runs are
	// unaffected (the missing context is already stalled longer), but two
	// co-scheduled trace-thrashing programs serialize each other — the
	// coupling behind the paper's bad-partner slowdowns.
	decodeBusyUntil uint64

	// Occupancy totals across the core's contexts, maintained
	// incrementally at allocate/retire so dynamic partitioning needs no
	// per-µop scan.
	totRob, totLoads, totStores int

	activity
}

// activity holds a core's per-context state as bitmasks, bit lid per
// context, so the cycle loop derives activity with a few word operations
// per core instead of walking every context (DESIGN.md §11). The masks are
// updated where the state they mirror changes: ROB push and retire, the
// end of fetchInto and funcExec, AttachFeed and Reset.
type activity struct {
	attached uint32 // a feed is bound
	robBusy  uint32 // robCount > 0
	bufBusy  uint32 // bufPos < bufLen
	kern     uint32 // inKernel
	// feedRun and feedLive cache each bound feed's Runnable and !Done,
	// re-polled only while CPU.feedDirty is set (see Feed).
	feedRun  uint32
	feedLive uint32
	// act is Step's snapshot of the core's active contexts for this
	// cycle: attached, with work in flight, buffered or runnable.
	act uint32
	// head[lid] is the completion cycle of the context's oldest in-flight
	// µop, 0 while its ROB is empty (one entry per mask bit), kept at ROB
	// push and retire so retirement can see that nothing is due without
	// touching the context.
	head [32]uint64
}

// context is the per-logical-processor state.
type context struct {
	feed Feed

	// cb is the owning physical core; lid the context's local index on
	// it. Structure lookups use lid (a core's private caches know nothing
	// of other cores' contexts); the harness and OS use the global index
	// cb.lo + lid.
	cb  *coreBlock
	lid int

	// retired counts µops retired by this context (detailed retirement
	// plus functional execution), for per-context attribution.
	retired uint64

	// Front-end buffer of fetched-but-not-allocated µops.
	buf    []isa.Uop
	bufPos int
	bufLen int

	// blockedUntil stalls fetch/allocate (TC miss, mispredict refill,
	// syscall drain).
	blockedUntil uint64

	// Trace-line tracking: a TC lookup happens only when fetch crosses
	// into a new trace line. lineBase is the first µop PC of the current
	// line and line its index, so the crossing test is a subtract-and-
	// compare instead of a divide per µop (trace lines hold 6 µops — not a
	// power of two), and a fall-through into the next line needs no
	// divide at all (crossLine).
	lineBase uint64
	line     uint64
	haveLine bool

	// ROB ring buffer.
	rob        []robEntry
	robHead    int
	robTail    int
	robCount   int
	loadsOut   int
	storesOut  int
	maxDone    uint64 // completion time of the latest-finishing µop in flight
	inKernel   bool
	deps       [depMask + 1]uint64
	depIdx     uint64
	drainFence bool // serialize: no allocation until ROB empties
}

func (x *context) robEmpty() bool { return x.robCount == 0 }

// crossLine moves the context's trace-line cursor to the line holding pc,
// which lies outside the current line, and returns the new line's index:
// the next line when fetch falls through into it, else pc/lineUops.
func (x *context) crossLine(pc, lineUops uint64) uint64 {
	if x.haveLine && pc-x.lineBase-lineUops < lineUops {
		x.line++
		x.lineBase += lineUops
	} else {
		x.line = pc / lineUops
		x.lineBase, x.haveLine = x.line*lineUops, true
	}
	return x.line
}

// bit is the context's bit in its core's activity masks.
func (x *context) bit() uint32 { return 1 << uint(x.lid) }

func (x *context) robPush(e robEntry) {
	if x.robCount == 0 {
		x.cb.head[x.lid] = e.done
	}
	x.rob[x.robTail] = e
	x.robTail++
	if x.robTail == len(x.rob) {
		x.robTail = 0
	}
	x.robCount++
	x.cb.robBusy |= x.bit()
}

// syncFront refreshes the context's bufBusy and kern bits after its front
// end consumed buffered µops (fetchInto, funcExec).
func (x *context) syncFront() {
	cb, b := x.cb, x.bit()
	cb.bufBusy &^= b
	cb.kern &^= b
	if x.bufPos < x.bufLen {
		cb.bufBusy |= b
	}
	if x.inKernel {
		cb.kern |= b
	}
}

// CPU is the simulated processor: Geometry.Cores coreBlocks over one
// shared L2 and DRAM channel. The flat ctxs slice indexes every logical
// processor machine-wide (core-major: core i owns contexts
// [i*ContextsPerCore, (i+1)*ContextsPerCore)).
type CPU struct {
	cfg   Config
	now   uint64
	ctxs  []*context
	cores []*coreBlock

	// Hot-path constants hoisted out of the per-µop allocate loop: the
	// partition caps and trace-line geometry never change during a run.
	robCapV, loadCapV, storeCapV int
	dynPart                      bool
	tcLineUops                   uint64
	// cpc is the per-core context count: the modulus of the front-end
	// and retirement rotations. rot is now % cpc, kept in step with the
	// clock (tick) so the per-cycle rotation needs no divide.
	cpc uint64
	rot uint64
	// lat is the base execution latency of each µop class (Params);
	// loads and stores have 0 here and take theirs from the data
	// hierarchy.
	lat [16]int

	// feedDirty marks the cached feed answers in each core's activity
	// masks stale: set by every Fill call, AttachFeed, Reset and entry to
	// Run/RunFunctional, cleared when Step re-polls the feeds.
	feedDirty bool

	// occBuf is the per-core occupancy snapshot buffer (observe.go).
	occBuf []int

	// Pipeline-flow audit counters for the invariant layer (see
	// invariants.go): µops delivered by feeds, allocated into the ROB,
	// and retired. Updated only when the `checks` build tag is active.
	ckFed, ckAlloc, ckRetired uint64
	// ckFunc counts µops executed by the functional path (functional.go):
	// they pass through all three flow stages in one step, so they appear
	// in every audit above but never in the retirement histogram, which
	// only detailed cycles advance.
	ckFunc uint64

	// l2 is the chip-wide unified L2 every core's hierarchy drains into;
	// dram the memory channel behind it.
	l2   *cache.Cache
	dram *mem.DRAM

	file counters.File

	// Observability hooks (see observe.go): nextSample is parked at
	// noSample when detached, so the per-cycle cost of disabled
	// observability is one always-false compare.
	obs          *obs.RunObs
	sampleStride uint64
	nextSample   uint64

	// Cancellation hook (see cancel.go): same parked-trigger pattern as
	// observability, polled from Run every cancelStride cycles.
	cancelFlag *atomic.Bool
	nextCancel uint64

	// Functional-mode clock rate in 16.16 fixed-point cycles per µop and
	// its fractional carry (see functional.go, SetFuncCPI).
	funcCPQ  uint64
	funcFrac uint64
}

// New builds a CPU from cfg: Geometry.Cores identical cores — each with
// its own calendar, trace cache, L1D, TLBs and predictor, reconfigured
// for ContextsPerCore SMT contexts — over one shared L2 and DRAM.
func New(cfg Config) *CPU {
	geo := cfg.Geometry
	dram := mem.New(cfg.Mem)
	c := &CPU{
		cfg:  cfg,
		l2:   cache.New(cfg.Hier.L2),
		dram: dram,

		nextSample: noSample,
		nextCancel: noSample,
		funcCPQ:    funcCPQDefault,
	}
	for coreID := 0; coreID < geo.Cores; coreID++ {
		cb := &coreBlock{
			id:   coreID,
			lo:   coreID * geo.ContextsPerCore,
			cal:  newCalendar(cfg.Params.IssueWidth),
			tc:   cache.NewTraceCache(cfg.TC),
			hier: cache.NewHierarchyShared(cfg.Hier, c.l2, dram),
			itlb: tlb.New(cfg.ITLB),
			dtlb: tlb.New(cfg.DTLB),
			pred: branch.NewFor(cfg.Branch, geo.ContextsPerCore),
		}
		cb.itlb.SetContexts(geo.ContextsPerCore)
		cb.dtlb.SetContexts(geo.ContextsPerCore)
		for l := 0; l < geo.ContextsPerCore; l++ {
			x := &context{
				buf: make([]isa.Uop, cfg.Params.FillBatch),
				rob: make([]robEntry, cfg.Params.ROBSize+1),
				cb:  cb,
				lid: l,
			}
			cb.ctxs = append(cb.ctxs, x)
			c.ctxs = append(c.ctxs, x)
		}
		c.cores = append(c.cores, cb)
	}
	c.occBuf = make([]int, geo.ContextsPerCore)
	c.robCapV = c.robCap()
	c.loadCapV = c.loadCap()
	c.storeCapV = c.storeCap()
	c.dynPart = cfg.Partition == DynamicPartition
	c.tcLineUops = uint64(cfg.TC.LineUops)
	c.cpc = uint64(geo.ContextsPerCore)
	p := &cfg.Params
	c.lat[isa.Nop] = 1
	for _, cls := range []isa.Class{isa.ALU, isa.Branch, isa.Call, isa.Ret, isa.Fence} {
		c.lat[cls] = p.ALULat
	}
	c.lat[isa.Mul] = p.MulLat
	c.lat[isa.FP] = p.FPLat
	c.lat[isa.FPDiv] = p.FPDivLat
	c.lat[isa.Syscall] = p.SyscallLatency
	return c
}

// tick advances the clock one cycle, clearing each calendar's slot for
// the cycle it reaches: no µop can be claimed there any more, and the
// slot's next cycle is one lap ahead.
func (c *CPU) tick() {
	c.now++
	if c.rot++; c.rot == c.cpc {
		c.rot = 0
	}
	for _, cb := range c.cores {
		cb.cal.slot[uint16(c.now)] = 0
	}
}

// Reset returns the CPU to its just-built state while reusing every
// large allocation: the calendar rings, ROB rings, fetch buffers, cache
// and predictor arrays, and TLB entries. A reset CPU behaves
// bit-identically to a fresh New(cfg) — all cache/TLB/predictor
// contents, DRAM row and bus state, counters and pipeline state are
// cleared. Feeds are detached; reattach with AttachFeed. Observers are
// likewise detached; reattach with AttachObs.
func (c *CPU) Reset() {
	c.now, c.rot = 0, 0
	c.obs = nil
	c.sampleStride = 0
	c.nextSample = noSample
	c.cancelFlag = nil
	c.nextCancel = noSample
	c.funcCPQ = funcCPQDefault
	c.funcFrac = 0
	c.ckFed, c.ckAlloc, c.ckRetired, c.ckFunc = 0, 0, 0, 0
	c.feedDirty = true
	for _, cb := range c.cores {
		cb.decodeBusyUntil = 0
		cb.totRob, cb.totLoads, cb.totStores = 0, 0, 0
		cb.activity = activity{}
		clear(cb.cal.slot[:])
		cb.tc.Reset()
		cb.hier.Reset() // resets the private L1D and the shared L2 (idempotent)
		cb.itlb.Reset()
		cb.dtlb.Reset()
		cb.pred.Reset()
	}
	for _, x := range c.ctxs {
		buf, rob, cb, lid := x.buf, x.rob, x.cb, x.lid
		*x = context{buf: buf, rob: rob, cb: cb, lid: lid}
	}
	c.dram.Reset()
	c.file.Reset()
	if check.Enabled && check.On {
		c.verifyActivity()
	}
}

// AttachFeed binds a µop feed to logical processor ctx (global index).
func (c *CPU) AttachFeed(ctx int, f Feed) {
	if ctx < 0 || ctx >= len(c.ctxs) {
		panic(fmt.Sprintf("core: context %d out of range (geometry %v)", ctx, c.cfg.Geometry))
	}
	x := c.ctxs[ctx]
	x.feed = f
	x.cb.attached &^= x.bit()
	if f != nil {
		x.cb.attached |= x.bit()
	}
	c.feedDirty = true
}

// Config returns the processor configuration.
func (c *CPU) Config() Config { return c.cfg }

// Now returns the current cycle.
func (c *CPU) Now() uint64 { return c.now }

// robCap returns the per-context ROB allocation limit under the active
// partition policy, and similarly loadCap/storeCap below. Static
// partitioning divides each core's buffers evenly among its contexts
// (the P4's halving is the two-context case); a single-context core, and
// any core under dynamic partitioning, exposes the full structure.
func (c *CPU) robCap() int {
	if cpc := c.cfg.Geometry.ContextsPerCore; cpc > 1 && c.cfg.Partition == StaticPartition {
		return c.cfg.Params.ROBSize / cpc
	}
	return c.cfg.Params.ROBSize
}

func (c *CPU) loadCap() int {
	if cpc := c.cfg.Geometry.ContextsPerCore; cpc > 1 && c.cfg.Partition == StaticPartition {
		return c.cfg.Params.LoadBufs / cpc
	}
	return c.cfg.Params.LoadBufs
}

func (c *CPU) storeCap() int {
	if cpc := c.cfg.Geometry.ContextsPerCore; cpc > 1 && c.cfg.Partition == StaticPartition {
		return c.cfg.Params.StoreBufs / cpc
	}
	return c.cfg.Params.StoreBufs
}

// done reports whether context i can never produce work again.
func (c *CPU) ctxDone(i int) bool {
	x := c.ctxs[i]
	if x.feed == nil {
		return true
	}
	return x.robCount == 0 && x.bufPos >= x.bufLen && x.feed.Done()
}

// pollFeeds re-reads every bound feed's Runnable/Done into the cores'
// cached feed masks. Feeds change those answers only inside a Fill (see
// Feed), so Step calls it only after feedDirty was set.
func (c *CPU) pollFeeds() {
	c.feedDirty = false
	for _, cb := range c.cores {
		run, live := uint32(0), uint32(0)
		for m := cb.attached; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			f := cb.ctxs[l].feed
			if f.Runnable(c.now) {
				run |= 1 << l
			}
			if !f.Done() {
				live |= 1 << l
			}
		}
		cb.feedRun, cb.feedLive = run, live
	}
}

// Step advances the machine one cycle. It returns false once every feed
// is done and all pipelines have drained.
func (c *CPU) Step() bool {
	// Activity comes from the per-core masks: a context is active with
	// work in flight, buffered or runnable, and done once none of those
	// can ever return. Each core's act snapshot is what its front end
	// serves below, so a Fill that wakes another context this cycle takes
	// effect next cycle.
	if c.feedDirty {
		c.pollFeeds()
	}
	allDone := true
	nActive := 0
	osCycle := false
	dualThread := false
	for _, cb := range c.cores {
		pending := cb.robBusy | cb.bufBusy
		if cb.attached&(pending|cb.feedLive) != 0 {
			allDone = false
		}
		act := cb.attached & (pending | cb.feedRun)
		cb.act = act
		nActive += bits.OnesCount32(act)
		if act&(act-1) != 0 {
			dualThread = true
		}
		if act&cb.kern != 0 {
			osCycle = true
		}
	}
	if allDone {
		if check.Enabled && check.On {
			c.verifyDrained()
		}
		return false
	}

	c.file.Inc(counters.Cycles)
	if nActive == 0 {
		// Every thread is blocked; time must still pass for the
		// unblocker (a timer, another context) — but with no timers
		// in the model a fully-blocked machine cannot recover.
		c.file.Inc(counters.CyclesHalted)
		c.tick()
		return true
	}
	if dualThread {
		// Some core is genuinely multi-threaded this cycle (two or more
		// of its contexts active) — the paper's "dual-thread mode".
		c.file.Inc(counters.CyclesDT)
	}
	if osCycle {
		c.file.Inc(counters.CyclesOS)
	}

	pref := int(c.rot)
	for _, cb := range c.cores {
		if cb.act != 0 {
			c.fetchAllocate(cb, pref)
		}
	}
	c.retire()

	if c.now >= c.nextSample {
		c.obsSample()
	}
	if check.Enabled && check.On {
		c.verifyStep()
	}
	c.tick()
	return true
}

// fetchAllocate runs one core's merged front end for this cycle: pick the
// context to serve (round-robin over the core's contexts when several are
// active — the P4's alternation generalized to N), pull µops from its
// feed and allocate them into the back end, consulting the trace cache,
// ITLB, predictor and data hierarchy along the way. pref is the context
// whose turn it is this cycle (now % ContextsPerCore).
func (c *CPU) fetchAllocate(cb *coreBlock, pref int) {
	act := cb.act
	serve := bits.TrailingZeros32(act)
	if act&(act-1) != 0 {
		// The front end serves one context per cycle, rotating; if the
		// preferred one is stalled the slot goes to the next active one
		// in rotation order — SMT's latency hiding in one line. Rotating
		// the mask right by pref walks the active contexts in that order
		// (see retireCore); a busy decoder stalls them all.
		serve = pref // blocked; still charge its stall accounting
		if cb.decodeBusyUntil <= c.now {
			for m := bits.RotateLeft32(act, -pref); m != 0; m &= m - 1 {
				i := (pref + bits.TrailingZeros32(m)) & 31
				if x := cb.ctxs[i]; x.blockedUntil <= c.now && !x.drainFence {
					serve = i
					break
				}
			}
		}
	}
	if got := c.fetchInto(cb.ctxs[serve]); got == 0 {
		c.file.Inc(counters.FetchStallCycles)
	}
}

// fetchInto delivers up to FetchUops µops from context x's feed into its
// back end and returns how many were allocated. Structure accesses use
// the context's core-local index: each core's private caches, TLBs and
// predictor see only that core's contexts.
func (c *CPU) fetchInto(x *context) int {
	cb := x.cb
	now := c.now
	if x.blockedUntil > now || cb.decodeBusyUntil > now {
		return 0
	}
	if x.drainFence {
		if !x.robEmpty() {
			// One flavor of fetch stall: the caller charges
			// FetchStallCycles for the same zero-µop cycle, so
			// fence_stall_cycles <= fetch_stall_cycles stays exact.
			c.file.Inc(counters.FenceStallCycles)
			return 0
		}
		x.drainFence = false
	}
	// Loop invariants, hoisted: the per-µop body reads only locals and
	// the context.
	p := &c.cfg.Params
	fetch := p.FetchUops
	dynPart := c.dynPart
	lineUops := c.tcLineUops
	lid := x.lid
	allocated := 0
	for allocated < fetch {
		if x.bufPos >= x.bufLen {
			if x.feed == nil {
				break
			}
			n := x.feed.Fill(now, x.buf)
			c.feedDirty = true
			if n == 0 {
				break
			}
			if check.Enabled && check.On {
				check.Assert(n <= len(x.buf), "core",
					"feed overfilled the fetch buffer: %d > %d", n, len(x.buf))
				c.ckFed += uint64(n)
			}
			x.bufPos, x.bufLen = 0, n
		}
		u := &x.buf[x.bufPos]
		cls := u.Class

		// Back-end space checks, against the incrementally-maintained
		// per-core totals under dynamic partitioning and the hoisted
		// per-context caps under static.
		if dynPart {
			if cb.totRob >= p.ROBSize {
				c.file.Inc(counters.ROBStallCycles)
				break
			}
		} else if x.robCount >= c.robCapV {
			c.file.Inc(counters.ROBStallCycles)
			break
		}
		if cls == isa.Load {
			if dynPart {
				if cb.totLoads >= p.LoadBufs {
					c.file.Inc(counters.LSQStallCycles)
					break
				}
			} else if x.loadsOut >= c.loadCapV {
				c.file.Inc(counters.LSQStallCycles)
				break
			}
		} else if cls == isa.Store {
			if dynPart {
				if cb.totStores >= p.StoreBufs {
					c.file.Inc(counters.LSQStallCycles)
					break
				}
			} else if x.storesOut >= c.storeCapV {
				c.file.Inc(counters.LSQStallCycles)
				break
			}
		}

		// Trace-cache lookup on line crossings. The window test avoids
		// the µop-index division except when fetch actually leaves the
		// current line (backward jumps underflow and also trigger it);
		// the cache is handed the line index crossLine found.
		if !x.haveLine || u.PC-x.lineBase >= lineUops {
			hit, lat := cb.tc.LookupLine(x.crossLine(u.PC, lineUops), lid)
			if !hit {
				// Rebuild the trace from the unified L2 via the
				// ITLB — the paper: "ITLB is responsible for
				// translating instruction addresses ... to access
				// the L2 cache when the machine misses the trace
				// cache."
				if !cb.itlb.Access(u.PC*4, lid) {
					lat += c.cfg.ITLB.MissPenalty
				}
				lat += cb.hier.Fill(codeByteAddr(u.PC), lid, now)
				x.blockedUntil = now + uint64(lat)
				// The decode/rebuild portion occupies the core's shared
				// front end, stalling its other contexts too.
				busy := now + uint64(c.cfg.TC.MissPenalty)
				if busy > cb.decodeBusyUntil {
					cb.decodeBusyUntil = busy
				}
				break
			}
		}

		// From here the µop is definitely allocated this cycle.
		x.bufPos++
		allocated++
		x.inKernel = u.Kernel

		start := now + 1
		if u.DepDist > 0 && uint64(u.DepDist) <= x.depIdx {
			if d := x.deps[(x.depIdx-uint64(u.DepDist))&depMask]; d > start {
				start = d
			}
		}

		lat := c.lat[cls&15]
		kernel := u.Kernel
		switch cls {
		case isa.Load, isa.Store:
			if !cb.dtlb.Access(u.Addr, lid) {
				lat += c.cfg.DTLB.MissPenalty
			}
			lat += cb.hier.Data(u.Addr, cls == isa.Store, lid, now)
			if cls == isa.Load {
				x.loadsOut++
				cb.totLoads++
			} else {
				x.storesOut++
				cb.totStores++
			}
		case isa.Syscall:
			kernel = true
			x.drainFence = true
		case isa.Fence:
			if x.maxDone > start {
				start = x.maxDone
			}
			c.file.Inc(counters.FenceUops)
			x.drainFence = true
		}

		start = cb.cal.schedule(start, now)
		done := start + uint64(lat)
		x.robPush(robEntry{done: done, kernel: kernel, load: cls == isa.Load, store: cls == isa.Store})
		cb.totRob++
		if check.Enabled && check.On {
			c.ckAlloc++
			check.Assert(done >= start && start > now, "core",
				"µop scheduled backwards: now %d, start %d, done %d", now, start, done)
		}
		x.deps[x.depIdx&depMask] = done
		x.depIdx++
		if done > x.maxDone {
			x.maxDone = done
		}

		// Control flow: consult the predictor; a mispredict stalls this
		// context's front end until the branch resolves and the
		// pipeline refills.
		if cls.IsCtl() {
			taken := u.Taken || cls == isa.Call || cls == isa.Ret
			correct, pen := cb.pred.Predict(u.PC, taken, u.Target, u.Indirect, lid)
			if !correct {
				x.blockedUntil = done + uint64(pen)
				break
			}
		}
		if cls == isa.Syscall {
			break
		}
	}
	x.syncFront()
	return allocated
}

// retire completes up to RetireWidth µops per core, in order within each
// context, and records the Figure-2 retirement histogram. Like the P4,
// each core's retirement serves one logical processor per cycle, rotating,
// when more than one has work in flight; idle contexts' slots pass to the
// busy one. The histogram counts machine-wide retirement per cycle; on a
// multi-core machine cycles retiring more than three µops clamp into the
// Retire3 bucket (the weighted histogram law becomes a lower bound there;
// it stays exact on one core).
func (c *CPU) retire() {
	retired, osRetired := 0, 0
	pref := int(c.rot)
	for _, cb := range c.cores {
		r, os := c.retireCore(cb, pref)
		retired += r
		osRetired += os
	}
	c.file.Add(counters.Instructions, uint64(retired))
	c.file.Add(counters.InstructionsOS, uint64(osRetired))
	switch retired {
	case 0:
		c.file.Inc(counters.Retire0)
	case 1:
		c.file.Inc(counters.Retire1)
	case 2:
		c.file.Inc(counters.Retire2)
	default:
		c.file.Inc(counters.Retire3)
	}
}

// retireCore retires up to RetireWidth µops from one core this cycle. It
// serves the first context with work in flight in rotation order from
// pref = now % ContextsPerCore (an idle context's turn passes); when fewer
// than two are busy that is the only one with anything to retire, so the
// whole budget is its.
func (c *CPU) retireCore(cb *coreBlock, pref int) (retired, osRetired int) {
	busy := cb.robBusy
	if busy == 0 {
		return 0, 0
	}
	// Rotating the mask right by pref puts the rotation order in bit
	// order; bits below pref wrap to the top of the word, and the & 31
	// folds their index back.
	l := (pref + bits.TrailingZeros32(bits.RotateLeft32(busy, -pref))) & 31
	now := c.now
	if cb.head[l] > now {
		return 0, 0
	}
	// The head is due, so at least one µop retires. The ring cursor and
	// the occupancy deltas stay in locals until the loop ends.
	x := cb.ctxs[l]
	rob, head, count := x.rob, x.robHead, x.robCount
	width := c.cfg.Params.RetireWidth
	loads, stores := 0, 0
	for {
		e := &rob[head]
		if head++; head == len(rob) {
			head = 0
		}
		count--
		if e.load {
			loads++
		}
		if e.store {
			stores++
		}
		if e.kernel {
			osRetired++
		}
		retired++
		if retired == width || count == 0 || rob[head].done > now {
			break
		}
	}
	x.robHead, x.robCount = head, count
	x.loadsOut -= loads
	x.storesOut -= stores
	cb.totLoads -= loads
	cb.totStores -= stores
	if count == 0 {
		cb.robBusy &^= x.bit()
		cb.head[l] = 0
	} else {
		cb.head[l] = rob[head].done
	}
	x.retired += uint64(retired)
	cb.totRob -= retired
	if check.Enabled && check.On {
		c.ckRetired += uint64(retired)
		check.Assert(retired <= c.cfg.Params.RetireWidth, "core",
			"core %d retired %d µops in one cycle, width is %d", cb.id, retired, c.cfg.Params.RetireWidth)
	}
	return retired, osRetired
}

// codeByteAddr maps a µop-granular PC into the byte address space used by
// the unified L2, far above any data address so code and data contend in
// L2 without aliasing.
func codeByteAddr(pc uint64) uint64 { return 1<<40 | pc*4 }

// Run steps the machine until all feeds complete or maxCycles elapse
// (0 = no limit). It returns the number of cycles executed by this call
// and an error if the machine wedged with every thread blocked, or
// ErrCanceled once an attached cancellation flag (AttachCancel) is
// observed set.
func (c *CPU) Run(maxCycles uint64) (uint64, error) {
	start := c.now
	haltStreak := uint64(0)
	c.feedDirty = true // feeds may have changed since the last call
	for {
		if maxCycles > 0 && c.now-start >= maxCycles {
			return c.now - start, nil
		}
		if c.now >= c.nextCancel {
			c.nextCancel = c.now + cancelStride
			if c.cancelFlag.Load() {
				return c.now - start, ErrCanceled
			}
		}
		before := c.file.Get(counters.CyclesHalted)
		if !c.Step() {
			return c.now - start, nil
		}
		if c.file.Get(counters.CyclesHalted) != before {
			haltStreak++
			if haltStreak > 1_000_000 {
				return c.now - start, fmt.Errorf("core: machine halted for 1M cycles with undone feeds (deadlock)")
			}
		} else {
			haltStreak = 0
		}
	}
}

// Counters synchronizes the structure statistics (caches, TLBs, predictor,
// DRAM) into the counter file and returns a pointer to it. Per-core
// private structures are summed across cores; the shared L2 and DRAM are
// read once. The returned file remains owned by the CPU; snapshot it
// (copy the value) to window measurements.
func (c *CPU) Counters() *counters.File {
	var tcA, tcM, l1A, l1M, itA, itM, dtA, dtM, brB, brBM, brMP uint64
	for _, cb := range c.cores {
		tc := cb.tc.Stats()
		tcA += tc.TotalAccesses()
		tcM += tc.TotalMisses()
		l1 := cb.hier.L1D.Stats()
		l1A += l1.TotalAccesses()
		l1M += l1.TotalMisses()
		it := cb.itlb.Stats()
		itA += it.TotalAccesses()
		itM += it.TotalMisses()
		dt := cb.dtlb.Stats()
		dtA += dt.TotalAccesses()
		dtM += dt.TotalMisses()
		br := cb.pred.Stats()
		brB += br.TotalBranches()
		brBM += br.TotalBTBMisses()
		brMP += br.TotalMispredicts()
	}
	c.file.Set(counters.TCAccesses, tcA)
	c.file.Set(counters.TCMisses, tcM)
	c.file.Set(counters.L1DAccesses, l1A)
	c.file.Set(counters.L1DMisses, l1M)
	l2 := c.l2.Stats()
	c.file.Set(counters.L2Accesses, l2.TotalAccesses())
	c.file.Set(counters.L2Misses, l2.TotalMisses())
	c.file.Set(counters.ITLBAccesses, itA)
	c.file.Set(counters.ITLBMisses, itM)
	c.file.Set(counters.DTLBAccesses, dtA)
	c.file.Set(counters.DTLBMisses, dtM)
	c.file.Set(counters.Branches, brB)
	c.file.Set(counters.BTBMisses, brBM)
	c.file.Set(counters.BranchMispredicts, brMP)
	dr := c.dram.Stats()
	c.file.Set(counters.MemReads, dr.Reads)
	c.file.Set(counters.MemWrites, dr.Writes)
	return &c.file
}

// CountersFile exposes the live counter file for components (the OS
// substrate, the JVM) that record their own events (context switches,
// syscalls, GC cycles).
func (c *CPU) CountersFile() *counters.File { return &c.file }

// FlushThreadState invalidates context i's thread-tagged front-end state
// (trace lines, BTB entries, ITLB partition) on its owning core. The OS
// calls it when a different process is switched onto the context;
// same-process thread switches keep the state warm.
func (c *CPU) FlushThreadState(i int) {
	x := c.ctxs[i]
	x.cb.tc.FlushThread(x.lid)
	x.cb.pred.FlushThread(x.lid)
	x.cb.itlb.FlushContext(x.lid)
	x.haveLine = false
}

// RetiredByLP writes each logical processor's cumulative retired-µop
// count (detailed retirement plus functional execution) into out, growing
// it as needed, and returns it. The sampling layer diffs successive
// snapshots to attribute window IPC per context.
func (c *CPU) RetiredByLP(out []uint64) []uint64 {
	if cap(out) < len(c.ctxs) {
		out = make([]uint64, len(c.ctxs))
	}
	out = out[:len(c.ctxs)]
	for i, x := range c.ctxs {
		out[i] = x.retired
	}
	return out
}
