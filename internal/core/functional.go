package core

import (
	"fmt"

	"javasmt/internal/check"
	"javasmt/internal/counters"
	"javasmt/internal/isa"
)

// This file is the fast functional execution mode (DESIGN.md §10): the
// machine executes µops at full architectural fidelity — every trace-cache,
// ITLB/DTLB, L1D/L2/DRAM and branch-predictor access happens exactly as it
// would under the detailed engine, in the same program order, keeping all
// stateful structures warm and their statistics exact — but the per-cycle
// fetch/allocate/issue/retire pipeline model is skipped entirely. Structure
// counters and µop counts out of a functional phase are therefore
// bit-identical to detailed execution for the same µop stream; only
// cycle-denominated counters (cycles, retirement histogram, stall and mode
// cycles) are left for the sampling layer to estimate from its detailed
// windows (internal/sampling).

// The functional-mode time base is adjustable: the clock advances
// funcCPQ cycles per executed µop, in 16.16 fixed point. Time must still
// pass during fast-forward — the OS quantum, DRAM bus/row state and
// observability sampling are all keyed to c.now — and the sampling driver
// feeds the live CPI estimate from its detailed windows back into the
// clock (SetFuncCPI) so completion times measured across functional spans
// stay in real-cycle units. The default of one cycle per µop sits in the
// middle of the golden solo IPC range (0.3–2.6).
const (
	funcCPQDefault = 1 << funcCPQShift
	funcCPQShift   = 16
	// funcCPIMax guards against a degenerate window estimate walking the
	// clock far past anything the detailed model can produce.
	funcCPIMax = 16.0
)

// funcCPIMin is the retire-bandwidth bound: the machine cannot sustain
// more than MaxRetirePerCycle (RetireWidth per core, 3 on the paper
// machine) µops per cycle, and the reconstruction's retirement histogram
// needs at least ceil(F/MaxRetirePerCycle) cycles for F µops.
func (c *CPU) funcCPIMin() float64 { return 1.0 / float64(c.cfg.MaxRetirePerCycle()) }

// SetFuncCPI sets the functional-mode clock rate to cpi cycles per µop,
// clamped to the machine's representable IPC band. The sampling driver
// calls it after each detailed window with its pooled CPI estimate.
func (c *CPU) SetFuncCPI(cpi float64) {
	if min := c.funcCPIMin(); cpi < min {
		cpi = min
	}
	if cpi > funcCPIMax {
		cpi = funcCPIMax
	}
	c.funcCPQ = uint64(cpi*float64(funcCPQDefault) + 0.5)
}

// funcChunk is how many µops one context executes before the functional
// loop rotates to the next: the fast-forward analogue of the alternating
// front end. Smaller chunks interleave shared-structure accesses more
// finely under HT at slightly higher loop overhead.
const funcChunk = 64

// drainCap bounds the retire-only drain that precedes a functional phase.
// A full ROB of worst-case DRAM misses drains in tens of thousands of
// cycles; anything past this cap is a wedged pipeline, not a slow one.
const drainCap = 10_000_000

// RunFunctional executes up to maxUops µops functionally across all
// contexts and returns how many were executed, plus how many cycles
// elapsed with every context blocked (the caller folds those into its
// halted-cycle estimate). Returning fewer than maxUops with a nil error
// means every feed completed. Like Run, it returns ErrCanceled when an
// attached cancellation flag is observed set, and an error if the machine
// wedges with every thread blocked.
//
// warm selects the structure-warming discipline. With warm=true every
// trace-cache, TLB, cache-hierarchy and predictor access happens exactly
// as under the detailed engine, so structure statistics stay exact
// (bit-identical for the same µop stream) at the cost of walking those
// structures per µop. With warm=false the µops are executed at purely
// architectural fidelity — program semantics, scheduling, µop and OS-µop
// counts all advance identically, but no stateful structure is touched:
// this is the sampling driver's long fast-forward tier (DESIGN.md §10),
// several times faster again, whose structure statistics the driver
// extrapolates from its measured spans.
//
// Any µops still in flight from a preceding detailed phase are first
// retired by a retire-only drain (honest detailed cycles: the retirement
// histogram and cycle counter advance normally), so the pipeline is empty
// throughout functional execution and a later detailed phase starts from
// a clean front end.
func (c *CPU) RunFunctional(maxUops uint64, warm bool) (executed, halted uint64, err error) {
	if err := c.drainPipeline(); err != nil {
		return 0, 0, err
	}
	if check.Enabled && check.On {
		c.verifyCalendarsEmpty()
	}
	// The clock jumps by whole chunks below; the rotation is brought back
	// in step with it once, on the way out.
	defer func() { c.rot = c.now % c.cpc }()
	haltStreak := uint64(0)
	c.feedDirty = true // feeds may have changed since the last call
	for executed < maxUops {
		if c.now >= c.nextCancel {
			c.nextCancel = c.now + cancelStride
			if c.cancelFlag.Load() {
				return executed, halted, ErrCanceled
			}
		}
		progressed := false
		allDone := true
		for i := range c.ctxs {
			if executed >= maxUops {
				break
			}
			if c.ctxDone(i) {
				continue
			}
			allDone = false
			x := c.ctxs[i]
			// The pipeline is empty between functional µops, so a
			// serializing fence left by a detailed phase is satisfied.
			x.drainFence = false
			if x.bufPos >= x.bufLen {
				if x.feed == nil || !x.feed.Runnable(c.now) {
					continue
				}
				n := x.feed.Fill(c.now, x.buf)
				c.feedDirty = true
				if n == 0 {
					continue
				}
				if check.Enabled && check.On {
					check.Assert(n <= len(x.buf), "core",
						"feed overfilled the fetch buffer: %d > %d", n, len(x.buf))
					c.ckFed += uint64(n)
				}
				x.bufPos, x.bufLen = 0, n
			}
			want := uint64(funcChunk)
			if rem := maxUops - executed; rem < want {
				want = rem
			}
			if n := c.funcExec(i, int(want), warm); n > 0 {
				executed += uint64(n)
				// Advance the clock by n µops at the configured CPI,
				// carrying the sub-cycle remainder across chunks.
				// The clock may jump many cycles at once without
				// clearing calendar slots (tick): the drained pipeline
				// left no claims on any cycle past now.
				adv := uint64(n)*c.funcCPQ + c.funcFrac
				c.now += adv >> funcCPQShift
				c.funcFrac = adv & (funcCPQDefault - 1)
				progressed = true
			}
		}
		if allDone {
			return executed, halted, nil
		}
		if progressed {
			haltStreak = 0
			continue
		}
		// Every thread is blocked; time must still pass for the unblocker,
		// exactly as in Step — and with no timers a fully-blocked machine
		// cannot recover.
		halted++
		c.tick()
		haltStreak++
		if haltStreak > 1_000_000 {
			return executed, halted, fmt.Errorf("core: machine halted for 1M cycles with undone feeds (deadlock)")
		}
	}
	return executed, halted, nil
}

// funcExec executes up to max buffered µops of context i functionally and
// returns how many ran. With warm set it mirrors fetchInto's architectural
// access sequence µop for µop — trace-cache lookup on line crossings with
// ITLB + L2 refill on a miss, DTLB + data-hierarchy access per memory µop,
// predictor consultation per control µop — while ignoring every latency.
// Without warm the structure accesses are skipped wholesale and only the
// architectural state (µop counts, kernel mode, dependency completion
// times) advances.
func (c *CPU) funcExec(i, max int, warm bool) int {
	x := c.ctxs[i]
	cb := x.cb
	n := 0
	osUops := uint64(0)
	for n < max && x.bufPos < x.bufLen {
		u := &x.buf[x.bufPos]
		if warm {
			if !x.haveLine || u.PC-x.lineBase >= c.tcLineUops {
				hit, _ := cb.tc.LookupLine(x.crossLine(u.PC, c.tcLineUops), x.lid)
				if !hit {
					cb.itlb.Access(u.PC*4, x.lid)
					cb.hier.Fill(codeByteAddr(u.PC), x.lid, c.now)
				}
			}
			switch {
			case u.Class.IsMem():
				cb.dtlb.Access(u.Addr, x.lid)
				cb.hier.Data(u.Addr, u.Class == isa.Store, x.lid, c.now)
			case u.Class.IsCtl():
				taken := u.Taken || u.Class == isa.Call || u.Class == isa.Ret
				cb.pred.Predict(u.PC, taken, u.Target, u.Indirect, x.lid)
			}
		}
		x.bufPos++
		x.inKernel = u.Kernel
		// Syscall µops retire in kernel mode even from user code (the
		// detailed path tags them kernelEntry at allocation).
		if u.Kernel || u.Class == isa.Syscall {
			osUops++
		}
		// Fence µops are counted per µop entering the machine, exactly
		// as the detailed engine counts them at allocation, so
		// fence_uops stays bit-identical across simulation modes.
		if u.Class == isa.Fence {
			c.file.Inc(counters.FenceUops)
		}
		// Completion times for the dependency window: a functionally
		// executed producer is already done, so a consumer allocated in a
		// later detailed window sees no stall from it.
		x.deps[x.depIdx&depMask] = c.now
		x.depIdx++
		n++
	}
	if !warm {
		// The trace-line cursor is stale after a span that never consulted
		// the trace cache; force the next warm or detailed µop to re-look
		// up its line so behavior after the span is deterministic.
		x.haveLine = false
	}
	x.syncFront()
	x.retired += uint64(n)
	c.file.Add(counters.Instructions, uint64(n))
	c.file.Add(counters.InstructionsOS, osUops)
	if check.Enabled && check.On {
		c.ckAlloc += uint64(n)
		c.ckRetired += uint64(n)
		c.ckFunc += uint64(n)
	}
	return n
}

// inFlight returns the machine-wide ROB occupancy across all cores.
func (c *CPU) inFlight() int {
	n := 0
	for _, cb := range c.cores {
		n += cb.totRob
	}
	return n
}

// drainPipeline retires every in-flight µop left by a preceding detailed
// phase, charging honest detailed cycles (retirement histogram included)
// but fetching nothing new.
func (c *CPU) drainPipeline() error {
	for spent := 0; c.inFlight() > 0; spent++ {
		if spent > drainCap {
			return fmt.Errorf("core: pipeline failed to drain within %d cycles", drainCap)
		}
		c.file.Inc(counters.Cycles)
		c.retire()
		if check.Enabled && check.On {
			c.verifyStep()
		}
		c.tick()
	}
	return nil
}
