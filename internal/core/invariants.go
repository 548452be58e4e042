package core

import (
	"javasmt/internal/check"
	"javasmt/internal/counters"
)

// This file is the core pipeline's invariant catalogue (DESIGN.md §6).
// Every probe is guarded by `check.Enabled && check.On`, so in a default
// build (no `checks` tag) the calls below are dead code and the cycle
// loop pays nothing for them.
//
// Cheap flow checks run every cycle; the O(ROB) occupancy recount runs
// every recountPeriod cycles and at drain, which keeps a checks-tagged
// test run within a small factor of the default build while still
// re-deriving the incremental state thousands of times per run.

// recountPeriod is the cycle interval between full occupancy recounts.
// A power of two so the trigger test is a mask.
const recountPeriod = 1024

// verifyStep runs after fetch/allocate/retire each cycle (checks builds
// only). now has not yet advanced past the cycle being verified.
func (c *CPU) verifyStep() {
	// Pipeline flow conservation: µops enter from the feeds, are
	// allocated into the ROB, and retire — each stage is a subset of the
	// one before it.
	check.Assert(c.ckFed >= c.ckAlloc, "core",
		"allocated %d µops but feeds only delivered %d", c.ckAlloc, c.ckFed)
	check.Assert(c.ckAlloc >= c.ckRetired, "core",
		"retired %d µops but only %d were allocated", c.ckRetired, c.ckAlloc)
	check.Assert(c.file.Get(counters.Instructions) == c.ckRetired, "core",
		"uops_retired counter %d diverged from retirement audit %d",
		c.file.Get(counters.Instructions), c.ckRetired)

	// Occupancy caps on the incrementally-maintained state. Under static
	// partitioning each context is limited to its half; under dynamic
	// partitioning (and with HT off) the whole structure bounds the total.
	p := &c.cfg.Params
	for i, x := range c.ctxs {
		if !c.dynPart {
			check.Assert(x.robCount <= c.robCapV, "core",
				"ctx %d ROB occupancy %d exceeds partition cap %d", i, x.robCount, c.robCapV)
			check.Assert(x.loadsOut <= c.loadCapV, "core",
				"ctx %d load-buffer occupancy %d exceeds partition cap %d", i, x.loadsOut, c.loadCapV)
			check.Assert(x.storesOut <= c.storeCapV, "core",
				"ctx %d store-buffer occupancy %d exceeds partition cap %d", i, x.storesOut, c.storeCapV)
		}
		check.Assert(x.robCount >= 0 && x.loadsOut >= 0 && x.storesOut >= 0, "core",
			"ctx %d occupancy went negative (rob %d, loads %d, stores %d)",
			i, x.robCount, x.loadsOut, x.storesOut)
	}
	for _, cb := range c.cores {
		check.Assert(cb.totRob <= p.ROBSize, "core",
			"core %d ROB occupancy %d exceeds core size %d", cb.id, cb.totRob, p.ROBSize)
		check.Assert(cb.totLoads <= p.LoadBufs, "core",
			"core %d load-buffer occupancy %d exceeds core size %d", cb.id, cb.totLoads, p.LoadBufs)
		check.Assert(cb.totStores <= p.StoreBufs, "core",
			"core %d store-buffer occupancy %d exceeds core size %d", cb.id, cb.totStores, p.StoreBufs)
	}
	c.verifyActivity()

	if c.now&(recountPeriod-1) == 0 {
		c.verifyRecount()
	}
}

// verifyActivity recomputes each core's activity masks from its contexts
// and compares them with the incrementally kept ones. The cached feed
// answers are compared against fresh Runnable/Done calls only while they
// are not marked stale: a Fill this cycle may legitimately have changed
// them, and the next Step re-polls.
func (c *CPU) verifyActivity() {
	for _, cb := range c.cores {
		var attached, rob, buf, kern, run, live uint32
		for _, x := range cb.ctxs {
			b := x.bit()
			if x.feed != nil {
				attached |= b
				if x.feed.Runnable(c.now) {
					run |= b
				}
				if !x.feed.Done() {
					live |= b
				}
			}
			if x.robCount > 0 {
				rob |= b
			}
			if x.bufPos < x.bufLen {
				buf |= b
			}
			if x.inKernel {
				kern |= b
			}
		}
		check.Assert(cb.attached == attached, "core",
			"core %d attached mask %#x != recomputed %#x", cb.id, cb.attached, attached)
		check.Assert(cb.robBusy == rob, "core",
			"core %d robBusy mask %#x != recomputed %#x", cb.id, cb.robBusy, rob)
		check.Assert(cb.bufBusy == buf, "core",
			"core %d bufBusy mask %#x != recomputed %#x", cb.id, cb.bufBusy, buf)
		check.Assert(cb.kern == kern, "core",
			"core %d kern mask %#x != recomputed %#x", cb.id, cb.kern, kern)
		if !c.feedDirty {
			check.Assert(cb.feedRun == run, "core",
				"core %d cached feedRun mask %#x != fresh Runnable %#x", cb.id, cb.feedRun, run)
			check.Assert(cb.feedLive == live, "core",
				"core %d cached feedLive mask %#x != fresh !Done %#x", cb.id, cb.feedLive, live)
		}
	}
}

// verifyRecount re-derives every occupancy figure from scratch by walking
// the ROB rings and compares against the incremental bookkeeping the hot
// path maintains (the class of bug PR 1's stale-LRU incident came from:
// state that is only ever updated incrementally and never re-checked).
func (c *CPU) verifyRecount() {
	for _, cb := range c.cores {
		totRob, totLoads, totStores := 0, 0, 0
		for l, x := range cb.ctxs {
			i := cb.lo + l
			rob, loads, stores := 0, 0, 0
			idx := x.robHead
			for k := 0; k < x.robCount; k++ {
				e := &x.rob[idx]
				rob++
				if e.load {
					loads++
				}
				if e.store {
					stores++
				}
				idx++
				if idx == len(x.rob) {
					idx = 0
				}
			}
			check.Assert(loads == x.loadsOut, "core",
				"ctx %d load recount %d != incremental loadsOut %d", i, loads, x.loadsOut)
			check.Assert(stores == x.storesOut, "core",
				"ctx %d store recount %d != incremental storesOut %d", i, stores, x.storesOut)
			// Ring-shape consistency: head/tail distance must agree with count.
			span := x.robTail - x.robHead
			if span < 0 {
				span += len(x.rob)
			}
			check.Assert(span == x.robCount%len(x.rob), "core",
				"ctx %d ROB ring head %d / tail %d inconsistent with count %d",
				i, x.robHead, x.robTail, x.robCount)
			totRob += rob
			totLoads += loads
			totStores += stores
		}
		check.Assert(totRob == cb.totRob, "core",
			"core %d ROB recount %d != incremental total %d", cb.id, totRob, cb.totRob)
		check.Assert(totLoads == cb.totLoads, "core",
			"core %d load-buffer recount %d != incremental total %d", cb.id, totLoads, cb.totLoads)
		check.Assert(totStores == cb.totStores, "core",
			"core %d store-buffer recount %d != incremental total %d", cb.id, totStores, cb.totStores)
	}
}

// verifyDrained runs when every feed has completed and the pipelines have
// emptied: the whole-program conservation laws.
func (c *CPU) verifyDrained() {
	for i, x := range c.ctxs {
		check.Assert(x.robCount == 0, "core",
			"ctx %d drained with %d µops still in the ROB", i, x.robCount)
		check.Assert(x.loadsOut == 0 && x.storesOut == 0, "core",
			"ctx %d drained with loads %d / stores %d outstanding", i, x.loadsOut, x.storesOut)
		check.Assert(x.bufPos >= x.bufLen, "core",
			"ctx %d drained with %d fetched µops never allocated", i, x.bufLen-x.bufPos)
	}
	for _, cb := range c.cores {
		check.Assert(cb.totRob == 0 && cb.totLoads == 0 && cb.totStores == 0, "core",
			"drained core %d reports occupancy rob %d / loads %d / stores %d",
			cb.id, cb.totRob, cb.totLoads, cb.totStores)
	}
	c.verifyRecount()

	// Retired µops == program µops: everything the feeds produced was
	// allocated, and everything allocated retired.
	check.Assert(c.ckFed == c.ckAlloc, "core",
		"feeds delivered %d µops but only %d were allocated", c.ckFed, c.ckAlloc)
	check.Assert(c.ckAlloc == c.ckRetired, "core",
		"%d µops allocated but %d retired", c.ckAlloc, c.ckRetired)

	// With the paper machine's retire width of 3 the histogram determines
	// retirement exactly (the default bucket is exactly three). µops
	// executed by the functional path (functional.go) never enter the
	// histogram — the flow audit scopes the law to detailed cycles by
	// accounting for them explicitly, so the probe stays exact in sampled
	// runs instead of being skipped. On multi-core machines cycles
	// retiring more than three µops clamp into the Retire3 bucket, so the
	// law is exact only at one core (it degrades to a lower bound
	// otherwise, which CheckConservation still enforces).
	if len(c.cores) == 1 && c.cfg.Params.RetireWidth == 3 {
		hist := c.file.Get(counters.Retire1) + 2*c.file.Get(counters.Retire2) + 3*c.file.Get(counters.Retire3)
		check.Assert(c.file.Get(counters.Instructions) == hist+c.ckFunc, "core",
			"uops_retired %d != retirement histogram sum %d + functional µops %d",
			c.file.Get(counters.Instructions), hist, c.ckFunc)
	}

	// The counter file must satisfy every cross-counter conservation law.
	// Counters() first, so the structure statistics are synchronized.
	if err := c.Counters().CheckConservation(); err != nil {
		check.Failf("core", "at drain: %v", err)
	}
}
