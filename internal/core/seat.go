package core

import "fmt"

// Seat identifies one hardware context by its geometry coordinates: the
// physical core and the SMT context slot on that core. It is the
// geometry-aware spelling of the flat logical-processor index — the OS
// substrate schedules software threads onto seats, and scheduling
// policies reason about which seats share a core (and therefore its
// private trace cache, L1D, TLBs and pipeline bandwidth).
type Seat struct {
	// Core is the physical core index, [0, Geometry.Cores).
	Core int
	// Ctx is the SMT context slot on that core,
	// [0, Geometry.ContextsPerCore).
	Ctx int
}

// String renders the seat as "cC.tN" (core C, context slot N).
func (s Seat) String() string { return fmt.Sprintf("c%d.t%d", s.Core, s.Ctx) }

// SeatOf maps a flat (core-major) logical-processor index to its seat.
func (g Geometry) SeatOf(lp int) Seat {
	return Seat{Core: lp / g.ContextsPerCore, Ctx: lp % g.ContextsPerCore}
}

// Index maps a seat to the flat (core-major) logical-processor index —
// the compatibility shim between seat-keyed callers and the CPU's flat
// context slice (AttachFeed, RetiredByLP, obs tracks).
func (g Geometry) Index(s Seat) int { return s.Core*g.ContextsPerCore + s.Ctx }

// Seats returns every seat of the geometry in flat (core-major) order.
func (g Geometry) Seats() []Seat {
	out := make([]Seat, 0, g.Total())
	for lp := 0; lp < g.Total(); lp++ {
		out = append(out, g.SeatOf(lp))
	}
	return out
}

// FlushSeat is the seat-keyed spelling of FlushThreadState: it
// invalidates the context's thread-tagged front-end state (trace lines,
// BTB entries, ITLB partition) on the seat's owning core.
func (c *CPU) FlushSeat(s Seat) { c.FlushThreadState(c.cfg.Geometry.Index(s)) }

// SeatDyn is a live metrics snapshot of one hardware context, read by
// scheduling policies at quantum boundaries. Retired and ROB are exact
// per-context values; the core-level cache-miss totals are shared by
// every context of the seat's core (the caches keep no full per-context
// breakdown), so callers attribute them to co-resident threads as
// shared blame.
type SeatDyn struct {
	// Retired is the context's cumulative retired-µop count (detailed
	// retirement plus functional execution).
	Retired uint64
	// ROB is the context's current reorder-buffer occupancy in µops.
	ROB int
	// CoreTCMisses and CoreL1DMisses are the owning core's cumulative
	// trace-cache and L1D miss totals across all of its contexts.
	CoreTCMisses  uint64
	CoreL1DMisses uint64
}

// SeatDyn returns the live scheduling metrics of one seat. It is a pure
// read: calling it never perturbs simulation state, so schedulers may
// consult it at any frequency without breaking determinism or golden
// byte-identity.
func (c *CPU) SeatDyn(s Seat) SeatDyn {
	x := c.ctxs[c.cfg.Geometry.Index(s)]
	return SeatDyn{
		Retired:       x.retired,
		ROB:           x.robCount,
		CoreTCMisses:  x.cb.tc.Stats().Misses,
		CoreL1DMisses: x.cb.hier.L1D.Stats().Misses,
	}
}
