package cache

// TraceCacheConfig describes the P4-style execution trace cache. The
// Pentium 4 of the paper stores about 12 K decoded µops, organised here as
// lines of LineUops µops, replacing a conventional L1 instruction cache.
type TraceCacheConfig struct {
	// CapacityUops is the total number of µops the trace cache holds
	// (12288 for the paper's machine).
	CapacityUops int
	// LineUops is the number of µops per trace line (6 on the P4).
	LineUops int
	// Assoc is the set associativity (8 on the P4).
	Assoc int
	// SharedTags, when true, drops the per-logical-processor line tags
	// so both contexts can share trace lines. This is the ablation knob
	// from DESIGN.md §9 — the real P4 uses private (tagged) lines.
	SharedTags bool
	// MissPenalty is the extra front-end latency, in cycles, to rebuild
	// a trace from the L2/decoder on a miss.
	MissPenalty int
}

// DefaultTraceCacheConfig returns the paper machine's trace cache geometry.
func DefaultTraceCacheConfig() TraceCacheConfig {
	return TraceCacheConfig{CapacityUops: 12288, LineUops: 6, Assoc: 8, MissPenalty: 36}
}

// TraceCache models trace-line lookups. Internally it reuses the generic
// set-associative Cache with "byte addresses" measured in µop indices:
// a µop at instruction address pc maps to trace line pc/LineUops.
//
// The front end calls LookupLine once per fetched line; a miss costs
// MissPenalty cycles and one ITLB translation (performed by the caller,
// matching the paper's description that the ITLB is consulted to access
// the L2 cache when the machine misses the trace cache).
type TraceCache struct {
	cfg   TraceCacheConfig
	inner *Cache
}

// NewTraceCache builds a trace cache from cfg.
//
// Internally the line grouping (pc → pc/LineUops) is done here by integer
// division, because trace lines hold 6 µops — not a power of two — while
// the generic Cache indexes by power-of-two line sizes. The inner cache
// therefore stores one "byte" per trace line (12288/6 = 2048 lines,
// 2048/8 = 256 sets for the paper machine).
func NewTraceCache(cfg TraceCacheConfig) *TraceCache {
	inner := Config{
		Name:       "TC",
		Size:       cfg.CapacityUops / cfg.LineUops,
		LineSize:   1,
		Assoc:      cfg.Assoc,
		HitLatency: 1,
	}
	tc := &TraceCache{cfg: cfg}
	if cfg.SharedTags {
		tc.inner = New(inner)
	} else {
		tc.inner = NewTagged(inner)
	}
	return tc
}

// Config returns the trace cache geometry.
func (t *TraceCache) Config() TraceCacheConfig { return t.cfg }

// LookupLine accesses trace line line for logical processor ctx and
// returns hit and the front-end latency in cycles. PCs advance by one per
// µop (see the bytecode code layout), so the µop at pc lies in line
// pc/LineUops; the caller divides, once per line crossing, because it
// keeps the line's first PC to detect the next crossing anyway.
func (t *TraceCache) LookupLine(line uint64, ctx int) (hit bool, lat int) {
	if t.inner.Access(line, ctx) {
		return true, t.inner.cfg.HitLatency
	}
	return false, t.cfg.MissPenalty
}

// Stats returns the accumulated access/miss statistics.
func (t *TraceCache) Stats() Stats { return t.inner.Stats() }

// Occupancy returns valid trace lines held per logical processor.
func (t *TraceCache) Occupancy() [2]int { return t.inner.Occupancy() }

// OccupancyInto counts valid trace lines per owning context into out.
func (t *TraceCache) OccupancyInto(out []int) []int { return t.inner.OccupancyInto(out) }

// ResetStats zeroes statistics, preserving contents.
func (t *TraceCache) ResetStats() { t.inner.ResetStats() }

// Flush invalidates the whole trace cache.
func (t *TraceCache) Flush() { t.inner.Flush() }

// Reset restores the trace cache to its just-built state (contents and
// statistics), reusing the line array.
func (t *TraceCache) Reset() { t.inner.Reset() }

// FlushThread invalidates context ctx's private trace lines.
func (t *TraceCache) FlushThread(ctx int) { t.inner.FlushThread(ctx) }
