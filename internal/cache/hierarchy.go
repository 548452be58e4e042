package cache

// Memory is the interface the hierarchy uses to reach DRAM on an L2 miss.
// It returns the access latency in cycles; implementations may model
// front-side-bus queueing (see internal/mem).
type Memory interface {
	Access(addr uint64, write bool, now uint64) int
}

// flatMemory is the fallback DRAM model: a fixed latency.
type flatMemory int

func (f flatMemory) Access(uint64, bool, uint64) int { return int(f) }

// HierarchyConfig assembles the data-side hierarchy of the paper machine.
type HierarchyConfig struct {
	L1D Config
	L2  Config
}

// DefaultHierarchyConfig returns the paper machine's data hierarchy:
// 8 KB 4-way L1D with 64 B lines, 1 MB 8-way unified L2 with 64 B lines.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D: Config{Name: "L1D", Size: 8 << 10, LineSize: 64, Assoc: 4, HitLatency: 4},
		L2:  Config{Name: "L2", Size: 1 << 20, LineSize: 64, Assoc: 8, HitLatency: 24},
	}
}

// Hierarchy is the unified data/instruction memory hierarchy below the
// level-1 structures: loads and stores probe L1D then L2 then DRAM;
// trace-cache refills probe L2 then DRAM (the P4 L2 is unified).
type Hierarchy struct {
	L1D *Cache
	L2  *Cache
	mem Memory
	// l1Hit/l2Hit are the hit latencies hoisted out of the per-access
	// path (Config() returns the geometry struct by value, which is too
	// expensive to copy on every load and store).
	l1Hit, l2Hit int
}

// NewHierarchy builds the hierarchy; mem may be nil, in which case a flat
// 200-cycle DRAM is used.
func NewHierarchy(cfg HierarchyConfig, mem Memory) *Hierarchy {
	return NewHierarchyShared(cfg, New(cfg.L2), mem)
}

// NewHierarchyShared builds a hierarchy whose L1D is private but whose L2
// is the supplied (possibly shared) cache. Multi-core machines give every
// core its own Hierarchy over one chip-wide L2 and DRAM, matching the
// CMP sharing discipline: level-1 state is per core, the outer levels are
// contended chip resources.
func NewHierarchyShared(cfg HierarchyConfig, l2 *Cache, mem Memory) *Hierarchy {
	if mem == nil {
		mem = flatMemory(200)
	}
	return &Hierarchy{
		L1D: New(cfg.L1D), L2: l2, mem: mem,
		l1Hit: cfg.L1D.HitLatency, l2Hit: l2.cfg.HitLatency,
	}
}

// Data performs a load or store by logical processor ctx at cycle now and
// returns the total access latency in cycles.
func (h *Hierarchy) Data(addr uint64, write bool, ctx int, now uint64) int {
	if h.L1D.Access(addr, ctx) {
		return h.l1Hit
	}
	if h.L2.Access(addr, ctx) {
		return h.l1Hit + h.l2Hit
	}
	return h.l1Hit + h.l2Hit + h.mem.Access(addr, write, now)
}

// Fill performs an instruction-side refill (after a trace-cache miss) and
// returns the latency contributed by L2/DRAM. Instruction addresses live
// in a distinct region of the virtual address space, so code naturally
// contends with data in the unified L2, as on the real machine.
func (h *Hierarchy) Fill(pc uint64, ctx int, now uint64) int {
	if h.L2.Access(pc, ctx) {
		return h.l2Hit
	}
	return h.l2Hit + h.mem.Access(pc, false, now)
}

// Reset restores both levels to their just-built state (contents and
// statistics), reusing the line arrays.
func (h *Hierarchy) Reset() {
	h.L1D.Reset()
	h.L2.Reset()
}
