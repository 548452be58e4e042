// Package core implements the SMT (Hyper-Threading) execution engine — the
// simulated stand-in for the paper's 2.8 GHz Pentium 4.
//
// The model is trace-driven and cycle-level: workload front ends (the JVM,
// the OS substrate) supply the resolved µop stream of each logical
// processor, and the core replays it against timing models of the front
// end (trace cache, ITLB, branch predictor/BTB), the out-of-order window
// (ROB and load/store buffers, statically partitioned under HT exactly as
// on the P4), the execution ports (an issue-bandwidth calendar plus
// dependency chains carried on the µops), the data hierarchy (L1D/L2/DRAM)
// and in-order retirement (up to 3 µops per cycle).
//
// Everything the paper measures falls out of this structure:
//
//   - the static-partition tax on single-threaded programs (§4.3) comes
//     from halving ROB/LSQ partitions whenever HT is enabled;
//   - trace-cache/L1D degradation vs. L2/constructive improvement under
//     HT (§4.1) comes from the per-structure sharing disciplines;
//   - the retirement profile (Fig. 2) is counted directly at retire.
package core

import (
	"fmt"

	"javasmt/internal/branch"
	"javasmt/internal/cache"
	"javasmt/internal/mem"
	"javasmt/internal/tlb"
)

// Geometry describes the machine's hardware-thread topology: how many
// physical cores the chip has and how many SMT contexts (logical
// processors) each core exposes. The paper machine is Geometry{1, 2} with
// Hyper-Threading on and Geometry{1, 1} with it off; a Niagara-class chip
// is Geometry{8, 4} or beyond. Every core carries its own private
// front-end and level-1 state (trace cache, L1D, ITLB, DTLB, branch
// predictor) and its own issue/retire bandwidth; all cores share one L2
// and one DRAM channel behind it.
type Geometry struct {
	// Cores is the number of physical cores.
	Cores int
	// ContextsPerCore is the number of SMT contexts per core. Contexts
	// on the same core share its pipeline and private caches exactly as
	// the two HT contexts share the paper's P4.
	ContextsPerCore int
}

// Total returns the number of logical processors the geometry exposes.
func (g Geometry) Total() int { return g.Cores * g.ContextsPerCore }

// String renders the geometry as "CxN", e.g. "4x4".
func (g Geometry) String() string { return fmt.Sprintf("%dx%d", g.Cores, g.ContextsPerCore) }

// maxContextsPerCore bounds the per-core SMT width: the packed cache-line
// key reserves four owner bits (cache.go), so a core can expose at most
// 16 contexts. Machines larger than that scale by adding cores.
const maxContextsPerCore = 16

// PartitionPolicy selects how the major pipeline buffers are divided
// between the two logical processors when Hyper-Threading is on.
type PartitionPolicy int

const (
	// StaticPartition is the Pentium 4 design evaluated by the paper:
	// the ROB, load buffers and store buffers are split in half the
	// moment HT is enabled, whether or not a second thread exists.
	StaticPartition PartitionPolicy = iota
	// DynamicPartition is the alternative the paper suggests in §4.3:
	// both contexts allocate from one shared pool, so a lone thread can
	// use the whole machine.
	DynamicPartition
)

// String returns the policy name.
func (p PartitionPolicy) String() string {
	if p == DynamicPartition {
		return "dynamic"
	}
	return "static"
}

// Params sizes the execution core.
type Params struct {
	// ROBSize is the reorder-buffer capacity in µops (126 on the P4).
	ROBSize int
	// LoadBufs and StoreBufs bound outstanding memory µops (48/24).
	LoadBufs  int
	StoreBufs int
	// FetchUops is the trace-cache delivery bandwidth per cycle (3).
	// Under HT the front end serves one logical processor per cycle,
	// alternating — so each context sees half the fetch bandwidth when
	// both are active.
	FetchUops int
	// IssueWidth bounds µops beginning execution per cycle. The P4 can
	// theoretically dispatch 6 µops/cycle, but its sustained rate on
	// integer code is far lower (narrow trace-cache delivery, replay,
	// port conflicts); the default models the sustained rate.
	IssueWidth int
	// RetireWidth bounds retirement per cycle across both contexts (3).
	RetireWidth int
	// ALULat, MulLat, FPLat, FPDivLat are execution latencies by class.
	ALULat, MulLat, FPLat, FPDivLat int
	// SyscallLatency is the kernel-entry drain cost in cycles.
	SyscallLatency int
	// FillBatch is how many µops the core requests from a Feed at a
	// time; it bounds OS preemption granularity.
	FillBatch int
}

// DefaultParams returns the paper machine's core parameters.
func DefaultParams() Params {
	return Params{
		ROBSize:        126,
		LoadBufs:       48,
		StoreBufs:      24,
		FetchUops:      3,
		IssueWidth:     3,
		RetireWidth:    3,
		ALULat:         2,
		MulLat:         14,
		FPLat:          9,
		FPDivLat:       44,
		SyscallLatency: 60,
		FillBatch:      128,
	}
}

// Config assembles a whole processor.
type Config struct {
	// Geometry is the machine topology: the paper's HT-off machine is
	// {1,1} and its HT machine {1,2}. It must be set; Validate rejects
	// the zero value.
	Geometry Geometry
	// Partition selects static (P4) or dynamic (ablation) partitioning.
	// Static divides the ROB and load/store buffers evenly among a
	// core's contexts (the P4 halves them at two); dynamic shares the
	// full pool per core.
	Partition PartitionPolicy
	Params    Params
	TC        cache.TraceCacheConfig
	Hier      cache.HierarchyConfig
	ITLB      tlb.Config
	DTLB      tlb.Config
	Branch    branch.Config
	Mem       mem.Config
}

// DefaultConfig returns the full paper-machine configuration with
// Hyper-Threading set as requested: geometry {1,2} with HT, {1,1}
// without.
func DefaultConfig(ht bool) Config {
	geo := Geometry{Cores: 1, ContextsPerCore: 1}
	if ht {
		geo.ContextsPerCore = 2
	}
	return Config{
		Geometry:  geo,
		Partition: StaticPartition,
		Params:    DefaultParams(),
		TC:        cache.DefaultTraceCacheConfig(),
		Hier:      cache.DefaultHierarchyConfig(),
		ITLB:      tlb.DefaultITLBConfig(),
		DTLB:      tlb.DefaultDTLBConfig(),
		Branch:    branch.DefaultConfig(),
		Mem:       mem.DefaultConfig(),
	}
}

// NumContexts returns how many logical processors the config exposes.
func (c Config) NumContexts() int { return c.Geometry.Total() }

// MaxRetirePerCycle is the machine-wide retirement bandwidth: RetireWidth
// per core. The sampled-mode reconstruction uses it to bound how few
// cycles a functional span can plausibly have taken.
func (c Config) MaxRetirePerCycle() int { return c.Params.RetireWidth * c.Geometry.Cores }

// Validate rejects configurations that the constructors would panic on or
// that could not make forward progress (deadlocking the simulation). It
// mirrors every constructor precondition in internal/cache, internal/tlb
// and internal/branch plus the core's own sizing constraints, so a
// Validate-clean config is safe to hand to New.
func (c Config) Validate() error {
	g := c.Geometry
	if g.Cores < 1 || g.ContextsPerCore < 1 {
		return fmt.Errorf("core: geometry %v needs at least one core and one context per core", g)
	}
	if g.ContextsPerCore > maxContextsPerCore {
		return fmt.Errorf("core: geometry %v exceeds %d contexts per core", g, maxContextsPerCore)
	}
	p := c.Params
	if p.ROBSize < 1 || p.LoadBufs < 1 || p.StoreBufs < 1 {
		return fmt.Errorf("core: ROB/load/store buffers must be positive (%d/%d/%d)",
			p.ROBSize, p.LoadBufs, p.StoreBufs)
	}
	if c.Partition == StaticPartition && g.ContextsPerCore > 1 {
		if p.ROBSize/g.ContextsPerCore < 1 || p.LoadBufs/g.ContextsPerCore < 1 ||
			p.StoreBufs/g.ContextsPerCore < 1 {
			return fmt.Errorf("core: %d contexts exceed the static partition capacity of ROB/load/store %d/%d/%d",
				g.ContextsPerCore, p.ROBSize, p.LoadBufs, p.StoreBufs)
		}
	}
	if p.FetchUops < 1 || p.IssueWidth < 1 || p.RetireWidth < 1 {
		return fmt.Errorf("core: fetch/issue/retire widths must be positive (%d/%d/%d)",
			p.FetchUops, p.IssueWidth, p.RetireWidth)
	}
	if p.FillBatch < 1 {
		return fmt.Errorf("core: FillBatch must be positive (%d)", p.FillBatch)
	}
	if p.ALULat < 0 || p.MulLat < 0 || p.FPLat < 0 || p.FPDivLat < 0 || p.SyscallLatency < 0 {
		return fmt.Errorf("core: execution latencies must be non-negative")
	}
	if c.TC.LineUops < 1 || c.TC.Assoc < 1 {
		return fmt.Errorf("core: trace cache needs positive LineUops and Assoc (%d/%d)",
			c.TC.LineUops, c.TC.Assoc)
	}
	if err := validateCacheGeom("TC", c.TC.CapacityUops/c.TC.LineUops, 1, c.TC.Assoc); err != nil {
		return err
	}
	if err := validateCacheGeom("L1D", c.Hier.L1D.Size, c.Hier.L1D.LineSize, c.Hier.L1D.Assoc); err != nil {
		return err
	}
	if err := validateCacheGeom("L2", c.Hier.L2.Size, c.Hier.L2.LineSize, c.Hier.L2.Assoc); err != nil {
		return err
	}
	if err := validateTLBGeom(c.ITLB, g.ContextsPerCore); err != nil {
		return err
	}
	if err := validateTLBGeom(c.DTLB, g.ContextsPerCore); err != nil {
		return err
	}
	b := c.Branch
	if b.BTBAssoc < 1 || b.BTBEntries < 1 {
		return fmt.Errorf("core: BTB needs positive entries and associativity (%d/%d)",
			b.BTBEntries, b.BTBAssoc)
	}
	if sets := b.BTBEntries / b.BTBAssoc; sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("core: BTB sets must be a positive power of two (%d entries / %d ways)",
			b.BTBEntries, b.BTBAssoc)
	}
	if b.HistoryBits < 1 || b.HistoryBits > 30 {
		return fmt.Errorf("core: branch history bits out of range (%d)", b.HistoryBits)
	}
	if c.Mem.Banks < 1 {
		return fmt.Errorf("core: DRAM needs at least one bank (%d)", c.Mem.Banks)
	}
	return nil
}

func validateCacheGeom(name string, size, lineSize, assoc int) error {
	if lineSize < 1 || lineSize&(lineSize-1) != 0 {
		return fmt.Errorf("core: %s line size must be a positive power of two (%d)", name, lineSize)
	}
	if assoc < 1 {
		return fmt.Errorf("core: %s associativity must be positive (%d)", name, assoc)
	}
	sets := size / (lineSize * assoc)
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("core: %s sets must be a positive power of two (size %d, line %d, %d ways)",
			name, size, lineSize, assoc)
	}
	return nil
}

func validateTLBGeom(cfg tlb.Config, contextsPerCore int) error {
	if cfg.Assoc < 1 || cfg.Entries < 1 {
		return fmt.Errorf("core: %s needs positive entries and associativity (%d/%d)",
			cfg.Name, cfg.Entries, cfg.Assoc)
	}
	if cfg.Entries%cfg.Assoc != 0 {
		return fmt.Errorf("core: %s entries %d not divisible by associativity %d",
			cfg.Name, cfg.Entries, cfg.Assoc)
	}
	if cfg.PageSize < 1 || cfg.PageSize&(cfg.PageSize-1) != 0 {
		return fmt.Errorf("core: %s page size must be a positive power of two (%d)", cfg.Name, cfg.PageSize)
	}
	entries := cfg.Entries
	if cfg.Partitioned && contextsPerCore > 1 {
		entries /= contextsPerCore
	}
	if sets := entries / cfg.Assoc; sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("core: %s sets must be a positive power of two (%d entries / %d ways / %d contexts)",
			cfg.Name, cfg.Entries, cfg.Assoc, contextsPerCore)
	}
	return nil
}
