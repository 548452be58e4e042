// Package mem models the main-memory subsystem of the paper machine:
// 1 GB of dual-channel DDR-400 behind an 800 MHz front-side bus feeding a
// 2.8 GHz core.
//
// The model is deliberately coarse — a base access latency, an open-row
// bonus, and FSB occupancy that queues concurrent misses — because the
// paper's observations depend on memory being (a) slow relative to the
// pipeline and (b) a shared, contended resource under Hyper-Threading.
package mem

// Config parameterizes the DRAM/FSB model.
type Config struct {
	// BaseLatency is the row-miss access time in core cycles. At
	// 2.8 GHz, ~70 ns of DRAM latency is ~200 cycles.
	BaseLatency int
	// RowHitLatency is the access time when the request falls in the
	// most recently opened row of its bank.
	RowHitLatency int
	// RowBits is log2 of the row size in bytes (open-page granularity).
	RowBits uint
	// Banks is the number of independent DRAM banks.
	Banks int
	// BusCycles is the FSB occupancy of one 64-byte transfer in core
	// cycles; back-to-back misses queue behind each other by this much.
	// The default is small (pipelined dual-channel DDR behind the
	// 800 MHz FSB) so that memory-bound workloads are limited by how
	// many misses the out-of-order window can overlap — the property
	// the static-partition results of the paper depend on — rather
	// than by a serialized bus.
	BusCycles int
}

// DefaultConfig returns the paper machine's memory parameters.
func DefaultConfig() Config {
	return Config{BaseLatency: 280, RowHitLatency: 170, RowBits: 13, Banks: 8, BusCycles: 2}
}

// Stats accumulates memory-system event counts.
type Stats struct {
	Reads    uint64
	Writes   uint64
	RowHits  uint64
	BusWaits uint64 // accesses delayed by FSB occupancy
}

// Accesses returns the total number of DRAM accesses.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// DRAM is the memory model. It satisfies cache.Memory.
type DRAM struct {
	cfg     Config
	openRow []uint64
	hasRow  []bool
	busFree uint64
	stats   Stats
}

// New builds a DRAM model from cfg.
func New(cfg Config) *DRAM {
	return &DRAM{cfg: cfg, openRow: make([]uint64, cfg.Banks), hasRow: make([]bool, cfg.Banks)}
}

// Config returns the memory parameters.
func (d *DRAM) Config() Config { return d.cfg }

// Stats returns a snapshot of the statistics.
func (d *DRAM) Stats() Stats { return d.stats }

// Reset returns the DRAM model to its just-built state: banks closed,
// bus idle, statistics zeroed. Required before reusing a machine whose
// cycle clock restarts at zero (busFree is an absolute cycle number).
func (d *DRAM) Reset() {
	for i := range d.openRow {
		d.openRow[i] = 0
		d.hasRow[i] = false
	}
	d.busFree = 0
	d.stats = Stats{}
}

// Access services a 64-byte fill at core-cycle now and returns its total
// latency in core cycles, including any FSB queueing delay.
func (d *DRAM) Access(addr uint64, write bool, now uint64) int {
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	row := addr >> d.cfg.RowBits
	bank := int(row) % d.cfg.Banks
	lat := d.cfg.BaseLatency
	if d.hasRow[bank] && d.openRow[bank] == row {
		lat = d.cfg.RowHitLatency
		d.stats.RowHits++
	}
	d.openRow[bank] = row
	d.hasRow[bank] = true

	// FSB occupancy: this transfer cannot start before the bus frees.
	start := now
	if d.busFree > now {
		d.stats.BusWaits++
		lat += int(d.busFree - now)
		start = d.busFree
	}
	d.busFree = start + uint64(d.cfg.BusCycles)
	return lat
}
