// Package branch models the Pentium 4 front-end branch machinery: a
// gshare-style direction predictor and a Branch Target Buffer.
//
// Per the paper, "the Pentium 4 ... treats the BTB as a shared structure
// with entries that are tagged with a logical processor ID. This sharing
// will cause destructive interferences and thus increase BTB miss ratios"
// under Hyper-Threading — the design reproduced here. The direction
// history table is likewise shared (untagged), so cross-thread aliasing
// additionally perturbs direction prediction.
package branch

// Config sizes the predictor structures.
type Config struct {
	// BTBEntries is the number of BTB entries (4096 on the P4 class
	// machines of the era).
	BTBEntries int
	// BTBAssoc is the BTB associativity.
	BTBAssoc int
	// HistoryBits sizes the gshare pattern-history table (2^bits
	// two-bit counters) and the global history register.
	HistoryBits uint
	// MispredictPenalty is the pipeline refill cost in cycles. The P4's
	// 20-stage Netburst pipeline pays roughly this on each mispredict.
	MispredictPenalty int
}

// DefaultConfig returns the paper machine's predictor geometry.
func DefaultConfig() Config {
	return Config{BTBEntries: 4096, BTBAssoc: 4, HistoryBits: 12, MispredictPenalty: 32}
}

// Stats accumulates prediction outcomes over every context.
type Stats struct {
	// Branches counts conditional and indirect control transfers seen.
	Branches uint64
	// BTBMisses counts lookups that found no matching entry (the
	// paper's Figure 7 metric is BTBMisses/Branches).
	BTBMisses uint64
	// Mispredicts counts direction or target mispredictions, which cost
	// the pipeline a flush.
	Mispredicts uint64
}

type btbEntry struct {
	tag    uint64
	target uint64
	lru    uint64
	tid    int8
	valid  bool
}

// Predictor is the combined direction predictor + BTB.
type Predictor struct {
	cfg     Config
	pht     []uint8 // 2-bit saturating counters, shared across contexts
	history []uint64
	btb     [][]btbEntry
	setMask uint64
	tick    uint64
	stats   Stats
}

// New builds a predictor from cfg serving the paper machine's two
// logical processors.
func New(cfg Config) *Predictor { return NewFor(cfg, 2) }

// NewFor builds a predictor from cfg serving nctx logical processors:
// each context carries its own global history register and BTB thread
// tag; the PHT and BTB capacity stay shared, exactly as on the P4.
func NewFor(cfg Config, nctx int) *Predictor {
	sets := cfg.BTBEntries / cfg.BTBAssoc
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("branch: BTB sets must be a positive power of two")
	}
	if nctx < 1 {
		nctx = 1
	}
	p := &Predictor{cfg: cfg, setMask: uint64(sets - 1), history: make([]uint64, nctx)}
	p.pht = make([]uint8, 1<<cfg.HistoryBits)
	for i := range p.pht {
		p.pht[i] = 1 // weakly not-taken
	}
	p.btb = make([][]btbEntry, sets)
	backing := make([]btbEntry, sets*cfg.BTBAssoc)
	for i := range p.btb {
		p.btb[i] = backing[i*cfg.BTBAssoc : (i+1)*cfg.BTBAssoc]
	}
	return p
}

// Config returns the predictor geometry.
func (p *Predictor) Config() Config { return p.cfg }

// Stats returns a snapshot of the statistics.
func (p *Predictor) Stats() Stats { return p.stats }

// Reset returns the predictor to its just-built state — PHT counters to
// weakly not-taken, BTB invalidated, histories and statistics cleared —
// while reusing the table allocations. A reset predictor behaves
// bit-identically to a fresh New(cfg).
func (p *Predictor) Reset() {
	for i := range p.pht {
		p.pht[i] = 1
	}
	for _, set := range p.btb {
		for i := range set {
			set[i] = btbEntry{}
		}
	}
	for i := range p.history {
		p.history[i] = 0
	}
	p.tick = 0
	p.stats = Stats{}
}

// FlushThread invalidates context ctx's BTB entries and clears its history
// (address-space switch on that logical processor).
func (p *Predictor) FlushThread(ctx int) {
	for _, set := range p.btb {
		for i := range set {
			if set[i].valid && set[i].tid == int8(ctx) {
				set[i].valid = false
			}
		}
	}
	p.history[ctx] = 0
}

// phtIndex folds the PC with the per-context global history. The PHT
// itself is shared (no thread ID), so contexts alias each other there.
func (p *Predictor) phtIndex(pc uint64, ctx int) uint64 {
	return (pc ^ p.history[ctx]) & uint64(len(p.pht)-1)
}

// Predict runs one control transfer through the predictor and returns
// whether the front end predicted it correctly and the cycle penalty to
// charge (0 when correct, MispredictPenalty otherwise).
//
// taken/target are the resolved outcome carried on the µop; indirect
// reports target-varying transfers (interpreter dispatch), which miss
// whenever the BTB target is stale even if found.
func (p *Predictor) Predict(pc uint64, taken bool, target uint64, indirect bool, ctx int) (correct bool, penalty int) {
	p.tick++
	p.stats.Branches++

	// BTB lookup (thread-tagged, shared capacity).
	set := p.btb[pc&p.setMask]
	var hit *btbEntry
	for i := range set {
		e := &set[i]
		if e.valid && e.tag == pc && e.tid == int8(ctx) {
			hit = e
			break
		}
	}
	btbTarget := uint64(0)
	if hit == nil {
		p.stats.BTBMisses++
	} else {
		hit.lru = p.tick
		btbTarget = hit.target
	}

	// Direction prediction via the shared PHT.
	idx := p.phtIndex(pc, ctx)
	predTaken := p.pht[idx] >= 2
	if hit == nil {
		// Without a BTB entry the front end cannot redirect fetch; it
		// effectively predicts not-taken/fall-through.
		predTaken = false
	}

	correct = predTaken == taken
	if correct && taken {
		// Direction right, but the target must match too.
		if btbTarget != target {
			correct = false
		}
	}

	// Update PHT.
	if taken && p.pht[idx] < 3 {
		p.pht[idx]++
	} else if !taken && p.pht[idx] > 0 {
		p.pht[idx]--
	}
	// Update history.
	p.history[ctx] = (p.history[ctx] << 1) & ((1 << p.cfg.HistoryBits) - 1)
	if taken {
		p.history[ctx] |= 1
	}
	// Install/update BTB on taken transfers.
	if taken || indirect {
		if hit != nil {
			hit.target = target
		} else {
			victim := 0
			for i := 1; i < len(set); i++ {
				if !set[i].valid {
					victim = i
					break
				}
				if set[i].lru < set[victim].lru {
					victim = i
				}
			}
			set[victim] = btbEntry{tag: pc, target: target, lru: p.tick, tid: int8(ctx), valid: true}
		}
	}

	if !correct {
		p.stats.Mispredicts++
		return false, p.cfg.MispredictPenalty
	}
	return true, 0
}
