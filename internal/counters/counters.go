// Package counters is the performance-monitoring layer of the simulator —
// the stand-in for the Pentium 4 hardware counters driven by Sprunt's
// Brink & Abyss tool in the paper.
//
// The real machine exposes 18 counters over 48 events, so a tool like
// Brink & Abyss rotates event groups over a run and scales the observed
// counts. The simulator counts every event all the time instead: a File
// holds exact totals, and no multiplexing error is modelled.
package counters

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Event identifies one countable micro-architectural event.
type Event uint8

// The event vocabulary. Comments give the closest P4/Brink&Abyss analogue.
const (
	// Cycles is elapsed core clock cycles (global_power_events).
	Cycles Event = iota
	// CyclesDT counts cycles during which both logical processors were
	// executing instructions — the paper's "CPU DT mode percent".
	CyclesDT
	// CyclesOS counts cycles whose oldest in-flight µop was in kernel
	// mode — the paper's "OS cycle percent".
	CyclesOS
	// CyclesHalted counts cycles with no runnable thread on any context.
	CyclesHalted
	// Instructions counts retired µops (uops_retired).
	Instructions
	// InstructionsOS counts retired kernel-mode µops.
	InstructionsOS
	// Retire0/1/2/3 histogram cycles by the number of µops retired that
	// cycle (the Figure 2 retirement profile).
	Retire0
	Retire1
	Retire2
	Retire3
	// TCAccesses/TCMisses are trace-cache lookups and misses (Figure 3).
	TCAccesses
	TCMisses
	// L1DAccesses/L1DMisses are L1 data-cache events (Figure 4).
	L1DAccesses
	L1DMisses
	// L2Accesses/L2Misses are unified L2 events (Figure 5).
	L2Accesses
	L2Misses
	// ITLBAccesses/ITLBMisses are instruction-TLB events (Figure 6).
	ITLBAccesses
	ITLBMisses
	// DTLBAccesses/DTLBMisses are data-TLB events.
	DTLBAccesses
	DTLBMisses
	// Branches/BTBMisses/BranchMispredicts are front-end control-flow
	// events (Figure 7 is BTBMisses/Branches).
	Branches
	BTBMisses
	BranchMispredicts
	// MemReads/MemWrites are DRAM transfers.
	MemReads
	MemWrites
	// ROBStallCycles counts allocation stalls due to a full ROB
	// partition; IQStallCycles likewise for the issue queue; LSQStall
	// for load/store buffers. These quantify the paper's "resource
	// contention" diagnosis.
	ROBStallCycles
	IQStallCycles
	LSQStallCycles
	// FetchStallCycles counts cycles the front end delivered no µops.
	FetchStallCycles
	// ContextSwitches counts OS thread reschedules.
	ContextSwitches
	// ThreadMigrations counts dispatches of a thread onto a different
	// hardware context than the one it last ran on (simos seating
	// policies re-seat threads at quantum boundaries).
	ThreadMigrations
	// Syscalls counts kernel entries.
	Syscalls
	// GCCycles counts cycles retired by the JVM garbage-collector
	// thread (attributed via thread tags).
	GCCycles
	// MonitorBlocks counts times a thread blocked on a Java monitor.
	MonitorBlocks
	// LockAcquires counts successful Java monitor acquisitions
	// (including reentrant ones); LockContended counts acquisitions that
	// had to block first. Both come from the JVM's monitor table, so
	// they are µop-stream facts, exact in full and sampled modes alike.
	LockAcquires
	LockContended
	// FenceUops counts memory-fence µops entering the machine;
	// FenceStallCycles counts front-end cycles lost to a serializing
	// fence or syscall draining the ROB before younger µops may
	// allocate.
	FenceUops
	FenceStallCycles
	// CASOps counts executed compare-and-swap bytecodes; CASFailures
	// counts the ones that lost the race and returned 0.
	CASOps
	CASFailures
	numEvents
)

// NumEvents is the number of defined events.
const NumEvents = int(numEvents)

var eventNames = [...]string{
	Cycles:            "cycles",
	CyclesDT:          "cycles_dt",
	CyclesOS:          "cycles_os",
	CyclesHalted:      "cycles_halted",
	Instructions:      "uops_retired",
	InstructionsOS:    "uops_retired_os",
	Retire0:           "retire_0",
	Retire1:           "retire_1",
	Retire2:           "retire_2",
	Retire3:           "retire_3",
	TCAccesses:        "tc_accesses",
	TCMisses:          "tc_misses",
	L1DAccesses:       "l1d_accesses",
	L1DMisses:         "l1d_misses",
	L2Accesses:        "l2_accesses",
	L2Misses:          "l2_misses",
	ITLBAccesses:      "itlb_accesses",
	ITLBMisses:        "itlb_misses",
	DTLBAccesses:      "dtlb_accesses",
	DTLBMisses:        "dtlb_misses",
	Branches:          "branches",
	BTBMisses:         "btb_misses",
	BranchMispredicts: "branch_mispredicts",
	MemReads:          "mem_reads",
	MemWrites:         "mem_writes",
	ROBStallCycles:    "rob_stall_cycles",
	IQStallCycles:     "iq_stall_cycles",
	LSQStallCycles:    "lsq_stall_cycles",
	FetchStallCycles:  "fetch_stall_cycles",
	ContextSwitches:   "context_switches",
	ThreadMigrations:  "thread_migrations",
	Syscalls:          "syscalls",
	GCCycles:          "gc_cycles",
	MonitorBlocks:     "monitor_blocks",
	LockAcquires:      "lock_acquires",
	LockContended:     "lock_contended",
	FenceUops:         "fence_uops",
	FenceStallCycles:  "fence_stall_cycles",
	CASOps:            "cas_ops",
	CASFailures:       "cas_failures",
}

// String returns the event's report name.
func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// EventByName resolves a report name back to its Event, for CLI flag
// parsing. The second result is false if the name is unknown.
func EventByName(name string) (Event, bool) {
	for i, n := range eventNames {
		if n == name {
			return Event(i), true
		}
	}
	return 0, false
}

// File is a full-precision counter file: one uint64 per event.
type File struct {
	counts [NumEvents]uint64
}

// Add increments event e by delta.
func (f *File) Add(e Event, delta uint64) { f.counts[e] += delta }

// Inc increments event e by one.
func (f *File) Inc(e Event) { f.counts[e]++ }

// Get returns the count of event e.
func (f *File) Get(e Event) uint64 { return f.counts[e] }

// Set overwrites the count of event e (used when importing structure
// statistics gathered elsewhere, e.g. cache.Stats).
func (f *File) Set(e Event, v uint64) { f.counts[e] = v }

// Reset zeroes every counter.
func (f *File) Reset() { f.counts = [NumEvents]uint64{} }

// MarshalJSON encodes the file as a name→count object over every event
// (zeros included, so the shape is stable). encoding/json emits object
// keys sorted, making the bytes deterministic — campaign journals digest
// them to detect corrupted checkpoints.
func (f File) MarshalJSON() ([]byte, error) {
	m := make(map[string]uint64, NumEvents)
	for e := Event(0); int(e) < NumEvents; e++ {
		m[e.String()] = f.counts[e]
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes a name→count object produced by MarshalJSON.
// Unknown event names are an error: a journal written by a different
// counter vocabulary must not be silently reinterpreted.
func (f *File) UnmarshalJSON(data []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	f.Reset()
	for name, v := range m {
		e, ok := EventByName(name)
		if !ok {
			return fmt.Errorf("counters: unknown event %q", name)
		}
		f.counts[e] = v
	}
	return nil
}

// AddFile accumulates another file into this one.
func (f *File) AddFile(o *File) {
	for i := range f.counts {
		f.counts[i] += o.counts[i]
	}
}

// Sub returns f minus o, saturating at zero; used to window a measurement
// interval out of cumulative counts.
func (f *File) Sub(o *File) File {
	var out File
	for i := range f.counts {
		if f.counts[i] >= o.counts[i] {
			out.counts[i] = f.counts[i] - o.counts[i]
		}
	}
	return out
}

// --- Derived metrics (the quantities the paper reports) ---

// IPC returns retired µops per cycle.
func (f *File) IPC() float64 { return ratio(f.Get(Instructions), f.Get(Cycles)) }

// CPI returns cycles per retired µop (Table 2).
func (f *File) CPI() float64 { return ratio(f.Get(Cycles), f.Get(Instructions)) }

// PerKiloInstr returns event e per 1000 retired µops (Figures 3-6).
func (f *File) PerKiloInstr(e Event) float64 {
	return 1000 * ratio(f.Get(e), f.Get(Instructions))
}

// Rate returns num/den as a float ratio (Figure 7 is
// Rate(BTBMisses, Branches)).
func (f *File) Rate(num, den Event) float64 { return ratio(f.Get(num), f.Get(den)) }

// OSCyclePercent returns the share of cycles spent in OS mode (Table 2).
func (f *File) OSCyclePercent() float64 { return 100 * ratio(f.Get(CyclesOS), f.Get(Cycles)) }

// DTModePercent returns the share of cycles with both contexts executing
// (Table 2).
func (f *File) DTModePercent() float64 { return 100 * ratio(f.Get(CyclesDT), f.Get(Cycles)) }

// RetirementProfile returns the fraction of cycles retiring 0, 1, 2 and 3
// µops (Figure 2). The four shares sum to 1 when any cycles elapsed.
func (f *File) RetirementProfile() [4]float64 {
	var out [4]float64
	total := f.Get(Retire0) + f.Get(Retire1) + f.Get(Retire2) + f.Get(Retire3)
	if total == 0 {
		return out
	}
	for i, e := range []Event{Retire0, Retire1, Retire2, Retire3} {
		out[i] = float64(f.Get(e)) / float64(total)
	}
	return out
}

// CheckConservation verifies the cross-counter conservation laws that any
// full-precision counter file produced by the simulator must satisfy, and
// returns the first violated law (nil if all hold). The laws are exact
// consequences of how the core populates the file:
//
//   - every cycle is either halted or retires into exactly one histogram
//     bucket, so cycles == cycles_halted + Σ retire_i;
//   - cycles_dt, cycles_os and cycles_halted are subsets of cycles;
//   - kernel-mode retirement is a subset of retirement, and the retirement
//     histogram bounds retired µops from below (retire_3 means "3 or more");
//   - misses never exceed accesses for any cache, TLB or the BTB;
//   - the unified L2 is reached only by L1D misses and trace rebuilds, so
//     l2_accesses == l1d_misses + tc_misses;
//   - DRAM is reached only by L2 misses, so mem_reads + mem_writes == l2_misses.
//
// The laws are linear, so they also hold for windowed files produced by
// Sub and for sums produced by AddFile.
func (f *File) CheckConservation() error {
	type law struct {
		name     string
		lhs, rhs uint64
		exact    bool // lhs == rhs; otherwise lhs <= rhs
	}
	retireSum := f.Get(Retire0) + f.Get(Retire1) + f.Get(Retire2) + f.Get(Retire3)
	laws := []law{
		{"cycles == cycles_halted + retire histogram", f.Get(Cycles), f.Get(CyclesHalted) + retireSum, true},
		{"cycles_dt <= cycles", f.Get(CyclesDT), f.Get(Cycles), false},
		{"cycles_os <= cycles", f.Get(CyclesOS), f.Get(Cycles), false},
		{"cycles_halted <= cycles", f.Get(CyclesHalted), f.Get(Cycles), false},
		{"uops_retired_os <= uops_retired", f.Get(InstructionsOS), f.Get(Instructions), false},
		{"retire histogram lower-bounds uops_retired", f.Get(Retire1) + 2*f.Get(Retire2) + 3*f.Get(Retire3), f.Get(Instructions), false},
		{"tc_misses <= tc_accesses", f.Get(TCMisses), f.Get(TCAccesses), false},
		{"l1d_misses <= l1d_accesses", f.Get(L1DMisses), f.Get(L1DAccesses), false},
		{"l2_misses <= l2_accesses", f.Get(L2Misses), f.Get(L2Accesses), false},
		{"itlb_misses <= itlb_accesses", f.Get(ITLBMisses), f.Get(ITLBAccesses), false},
		{"dtlb_misses <= dtlb_accesses", f.Get(DTLBMisses), f.Get(DTLBAccesses), false},
		{"btb_misses <= branches", f.Get(BTBMisses), f.Get(Branches), false},
		{"branch_mispredicts <= branches", f.Get(BranchMispredicts), f.Get(Branches), false},
		{"l2_accesses == l1d_misses + tc_misses", f.Get(L2Accesses), f.Get(L1DMisses) + f.Get(TCMisses), true},
		{"mem traffic == l2_misses", f.Get(MemReads) + f.Get(MemWrites), f.Get(L2Misses), true},
		// Synchronization laws. Each pair is incremented at the same
		// instant (a failed CAS bumps cas_ops in the same interpreter
		// step; a fence stall is one flavor of fetch stall, counted in
		// the same front-end cycle; a contended acquisition blocks the
		// thread, which is what monitor_blocks counts), so the laws
		// hold for windowed files too.
		{"cas_failures <= cas_ops", f.Get(CASFailures), f.Get(CASOps), false},
		{"fence_stall_cycles <= fetch_stall_cycles", f.Get(FenceStallCycles), f.Get(FetchStallCycles), false},
		{"lock_contended <= monitor_blocks", f.Get(LockContended), f.Get(MonitorBlocks), false},
	}
	for _, l := range laws {
		if l.exact && l.lhs != l.rhs {
			return fmt.Errorf("counters: conservation violated: %s (%d vs %d)", l.name, l.lhs, l.rhs)
		}
		if !l.exact && l.lhs > l.rhs {
			return fmt.Errorf("counters: conservation violated: %s (%d vs %d)", l.name, l.lhs, l.rhs)
		}
	}
	return nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Report renders the file as an aligned name/value table, optionally
// restricted to the given events (nil means every nonzero counter).
func (f *File) Report(events []Event) string {
	if events == nil {
		for e := Event(0); int(e) < NumEvents; e++ {
			if f.counts[e] != 0 {
				events = append(events, e)
			}
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "%-20s %14d\n", e.String(), f.Get(e))
	}
	return b.String()
}
