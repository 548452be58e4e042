// Symbiotic-scheduling experiments: multiprogrammed server mixes run
// under each seating policy (internal/simos.Policy) on each machine
// geometry. cmd/sweep -policies drives RunPolicySweep to produce the
// headline policy × mix × geometry table.

package harness

import (
	"fmt"
	"strings"

	"javasmt/internal/bench"
	"javasmt/internal/core"
	"javasmt/internal/counters"
	"javasmt/internal/sampling"
)

// MixPart is one VM of a workload mix: a benchmark instance with its
// software-thread count. Each part gets its own address space (distinct
// code base and heap base), so a mix is a multiprogrammed workload like
// the paper's pairing runs, not one big process.
type MixPart struct {
	Benchmark string
	Threads   int
}

// Mix is a named multiprogrammed workload: several VMs co-scheduled
// under one simulated kernel. Server-style mixes oversubscribe the
// machine (total threads well beyond the hardware contexts) so the
// seating policy has real decisions to make every quantum.
type Mix struct {
	Name  string
	Parts []MixPart
}

// Threads returns the mix's total software-thread count across parts.
func (m Mix) Threads() int {
	n := 0
	for _, p := range m.Parts {
		n += p.Threads
	}
	return n
}

// serverUtilities is the rotation of single-threaded utility programs
// mixed into server loads (the paper co-schedules SPECjvm98 programs
// the same way in §4.2).
var serverUtilities = []string{"javac", "jack", "compress", "mpegaudio"}

// jbbVMThreads caps one PseudoJBB VM's warehouse count; larger loads
// shard across VMs (the VM substrate caps threads per process, and real
// server deployments shard JVMs the same way).
const jbbVMThreads = 32

// ServerMix builds a PseudoJBB-heavy server mix totalling `total`
// software threads: transaction-processing VMs of up to 32 threads
// each, plus one single-threaded utility VM (javac, jack, compress,
// mpegaudio in rotation) per 32 threads of load. The construction is
// deterministic: the same total always yields the same mix.
func ServerMix(total int) Mix {
	if total < 1 {
		total = 1
	}
	utils := total / jbbVMThreads
	if total >= 8 && utils == 0 {
		utils = 1
	}
	if utils >= total {
		utils = 0
	}
	m := Mix{Name: fmt.Sprintf("server-%d", total)}
	remaining := total - utils
	for remaining > 0 {
		n := remaining
		if n > jbbVMThreads {
			n = jbbVMThreads
		}
		m.Parts = append(m.Parts, MixPart{Benchmark: "PseudoJBB", Threads: n})
		remaining -= n
	}
	for i := 0; i < utils; i++ {
		m.Parts = append(m.Parts, MixPart{Benchmark: serverUtilities[i%len(serverUtilities)], Threads: 1})
	}
	return m
}

// MixResult is one mix run's outcome.
type MixResult struct {
	Mix     string
	Threads int
	Cycles  uint64
	// Counters accumulates over the whole co-scheduled interval;
	// Migrations is its thread_migrations count, broken out because it
	// is the policy sweep's secondary headline metric.
	Counters   counters.File
	Migrations uint64
	// Sampling carries the reconstruction record of a sampled run (nil
	// for full simulation).
	Sampling *sampling.Estimate `json:",omitempty"`
}

// IPC returns the mix's aggregate retired µops per cycle — the policy
// sweep's primary metric (per-program completion times are ill-defined
// when every VM runs exactly once).
func (r *MixResult) IPC() float64 { return r.Counters.IPC() }

// RunMix co-schedules every part of the mix under one kernel on one
// machine and runs to completion. Options is interpreted as for Run,
// except Threads is ignored (the mix fixes per-part thread counts) and
// Verify checks every part's published results.
func RunMix(m Mix, opts Options) (*MixResult, error) {
	lanes := make([]*lane, len(m.Parts))
	for slot, p := range m.Parts {
		b, ok := bench.ByName(p.Benchmark)
		if !ok {
			return nil, fmt.Errorf("harness: mix %s: unknown benchmark %q", m.Name, p.Benchmark)
		}
		// Code bases sit above every heap lane (vmConfig places heaps at
		// 0x2000_0000 + slot GB) and well clear of simos.KernelCodeBase:
		// a 16-VM mix's seventh code lane would otherwise alias the first
		// VM's heap in the shared L2 under the pairing scheme's
		// (1+slot)<<26 spacing.
		lanes[slot] = newLane(b, p.Threads, slot, 1<<40|uint64(slot)<<26)
	}
	cpu := core.New(cpuConfig(opts))
	sim := &simulation{name: "mix " + m.Name, opts: opts, lanes: lanes}
	est, err := sim.run(cpu)
	if err != nil {
		return nil, err
	}
	ctr := cpu.Counters()
	return &MixResult{
		Mix:        m.Name,
		Threads:    m.Threads(),
		Cycles:     ctr.Get(counters.Cycles),
		Counters:   *ctr,
		Migrations: ctr.Get(counters.ThreadMigrations),
		Sampling:   est,
	}, nil
}

// PolicyCell is one cell of a policy sweep (cmd/sweep -policies): a
// workload mix run under one seating policy on one machine geometry,
// with its full counter file. Failed carries the failure reason when
// the campaign gave up on the cell.
type PolicyCell struct {
	Mix        string
	Threads    int
	Policy     string
	Geometry   core.Geometry
	Cycles     uint64
	Migrations uint64
	Counters   counters.File
	Failed     string `json:",omitempty"`
}

// IPC returns the cell's aggregate retired µops per cycle.
func (c *PolicyCell) IPC() float64 { return c.Counters.IPC() }

// RunPolicySweep runs every mix under every seating policy on every
// machine geometry — the symbiotic-scheduling headline experiment:
// server mixes of 32-256 threads on 1×2, 2×2 and 4×4 machines, naive
// FIFO against the geometry- and metric-aware policies — under cfg's
// campaign policy (deadline, budget, retries, journal, fault
// injection). Cell order is policy-major within mix×geometry so the
// rendered table's rows group naturally.
func RunPolicySweep(cfg Config, policies []string, mixes []Mix, geos []core.Geometry) ([]PolicyCell, []Failure, error) {
	return runGrid(cfg, policyCells(policies, mixes, geos))
}

// RenderPolicySweep formats the policy sweep as the headline table: one
// row per mix×geometry, one IPC column per policy, plus the best and
// worst policies and their IPC gap. A second block reports thread
// migrations per policy.
func RenderPolicySweep(cells []PolicyCell) string {
	type rowKey struct {
		mix string
		geo core.Geometry
	}
	var rows []rowKey
	var policies []string
	seenRow := map[rowKey]bool{}
	seenPol := map[string]bool{}
	byCell := map[rowKey]map[string]*PolicyCell{}
	for i := range cells {
		c := &cells[i]
		rk := rowKey{c.Mix, c.Geometry}
		if !seenRow[rk] {
			seenRow[rk] = true
			rows = append(rows, rk)
			byCell[rk] = map[string]*PolicyCell{}
		}
		if !seenPol[c.Policy] {
			seenPol[c.Policy] = true
			policies = append(policies, c.Policy)
		}
		byCell[rk][c.Policy] = c
	}
	var sb strings.Builder
	sb.WriteString("Symbiotic scheduling: aggregate IPC by seating policy\n")
	fmt.Fprintf(&sb, "%-14s %-8s", "Mix", "Geo")
	for _, p := range policies {
		fmt.Fprintf(&sb, " %16s", p)
	}
	fmt.Fprintf(&sb, " %10s %9s\n", "best", "gap%")
	for _, rk := range rows {
		fmt.Fprintf(&sb, "%-14s %-8v", rk.mix, rk.geo)
		best, worst := "", ""
		bestIPC, worstIPC := 0.0, 0.0
		for _, p := range policies {
			c := byCell[rk][p]
			if c == nil {
				fmt.Fprintf(&sb, " %16s", "-")
				continue
			}
			if c.Failed != "" {
				fmt.Fprintf(&sb, " %16s", "FAILED")
				continue
			}
			ipc := c.IPC()
			fmt.Fprintf(&sb, " %16.3f", ipc)
			if best == "" || ipc > bestIPC {
				best, bestIPC = p, ipc
			}
			if worst == "" || ipc < worstIPC {
				worst, worstIPC = p, ipc
			}
		}
		if best != "" && worstIPC > 0 {
			fmt.Fprintf(&sb, " %10s %8.1f%%\n", best, 100*(bestIPC-worstIPC)/worstIPC)
		} else {
			fmt.Fprintf(&sb, " %10s %9s\n", "-", "-")
		}
	}
	sb.WriteString("\nThread migrations per cell\n")
	fmt.Fprintf(&sb, "%-14s %-8s", "Mix", "Geo")
	for _, p := range policies {
		fmt.Fprintf(&sb, " %16s", p)
	}
	sb.WriteString("\n")
	for _, rk := range rows {
		fmt.Fprintf(&sb, "%-14s %-8v", rk.mix, rk.geo)
		for _, p := range policies {
			c := byCell[rk][p]
			if c == nil || c.Failed != "" {
				fmt.Fprintf(&sb, " %16s", "-")
				continue
			}
			fmt.Fprintf(&sb, " %16d", c.Migrations)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
