// Command sweep varies the Java thread count of the multithreaded
// benchmarks on the HT processor (Figure 12) and reports IPC and L1D
// behaviour at each point. Grid points are independent simulations and
// fan out across -j worker threads (default: all CPUs); output order is
// fixed regardless of -j.
//
// With -geos the sweep axis is the machine shape instead of the thread
// count: every benchmark (single- and multithreaded) runs on each
// CORESxCONTEXTS geometry — the paper's HT processor is 1x2, a wider
// SMT core 1x4, a dual-core without SMT 2x1 — with multithreaded
// programs seating one software thread per hardware context.
//
// With -policies the sweep compares seating policies: PseudoJBB-heavy
// server mixes (-mixes, total software threads per mix) run under each
// policy on each machine shape, reporting aggregate IPC per policy and
// the best-vs-worst gap — the symbiotic-scheduling headline table.
//
// The sweep runs under the campaign resilience block: cells bounded by
// -deadline/-cycle-budget print as FAILED rows instead of aborting the
// grid, and -journal/-resume checkpoint long sweeps.
//
//	sweep
//	sweep -bench MolDyn -threads 1,2,4,8,16 -scale small -j 4
//	sweep -benches SyncLock,SyncCAS,MolDyn -threads 2,4
//	sweep -benches SyncQueue -geos 1x2,2x2
//	sweep -geos 1x1,1x2,2x1,2x2,4x4
//	sweep -policies all -mixes 32,128 -geos 1x2,2x2,4x4
//	sweep -trace t.json -metrics m.json
//	sweep -journal /tmp/sweep -deadline 5m
package main

import (
	"flag"
	"fmt"
	"strings"

	"javasmt/internal/bench"
	"javasmt/internal/cli"
	"javasmt/internal/counters"
	"javasmt/internal/harness"
	"javasmt/internal/simos"
)

func main() {
	var (
		name     = flag.String("bench", "", "single benchmark (default: all multithreaded)")
		benches  = flag.String("benches", "", "comma-separated benchmark list (Table 1 and sync-stress names); overrides -bench")
		threads  = flag.String("threads", "1,2,4,8,16", "comma-separated thread counts")
		geoList  = flag.String("geos", "", "comma-separated machine geometries (CORESxCONTEXTS, e.g. 1x2,2x2); replaces the thread axis")
		policies = flag.String("policies", "", "comma-separated seating policies, or `all`; compares them on server mixes (-mixes) per geometry")
		mixes    = flag.String("mixes", "32,64,128", "with -policies: comma-separated server-mix sizes in total software threads")
	)
	cf := cli.Register("sweep", flag.CommandLine, cli.Options{Jobs: true})
	flag.Parse()
	c := cf.MustFinish()

	if *policies != "" {
		policySweep(c, *policies, *mixes, *geoList)
		return
	}
	if *geoList != "" {
		geometrySweep(c, *name, *benches, *geoList)
		return
	}

	counts, err := cli.ParseCounts("thread count", *threads)
	if err != nil {
		c.Usagef("%v", err)
	}

	targets := bench.Multithreaded()
	if *benches != "" {
		targets = parseBenches(c, *benches)
	} else if *name != "" {
		b, ok := bench.ByName(*name)
		if !ok || !b.Multithreaded {
			c.Usagef("%q is not a multithreaded benchmark", *name)
		}
		targets = []*bench.Benchmark{b}
	}
	var names []string
	for _, b := range targets {
		names = append(names, b.Name)
	}

	j, err := c.OpenJournal(fmt.Sprintf("sweep scale=%v benches=%s threads=%s",
		c.Scale, strings.Join(names, ","), *threads))
	if err != nil {
		c.Fatal(err)
	}
	cells, failed, err := harness.RunSweep(c.HarnessConfig(j), targets, counts)
	if err != nil {
		c.Fatal(err)
	}
	if err := j.Close(); err != nil {
		c.Fatal(err)
	}
	if err := c.WriteObs(); err != nil {
		c.Fatal(err)
	}

	fmt.Printf("%-12s %8s %8s %10s %10s %8s %10s %12s\n",
		"benchmark", "threads", "IPC", "L1D/1k", "OS %", "DT %", "lockCont", "fenceStall")
	for _, cell := range cells {
		if cell.Failed != "" {
			fmt.Printf("%-12s %8d FAILED(%s)\n", cell.Benchmark, cell.Threads, cell.Failed)
			continue
		}
		f := &cell.Counters
		fmt.Printf("%-12s %8d %8.3f %10.2f %9.1f%% %7.1f%% %10d %12d\n",
			cell.Benchmark, cell.Threads, f.IPC(), f.PerKiloInstr(counters.L1DMisses),
			f.OSCyclePercent(), f.DTModePercent(),
			f.Get(counters.LockContended), f.Get(counters.FenceStallCycles))
	}
	c.ExitFailures(failed)
}

// parseBenches parses the -benches list, exiting 2 on a bad one.
func parseBenches(c *cli.Common, list string) []*bench.Benchmark {
	out, err := cli.ParseBenchmarks(list)
	if err != nil {
		c.Usagef("-benches: %v", err)
	}
	return out
}

// policySweep runs the seating-policy axis: each server mix under each
// policy on each geometry, rendered as the policy comparison table.
func policySweep(c *cli.Common, policyList, mixList, geoList string) {
	var pols []string
	if policyList == "all" {
		pols = simos.PolicyNames()
	} else {
		for _, p := range strings.Split(policyList, ",") {
			p = strings.TrimSpace(p)
			if _, err := simos.NewPolicy(p); err != nil || p == "" {
				c.Usagef("bad policy %q (want one of %s, or all)", p, strings.Join(simos.PolicyNames(), "|"))
			}
			pols = append(pols, p)
		}
	}
	if geoList == "" {
		geoList = "1x2,2x2,4x4"
	}
	geos, err := cli.ParseGeometries(geoList)
	if err != nil {
		c.Usagef("%v", err)
	}
	sizes, err := cli.ParseCounts("mix size", mixList)
	if err != nil {
		c.Usagef("%v", err)
	}
	var ms []harness.Mix
	for _, n := range sizes {
		ms = append(ms, harness.ServerMix(n))
	}

	j, err := c.OpenJournal(fmt.Sprintf("sweep scale=%v policies=%s mixes=%s geos=%s",
		c.Scale, strings.Join(pols, ","), mixList, geoList))
	if err != nil {
		c.Fatal(err)
	}
	cfg := c.HarnessConfig(j)
	cfg.Progress = c.Progress()
	cells, failed, err := harness.RunPolicySweep(cfg, pols, ms, geos)
	if err != nil {
		c.Fatal(err)
	}
	if err := j.Close(); err != nil {
		c.Fatal(err)
	}
	if err := c.WriteObs(); err != nil {
		c.Fatal(err)
	}

	fmt.Print(harness.RenderPolicySweep(cells))
	c.ExitFailures(failed)
}

// geometrySweep runs the machine-shape axis: each target benchmark on
// each -geos geometry.
func geometrySweep(c *cli.Common, name, benches, geoList string) {
	geos, err := cli.ParseGeometries(geoList)
	if err != nil {
		c.Usagef("%v", err)
	}
	targets := bench.All()
	if benches != "" {
		targets = parseBenches(c, benches)
	} else if name != "" {
		b, ok := bench.ByName(name)
		if !ok {
			c.Usagef("unknown benchmark %q", name)
		}
		targets = []*bench.Benchmark{b}
	}
	var names []string
	for _, b := range targets {
		names = append(names, b.Name)
	}

	j, err := c.OpenJournal(fmt.Sprintf("sweep scale=%v benches=%s geos=%s",
		c.Scale, strings.Join(names, ","), geoList))
	if err != nil {
		c.Fatal(err)
	}
	cells, failed, err := harness.RunGeometrySweep(c.HarnessConfig(j), targets, geos)
	if err != nil {
		c.Fatal(err)
	}
	if err := j.Close(); err != nil {
		c.Fatal(err)
	}
	if err := c.WriteObs(); err != nil {
		c.Fatal(err)
	}

	fmt.Printf("%-12s %8s %8s %8s %10s %10s %8s\n", "benchmark", "geo", "threads", "IPC", "L1D/1k", "OS %", "DT %")
	for _, cell := range cells {
		if cell.Failed != "" {
			fmt.Printf("%-12s %8v FAILED(%s)\n", cell.Benchmark, cell.Geometry, cell.Failed)
			continue
		}
		f := &cell.Counters
		fmt.Printf("%-12s %8v %8d %8.3f %10.2f %9.1f%% %7.1f%%\n",
			cell.Benchmark, cell.Geometry, cell.Threads, f.IPC(), f.PerKiloInstr(counters.L1DMisses),
			f.OSCyclePercent(), f.DTModePercent())
	}
	c.ExitFailures(failed)
}
