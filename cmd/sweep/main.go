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
	"javasmt/internal/service"
)

func main() {
	var (
		name     = flag.String("bench", "", "single benchmark (default: all multithreaded)")
		benches  = flag.String("benches", "", "comma-separated benchmark list (Table 1 and sync-stress names); overrides -bench")
		threads  = flag.String("threads", "", "comma-separated thread counts (default 1,2,4,8,16)")
		geoList  = flag.String("geos", "", "comma-separated machine geometries (CORESxCONTEXTS, e.g. 1x2,2x2); replaces the thread axis (with -policies: default 1x2,2x2,4x4)")
		policies = flag.String("policies", "", "comma-separated seating policies, or `all`; compares them on server mixes (-mixes) per geometry")
		mixes    = flag.String("mixes", "", "with -policies: comma-separated server-mix sizes in total software threads (default 32,64,128)")
	)
	cf := cli.Register("sweep", flag.CommandLine, cli.Options{Jobs: true})
	flag.Parse()
	c := cf.MustFinish()

	var spec service.JobSpec
	switch {
	case *policies != "":
		spec = service.JobSpec{Kind: "policy", Policies: list(*policies), Mixes: counts(c, "mix size", *mixes),
			Geometries: list(*geoList)}
	case *geoList != "":
		spec = service.JobSpec{Kind: "geometry", Benchmarks: targets(c, *benches, *name, false), Geometries: list(*geoList)}
	default:
		spec = service.JobSpec{Kind: "sweep", Benchmarks: targets(c, *benches, *name, true),
			Threads: counts(c, "thread count", *threads)}
	}
	p, err := service.ResolveFlags(spec, c)
	if err != nil {
		c.Usagef("%v", err)
	}
	j, err := c.OpenJournal(p.Identity())
	if err != nil {
		c.Fatal(err)
	}
	cfg := c.Attach(p.Config(), j)
	var out strings.Builder
	var failed []harness.Failure
	switch spec.Kind {
	case "policy":
		failed = policySweep(c, cfg, p, &out)
	case "geometry":
		failed = geometrySweep(c, cfg, p, &out)
	default:
		failed = threadSweep(c, cfg, p, &out)
	}
	c.Close(j)
	fmt.Print(out.String())
	c.ExitFailures(failed)
}

// list splits a comma-separated flag value; empty means not given.
func list(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// targets is the -benches list, else the one -bench benchmark, else nil
// (the kind's default set); a thread sweep takes only a multithreaded
// -bench.
func targets(c *cli.Common, benches, name string, multithreaded bool) []string {
	if benches != "" {
		return list(benches)
	}
	if name == "" {
		return nil
	}
	if b, ok := bench.ByName(name); multithreaded && (!ok || !b.Multithreaded) {
		c.Usagef("%q is not a multithreaded benchmark", name)
	}
	return []string{name}
}

// counts parses a comma-separated count flag, exiting 2 on a bad one;
// empty means not given.
func counts(c *cli.Common, what, s string) []int {
	if s == "" {
		return nil
	}
	ns, err := cli.ParseCounts(what, s)
	if err != nil {
		c.Usagef("%v", err)
	}
	return ns
}

// threadSweep runs the thread-count axis: each target benchmark at each
// -threads count.
func threadSweep(c *cli.Common, cfg harness.Config, p *service.Plan, out *strings.Builder) []harness.Failure {
	cells, failed, err := harness.RunSweep(cfg, p.Benchmarks, p.Threads)
	if err != nil {
		c.Fatal(err)
	}
	fmt.Fprintf(out, "%-12s %8s %8s %10s %10s %8s %10s %12s\n",
		"benchmark", "threads", "IPC", "L1D/1k", "OS %", "DT %", "lockCont", "fenceStall")
	for _, cell := range cells {
		if cell.Failed != "" {
			fmt.Fprintf(out, "%-12s %8d FAILED(%s)\n", cell.Benchmark, cell.Threads, cell.Failed)
			continue
		}
		f := &cell.Counters
		fmt.Fprintf(out, "%-12s %8d %8.3f %10.2f %9.1f%% %7.1f%% %10d %12d\n",
			cell.Benchmark, cell.Threads, f.IPC(), f.PerKiloInstr(counters.L1DMisses),
			f.OSCyclePercent(), f.DTModePercent(),
			f.Get(counters.LockContended), f.Get(counters.FenceStallCycles))
	}
	return failed
}

// policySweep runs the seating-policy axis: each server mix under each
// policy on each geometry, rendered as the policy comparison table.
func policySweep(c *cli.Common, cfg harness.Config, p *service.Plan, out *strings.Builder) []harness.Failure {
	cells, failed, err := harness.RunPolicySweep(cfg, p.Policies, p.Mixes, p.Geos)
	if err != nil {
		c.Fatal(err)
	}
	out.WriteString(harness.RenderPolicySweep(cells))
	return failed
}

// geometrySweep runs the machine-shape axis: each target benchmark on
// each -geos geometry.
func geometrySweep(c *cli.Common, cfg harness.Config, p *service.Plan, out *strings.Builder) []harness.Failure {
	cells, failed, err := harness.RunGeometrySweep(cfg, p.Benchmarks, p.Geos)
	if err != nil {
		c.Fatal(err)
	}
	fmt.Fprintf(out, "%-12s %8s %8s %8s %10s %10s %8s\n", "benchmark", "geo", "threads", "IPC", "L1D/1k", "OS %", "DT %")
	for _, cell := range cells {
		if cell.Failed != "" {
			fmt.Fprintf(out, "%-12s %8v FAILED(%s)\n", cell.Benchmark, cell.Geometry, cell.Failed)
			continue
		}
		f := &cell.Counters
		fmt.Fprintf(out, "%-12s %8v %8d %8.3f %10.2f %9.1f%% %7.1f%%\n",
			cell.Benchmark, cell.Geometry, cell.Threads, f.IPC(), f.PerKiloInstr(counters.L1DMisses),
			f.OSCyclePercent(), f.DTModePercent())
	}
	return failed
}
