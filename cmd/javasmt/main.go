// Command javasmt runs one Java benchmark on the simulated Hyper-Threading
// processor and prints its performance counters — the equivalent of one
// Brink & Abyss measurement session from the paper.
//
// The run is guarded by the campaign resilience block: -deadline and
// -cycle-budget bound it, -retries absorbs transient failures, and a
// panic inside the simulator reports a structured failure instead of a
// crash.
//
// Usage:
//
//	javasmt -bench compress -ht
//	javasmt -bench MolDyn -threads 8 -scale small -ht
//	javasmt -bench jack -ht -partition dynamic
//	javasmt -bench compress -metrics m.json -trace t.json -sample 50000
//	javasmt -bench db -ht -deadline 10m -cycle-budget 5000000000
package main

import (
	"flag"
	"fmt"

	"javasmt/internal/bench"
	"javasmt/internal/cli"
	"javasmt/internal/core"
	"javasmt/internal/counters"
	"javasmt/internal/harness"
	"javasmt/internal/simos"
)

func main() {
	var (
		name      = flag.String("bench", "compress", "benchmark name (see -list)")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		threads   = flag.Int("threads", 1, "Java threads for multithreaded benchmarks")
		ht        = flag.Bool("ht", false, "enable Hyper-Threading")
		cores     = flag.Int("cores", 0, "machine geometry: physical cores (with -contexts; 0 = the classic -ht machine)")
		contexts  = flag.Int("contexts", 0, "machine geometry: hardware contexts per core (with -cores)")
		partition = flag.String("partition", "static", "resource partition: static|dynamic")
		tcShared  = flag.Bool("tc-shared-tags", false, "ablation: share trace-cache lines across contexts")
		noVerify  = flag.Bool("no-verify", false, "skip result verification against the Go mirror")
	)
	cf := cli.Register("javasmt", flag.CommandLine, cli.Options{})
	flag.Parse()
	c := cf.MustFinish()
	geo := core.Geometry{Cores: *cores, ContextsPerCore: *contexts}
	if (geo != core.Geometry{}) && (geo.Cores <= 0 || geo.ContextsPerCore <= 0) {
		c.Usagef("-cores and -contexts must be given together as positive counts (got %v)", geo)
	}

	if *list {
		fmt.Print(harness.Table1())
		return
	}
	b, ok := bench.ByName(*name)
	if !ok {
		c.Usagef("unknown benchmark %q; use -list", *name)
	}
	opts := harness.Options{
		HT:           *ht,
		Geometry:     geo,
		Threads:      *threads,
		Scale:        c.Scale,
		Verify:       !*noVerify,
		TCSharedTags: *tcShared,
		Obs:          c.Obs,
		Plan:         c.Plan,
		SchedPolicy:  c.SchedPolicy,
		SchedParams:  simos.Params{Timeslice: c.Timeslice},
	}
	if *partition == "dynamic" {
		opts.Partition = core.DynamicPartition
	} else if *partition != "static" {
		c.Usagef("unknown partition %q", *partition)
	}

	own := fmt.Sprintf("javasmt bench=%s threads=%d scale=%v ht=%v partition=%s", b.Name, *threads, c.Scale, *ht, *partition)
	if (geo != core.Geometry{}) {
		own += fmt.Sprintf(" geo=%v", geo)
	}
	j, err := c.OpenJournal(c.Identity(own))
	if err != nil {
		c.Fatal(err)
	}
	res, failed, err := harness.RunResilient(b, opts, c.Attach(harness.Config{Scale: c.Scale, Policy: c.Policy}, j))
	if err != nil {
		c.Fatal(err)
	}
	c.Close(j)
	c.ExitFailures(failed)

	f := &res.Counters
	machine := fmt.Sprintf("ht=%v", *ht)
	if (geo != core.Geometry{}) {
		machine = fmt.Sprintf("geo=%v", geo)
	}
	fmt.Printf("benchmark    %s (threads=%d scale=%v %s partition=%s)\n",
		b.Name, *threads, c.Scale, machine, *partition)
	fmt.Printf("cycles       %d\n", res.Cycles)
	fmt.Printf("uops         %d\n", f.Get(counters.Instructions))
	fmt.Printf("IPC          %.3f   CPI %.3f\n", f.IPC(), f.CPI())
	fmt.Printf("OS cycles    %.2f%%  DT mode %.2f%%  GCs %d\n",
		f.OSCyclePercent(), f.DTModePercent(), res.GCCount)
	p := f.RetirementProfile()
	fmt.Printf("retire 0/1/2/3  %.3f / %.3f / %.3f / %.3f\n", p[0], p[1], p[2], p[3])
	fmt.Printf("TC miss/1k   %.3f\n", f.PerKiloInstr(counters.TCMisses))
	fmt.Printf("L1D miss/1k  %.3f\n", f.PerKiloInstr(counters.L1DMisses))
	fmt.Printf("L2 miss/1k   %.3f\n", f.PerKiloInstr(counters.L2Misses))
	fmt.Printf("ITLB miss/1k %.3f\n", f.PerKiloInstr(counters.ITLBMisses))
	fmt.Printf("BTB missrate %.4f\n", f.Rate(counters.BTBMisses, counters.Branches))
	fmt.Println()
	fmt.Println(f.Report(nil))
}
