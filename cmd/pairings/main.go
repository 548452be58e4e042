// Command pairings runs multiprogramming experiments: a single pair with
// detailed output, or the full 9x9 cross product (Figures 8, 9, 11).
// The cross product fans out across -j worker threads (default: all
// CPUs); results are byte-identical at every -j.
//
// Long campaigns run under the resilience block: -deadline/-cycle-budget
// bound each cell, -retries absorbs transient failures, and
// -journal/-resume checkpoint the campaign so an interrupted run picks
// up where it left off. Failed cells degrade to FAILED report entries
// and a nonzero exit instead of aborting the campaign.
//
//	pairings -a jack -b mpegaudio
//	pairings -all -runs 6 -j 4
//	pairings -all -benches compress,mpegaudio,db   # reduced cross product
//	pairings -all -journal /tmp/camp               # ... interrupted ...
//	pairings -all -journal /tmp/camp -resume
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
		aName   = flag.String("a", "compress", "first benchmark")
		bName   = flag.String("b", "mpegaudio", "second benchmark")
		all     = flag.Bool("all", false, "run the full 9x9 cross product")
		benches = flag.String("benches", "", "comma-separated benchmarks restricting the -all cross product")
		runs    = flag.Int("runs", 6, "averaged runs per program (paper: 12)")
	)
	cf := cli.Register("pairings", flag.CommandLine, cli.Options{Jobs: true, Quiet: true})
	flag.Parse()
	c := cf.MustFinish()

	if *all {
		spec := service.JobSpec{Kind: "pairings", Runs: *runs}
		if *benches != "" {
			spec.Benchmarks = strings.Split(*benches, ",")
		}
		p := resolve(c, spec)
		j, err := c.OpenJournal(p.Identity())
		if err != nil {
			c.Fatal(err)
		}
		res, err := harness.RunPairingsOf(p.Benchmarks, c.Attach(p.Config(), j))
		if err != nil {
			c.Fatal(err)
		}
		c.Close(j)
		fmt.Println(res.Fig8())
		fmt.Println(res.Fig9())
		fmt.Println(res.Fig11())
		c.ExitFailures(res.Failed)
		return
	}

	// One pair is one cell of the pairings campaign over its two
	// programs: it runs under that campaign's configuration and keeps an
	// identity of its own.
	a, ok := bench.ByName(*aName)
	if !ok {
		c.Fatal(fmt.Errorf("unknown benchmark %q", *aName))
	}
	b, ok := bench.ByName(*bName)
	if !ok {
		c.Fatal(fmt.Errorf("unknown benchmark %q", *bName))
	}
	cfg := resolve(c, service.JobSpec{Kind: "pairings", Benchmarks: []string{a.Name, b.Name}, Runs: *runs}).Config()
	j, err := c.OpenJournal(c.Identity(fmt.Sprintf("pair scale=%v runs=%d", cfg.Scale, cfg.Runs)))
	if err != nil {
		c.Fatal(err)
	}
	res, failed, err := harness.RunPairCell(a, b, c.Attach(cfg, j))
	if err != nil {
		c.Fatal(err)
	}
	c.Close(j)
	c.ExitFailures(failed)
	f := &res.Counters
	fmt.Printf("pair            %s + %s\n", res.A, res.B)
	fmt.Printf("solo cycles     %s=%.0f  %s=%.0f\n", res.A, res.SoloA, res.B, res.SoloB)
	fmt.Printf("paired cycles   %s=%.0f (%d runs)  %s=%.0f (%d runs)\n",
		res.A, res.TimeA, res.RunsA, res.B, res.TimeB, res.RunsB)
	fmt.Printf("speedups        %s=%.3f  %s=%.3f\n", res.A, res.SpeedupA(), res.B, res.SpeedupB())
	fmt.Printf("combined C_AB   %.3f  (1 = perfect time sharing, 2 = perfect SMP)\n", res.CombinedSpeedup())
	fmt.Printf("interval: TC/1k %.2f  L1D/1k %.2f  L2/1k %.2f  BTB %.4f  DT %.1f%%\n",
		f.PerKiloInstr(counters.TCMisses), f.PerKiloInstr(counters.L1DMisses),
		f.PerKiloInstr(counters.L2Misses), f.Rate(counters.BTBMisses, counters.Branches),
		f.DTModePercent())
}

// resolve resolves a pairings campaign from the flags, exiting 2 on a
// bad one.
func resolve(c *cli.Common, spec service.JobSpec) *service.Plan {
	p, err := service.ResolveFlags(spec, c)
	if err != nil {
		c.Usagef("%v", err)
	}
	return p
}
