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

	cfg := c.HarnessConfig(nil)
	cfg.Runs = *runs
	cfg.Progress = c.Progress()

	if *all {
		targets := bench.SingleThreaded()
		if *benches != "" {
			targets = nil
			for _, n := range strings.Split(*benches, ",") {
				b, ok := bench.ByName(strings.TrimSpace(n))
				if !ok {
					c.Usagef("unknown benchmark %q in -benches", n)
				}
				targets = append(targets, b)
			}
		}
		var names []string
		for _, b := range targets {
			names = append(names, b.Name)
		}
		j, err := c.OpenJournal(fmt.Sprintf("pairings scale=%v runs=%d benches=%s",
			c.Scale, *runs, strings.Join(names, ",")))
		if err != nil {
			c.Fatal(err)
		}
		cfg.Journal = j
		p, err := harness.RunPairingsOf(targets, cfg)
		if err != nil {
			c.Fatal(err)
		}
		if err := j.Close(); err != nil {
			c.Fatal(err)
		}
		if err := c.WriteObs(); err != nil {
			c.Fatal(err)
		}
		fmt.Println(p.Fig8())
		fmt.Println(p.Fig9())
		fmt.Println(p.Fig11())
		c.ExitFailures(p.Failed)
		return
	}

	a, ok := bench.ByName(*aName)
	if !ok {
		c.Fatal(fmt.Errorf("unknown benchmark %q", *aName))
	}
	b, ok := bench.ByName(*bName)
	if !ok {
		c.Fatal(fmt.Errorf("unknown benchmark %q", *bName))
	}
	j, err := c.OpenJournal(fmt.Sprintf("pair scale=%v runs=%d", c.Scale, *runs))
	if err != nil {
		c.Fatal(err)
	}
	cfg.Journal = j
	res, fail, err := harness.RunPairCell(a, b, cfg)
	if err != nil {
		c.Fatal(err)
	}
	if err := j.Close(); err != nil {
		c.Fatal(err)
	}
	if err := c.WriteObs(); err != nil {
		c.Fatal(err)
	}
	if fail != nil {
		c.ExitFailures([]harness.Failure{{Cell: fail.Cell, Kind: string(fail.Kind), Reason: fail.Reason()}})
	}
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
