// Command report regenerates the paper's tables and figures on the
// simulated machine. By default it produces everything; individual
// figures can be selected with flags.
//
// Independent runs within each experiment fan out across -j worker
// threads (default: all CPUs); every table is byte-identical at any -j.
//
// Campaigns run under the resilience block: cells that panic, time out
// (-deadline) or exhaust -cycle-budget render as FAILED entries in an
// otherwise complete report, and the exit status is nonzero so scripts
// notice; -journal/-resume checkpoint long report runs.
//
//	report                  # all tables and figures
//	report -table2 -fig1    # only the selected items
//	report -scale small     # larger inputs (slower, closer to the paper)
//	report -j 1             # serial execution
//	report -fig10 -metrics m.json   # plus sampled time-series
//	report -journal /tmp/rep -deadline 10m  # resumable, bounded cells
package main

import (
	"flag"
	"fmt"
	"strings"

	"javasmt/internal/cli"
	"javasmt/internal/harness"
)

func main() {
	runs := flag.Int("runs", 6, "averaged runs per program in pairing experiments (paper: 12)")
	sel := map[string]*bool{}
	for _, name := range []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"} {
		sel[name] = flag.Bool(name, false, "render "+name)
	}
	cf := cli.Register("report", flag.CommandLine, cli.Options{Jobs: true, Quiet: true})
	flag.Parse()
	c := cf.MustFinish()

	all := true
	for _, v := range sel {
		if *v {
			all = false
		}
	}
	want := func(name string) bool { return all || *sel[name] }
	var selected []string
	for _, name := range []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"} {
		if want(name) {
			selected = append(selected, name)
		}
	}

	j, err := c.OpenJournal(fmt.Sprintf("report scale=%v runs=%d items=%s",
		c.Scale, *runs, strings.Join(selected, ",")))
	if err != nil {
		c.Fatal(err)
	}
	cfg := c.HarnessConfig(j)
	cfg.Runs = *runs
	cfg.Progress = c.Progress()
	var failed []harness.Failure

	if want("table1") {
		fmt.Println(harness.Table1())
	}

	needChar := want("table2") || want("fig1") || want("fig2") || want("fig3") ||
		want("fig4") || want("fig5") || want("fig6") || want("fig7")
	if needChar {
		ch, err := harness.RunCharacterization(cfg)
		if err != nil {
			c.Fatal(err)
		}
		failed = append(failed, ch.Failed...)
		if want("table2") {
			fmt.Println(ch.Table2())
		}
		if want("fig1") {
			fmt.Println(ch.Fig1())
		}
		if want("fig2") {
			fmt.Println(ch.Fig2())
		}
		if want("fig3") {
			fmt.Println(ch.Fig3())
		}
		if want("fig4") {
			fmt.Println(ch.Fig4())
		}
		if want("fig5") {
			fmt.Println(ch.Fig5())
		}
		if want("fig6") {
			fmt.Println(ch.Fig6())
		}
		if want("fig7") {
			fmt.Println(ch.Fig7())
		}
	}

	if want("fig8") || want("fig9") || want("fig11") {
		p, err := harness.RunPairings(cfg)
		if err != nil {
			c.Fatal(err)
		}
		failed = append(failed, p.Failed...)
		if want("fig8") {
			fmt.Println(p.Fig8())
		}
		if want("fig9") {
			fmt.Println(p.Fig9())
		}
		if want("fig11") {
			fmt.Println(p.Fig11())
		}
	}

	if want("fig10") {
		rows, fails, err := harness.RunFig10(cfg)
		if err != nil {
			c.Fatal(err)
		}
		failed = append(failed, fails...)
		fmt.Println(harness.RenderFig10(rows))
	}

	if want("fig12") {
		rows, fails, err := harness.RunFig12(cfg, []int{1, 2, 4, 8, 16})
		if err != nil {
			c.Fatal(err)
		}
		failed = append(failed, fails...)
		fmt.Println(harness.RenderFig12(rows))
	}

	if err := j.Close(); err != nil {
		c.Fatal(err)
	}
	if err := c.WriteObs(); err != nil {
		c.Fatal(err)
	}
	c.ExitFailures(failed)
}
