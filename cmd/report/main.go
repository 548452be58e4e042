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
	"slices"
	"strings"

	"javasmt/internal/cli"
	"javasmt/internal/harness"
	"javasmt/internal/service"
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
	show := func(name string, render func() string) {
		if want(name) {
			fmt.Println(render())
		}
	}

	// Each campaign kind the selection needs resolves like a daemon job
	// of that kind; the journal's identity joins theirs.
	plans := map[string]*service.Plan{}
	var ids []string
	for _, k := range []struct {
		kind  string
		items []string
	}{
		{"characterization", []string{"table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"}},
		{"pairings", []string{"fig8", "fig9", "fig11"}},
		{"fig10", []string{"fig10"}},
		{"fig12", []string{"fig12"}},
	} {
		if !slices.ContainsFunc(k.items, want) {
			continue
		}
		p, err := service.ResolveFlags(service.JobSpec{Kind: k.kind, Runs: *runs}, c)
		if err != nil {
			c.Usagef("%v", err)
		}
		plans[k.kind] = p
		ids = append(ids, p.Identity())
	}
	j, err := c.OpenJournal(strings.Join(ids, "; "))
	if err != nil {
		c.Fatal(err)
	}
	cfg := func(kind string) harness.Config { return c.Attach(plans[kind].Config(), j) }
	var failed []harness.Failure

	show("table1", harness.Table1)

	if plans["characterization"] != nil {
		ch, err := harness.RunCharacterization(cfg("characterization"))
		if err != nil {
			c.Fatal(err)
		}
		failed = append(failed, ch.Failed...)
		show("table2", ch.Table2)
		show("fig1", ch.Fig1)
		show("fig2", ch.Fig2)
		show("fig3", ch.Fig3)
		show("fig4", ch.Fig4)
		show("fig5", ch.Fig5)
		show("fig6", ch.Fig6)
		show("fig7", ch.Fig7)
	}

	if plans["pairings"] != nil {
		p, err := harness.RunPairingsOf(plans["pairings"].Benchmarks, cfg("pairings"))
		if err != nil {
			c.Fatal(err)
		}
		failed = append(failed, p.Failed...)
		show("fig8", p.Fig8)
		show("fig9", p.Fig9)
		show("fig11", p.Fig11)
	}

	if plans["fig10"] != nil {
		rows, fails, err := harness.RunFig10(cfg("fig10"))
		if err != nil {
			c.Fatal(err)
		}
		failed = append(failed, fails...)
		fmt.Println(harness.RenderFig10(rows))
	}

	if plans["fig12"] != nil {
		rows, fails, err := harness.RunFig12(cfg("fig12"), plans["fig12"].Threads)
		if err != nil {
			c.Fatal(err)
		}
		failed = append(failed, fails...)
		fmt.Println(harness.RenderFig12(rows))
	}

	c.Close(j)
	c.ExitFailures(failed)
}
