// Benchmark harness: one testing.B benchmark per table and figure of the
// paper (see DESIGN.md §3 for the experiment index), plus the ablations
// of DESIGN.md §9. Custom metrics carry the figure's actual quantities;
// ns/op measures the cost of regenerating the figure on this host.
//
//	go test -bench=Fig01 -benchtime=1x .
//	go test -bench=. -benchmem .
package javasmt_test

import (
	"fmt"
	"sync"
	"testing"

	"javasmt/internal/bench"
	"javasmt/internal/core"
	"javasmt/internal/counters"
	"javasmt/internal/harness"
)

// The characterization matrix and the pairing cross product are shared
// by several figures; they are computed once per `go test -bench` process.
var (
	charOnce sync.Once
	charData *harness.Characterization
	charErr  error

	pairOnce sync.Once
	pairData *harness.Pairings
	pairErr  error
)

func characterization(b *testing.B) *harness.Characterization {
	b.Helper()
	charOnce.Do(func() {
		charData, charErr = harness.RunCharacterization(harness.Config{Scale: bench.Tiny})
	})
	if charErr != nil {
		b.Fatal(charErr)
	}
	return charData
}

func pairings(b *testing.B) *harness.Pairings {
	b.Helper()
	pairOnce.Do(func() {
		cfg := harness.DefaultConfig()
		cfg.Runs = 4
		cfg.Jobs = 0 // one worker per CPU; results identical to serial
		pairData, pairErr = harness.RunPairingsOf(bench.SingleThreaded(), cfg)
	})
	if pairErr != nil {
		b.Fatal(pairErr)
	}
	return pairData
}

// BenchmarkTable1 renders the benchmark-suite table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if harness.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2 regenerates CPI / OS-cycle% / DT-mode% for the
// multithreaded benchmarks under Hyper-Threading.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := characterization(b)
		var cpi, dt float64
		n := 0
		for _, r := range c.Runs {
			if r.HT {
				cpi += r.Result.Counters.CPI()
				dt += r.Result.Counters.DTModePercent()
				n++
			}
		}
		b.ReportMetric(cpi/float64(n), "meanCPI")
		b.ReportMetric(dt/float64(n), "meanDT%")
	}
}

// BenchmarkFig01IPC measures the HT-on IPC gain of the multithreaded
// benchmarks (paper: positive but modest).
func BenchmarkFig01IPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := characterization(b)
		gain := 0.0
		n := 0
		for _, mt := range bench.Multithreaded() {
			off := findRun(c, mt.Name, 2, false).Counters.IPC()
			on := findRun(c, mt.Name, 2, true).Counters.IPC()
			gain += 100 * (on/off - 1)
			n++
		}
		b.ReportMetric(gain/float64(n), "meanHTgain%")
	}
}

// BenchmarkFig02Retirement measures the retirement-profile shift: HT
// must raise the 1- and 2-µop shares (paper: +47.5% and +50.1%).
func BenchmarkFig02Retirement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := characterization(b)
		var off, on [4]float64
		n := 0.0
		for _, mt := range bench.Multithreaded() {
			po := findRun(c, mt.Name, 2, false).Counters.RetirementProfile()
			pn := findRun(c, mt.Name, 2, true).Counters.RetirementProfile()
			for k := 0; k < 4; k++ {
				off[k] += po[k]
				on[k] += pn[k]
			}
			n++
		}
		b.ReportMetric(100*off[0]/n, "zeroRetireOff%")
		b.ReportMetric(100*on[0]/n, "zeroRetireOn%")
		b.ReportMetric(100*((on[1]+on[2])/(off[1]+off[2])-1), "d12Share%")
	}
}

// ratioBench builds a Figure 3-7 benchmark: the mean HT-on/HT-off ratio
// of one per-1000-instruction metric across the MT benchmarks.
func ratioBench(metric func(*counters.File) float64, name string) func(*testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := characterization(b)
			ratio := 0.0
			n := 0
			for _, mt := range bench.Multithreaded() {
				for _, threads := range []int{2, 8} {
					off := metric(&findRun(c, mt.Name, threads, false).Counters)
					on := metric(&findRun(c, mt.Name, threads, true).Counters)
					if off > 0 {
						ratio += on / off
						n++
					}
				}
			}
			b.ReportMetric(ratio/float64(n), name)
		}
	}
}

// BenchmarkFig03TraceCache: paper shape — ratio > 1 (worse under HT).
func BenchmarkFig03TraceCache(b *testing.B) {
	ratioBench(func(f *counters.File) float64 { return f.PerKiloInstr(counters.TCMisses) }, "tcOn/Off")(b)
}

// BenchmarkFig04L1D: paper shape — ratio > 1 (worse under HT).
func BenchmarkFig04L1D(b *testing.B) {
	ratioBench(func(f *counters.File) float64 { return f.PerKiloInstr(counters.L1DMisses) }, "l1dOn/Off")(b)
}

// BenchmarkFig05L2: paper shape — ratio < 1 for the three in-cache
// benchmarks (constructive sharing), > 1 for PseudoJBB.
func BenchmarkFig05L2(b *testing.B) {
	ratioBench(func(f *counters.File) float64 { return f.PerKiloInstr(counters.L2Misses) }, "l2On/Off")(b)
}

// BenchmarkFig06ITLB: paper shape — slightly worse under HT
// (partitioned), much worse for PseudoJBB.
func BenchmarkFig06ITLB(b *testing.B) {
	ratioBench(func(f *counters.File) float64 { return f.PerKiloInstr(counters.ITLBMisses) }, "itlbOn/Off")(b)
}

// BenchmarkFig07BTB: paper shape — miss ratio worse under HT.
func BenchmarkFig07BTB(b *testing.B) {
	ratioBench(func(f *counters.File) float64 { return f.Rate(counters.BTBMisses, counters.Branches) }, "btbOn/Off")(b)
}

// BenchmarkFig08Pairings reports the cross-product combined-speedup
// distribution (paper: most pairs between 1 and 2).
func BenchmarkFig08Pairings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := pairings(b)
		sum, min, n := 0.0, 99.0, 0
		bad := 0
		for r := range p.Combined {
			for c := range p.Combined[r] {
				v := p.Combined[r][c]
				sum += v
				if v < min {
					min = v
				}
				if v < 1 {
					bad++
				}
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "meanC_AB")
		b.ReportMetric(min, "minC_AB")
		b.ReportMetric(float64(bad), "slowdownCells")
	}
}

// BenchmarkFig09ColorMap renders the 9x9 map and reports how many of the
// slowdown cells involve the three big-code programs (paper: all nine).
func BenchmarkFig09ColorMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := pairings(b)
		if p.Fig9() == "" {
			b.Fatal("empty figure")
		}
		badPartner := map[string]bool{"jack": true, "javac": true, "jess": true}
		onBad, total := 0, 0
		for r := range p.Combined {
			for c := range p.Combined[r] {
				if c < r || p.Combined[r][c] >= 1 {
					continue
				}
				total++
				if badPartner[p.Names[r]] || badPartner[p.Names[c]] {
					onBad++
				}
			}
		}
		b.ReportMetric(float64(total), "slowdownPairs")
		b.ReportMetric(float64(onBad), "onBadPartners")
	}
}

// BenchmarkFig10SingleThread measures the static-partition tax (paper:
// 7 of 9 programs slower, 0.15%-62%).
func BenchmarkFig10SingleThread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.RunFig10(harness.Config{Scale: bench.Tiny})
		if err != nil {
			b.Fatal(err)
		}
		slower, worst := 0, 0.0
		for _, r := range rows {
			if r.CyclesOn > r.CyclesOff {
				slower++
			}
			if s := r.SlowdownPct(); s > worst {
				worst = s
			}
		}
		b.ReportMetric(float64(slower), "slowerOf9")
		b.ReportMetric(worst, "worstSlowdown%")
	}
}

// BenchmarkFig11SelfPair measures two identical copies under HT (paper:
// dramatic improvement except for the bad partners).
func BenchmarkFig11SelfPair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := pairings(b)
		sum := 0.0
		for j := range p.Names {
			sum += p.Combined[j][j]
		}
		b.ReportMetric(sum/float64(len(p.Names)), "meanSelfC_AB")
	}
}

// BenchmarkFig12ThreadSweep sweeps thread counts (paper: IPC saturates
// at 2 threads; MolDyn dips at 4 on L1D misses).
func BenchmarkFig12ThreadSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.RunFig12(harness.Config{Scale: bench.Tiny}, []int{1, 2, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		var gain12, drop24 float64
		for _, mt := range bench.Multithreaded() {
			byThreads := map[int]harness.Fig12Row{}
			for _, r := range rows {
				if r.Benchmark == mt.Name {
					byThreads[r.Threads] = r
				}
			}
			gain12 += byThreads[2].IPC / byThreads[1].IPC
			drop24 += byThreads[4].IPC / byThreads[2].IPC
		}
		n := float64(len(bench.Multithreaded()))
		b.ReportMetric(gain12/n, "ipc2/ipc1")
		b.ReportMetric(drop24/n, "ipc4/ipc2")
	}
}

// BenchmarkAblationPartition compares the single-thread HT tax under
// static vs dynamic partitioning (DESIGN.md §9: the paper's proposed fix).
func BenchmarkAblationPartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := harness.RunFig10(harness.Config{Scale: bench.Tiny})
		if err != nil {
			b.Fatal(err)
		}
		var static, dynamic float64
		for _, r := range rows {
			static += r.SlowdownPct()
			dynamic += r.DynSlowdownPct()
		}
		n := float64(len(rows))
		b.ReportMetric(static/n, "staticTax%")
		b.ReportMetric(dynamic/n, "dynamicTax%")
	}
}

// BenchmarkAblationTCSharing measures how much of jack's HT trace-cache
// degradation is the per-context line tagging (DESIGN.md §9).
func BenchmarkAblationTCSharing(b *testing.B) {
	jack, _ := bench.ByName("jack")
	for i := 0; i < b.N; i++ {
		run := func(shared bool) float64 {
			res, err := harness.Run(jack, harness.Options{
				HT: true, Threads: 1, Scale: bench.Tiny, TCSharedTags: shared,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Counters.PerKiloInstr(counters.TCMisses)
		}
		b.ReportMetric(run(false), "tc/1k-tagged")
		b.ReportMetric(run(true), "tc/1k-shared")
	}
}

// BenchmarkAblationL1Size revisits the paper's suggestion that a larger
// L1 would ease the multithreaded L1D pressure.
func BenchmarkAblationL1Size(b *testing.B) {
	md, _ := bench.ByName("MolDyn")
	for i := 0; i < b.N; i++ {
		for _, kb := range []int{8, 32} {
			cfg := core.DefaultConfig(true)
			cfg.Hier.L1D.Size = kb << 10
			res, err := harness.RunWithCPUConfig(md, harness.Options{HT: true, Threads: 4, Scale: bench.Tiny}, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Counters.PerKiloInstr(counters.L1DMisses), fmt.Sprintf("l1d/1k@%dKB", kb))
		}
	}
}

// findRun locates one characterization cell.
func findRun(c *harness.Characterization, name string, threads int, ht bool) *harness.Result {
	for _, r := range c.Runs {
		if r.Benchmark == name && r.Threads == threads && r.HT == ht {
			return r.Result
		}
	}
	panic("missing characterization run " + name)
}
