package bench

import (
	"testing"

	"javasmt/internal/core"
	"javasmt/internal/counters"
	"javasmt/internal/jvm"
	"javasmt/internal/simos"
)

func TestProfileSizes(t *testing.T) {
	for _, b := range All() {
		threads := 1
		if b.Multithreaded {
			threads = 2
		}
		prog := b.Build(threads, Tiny, 0)
		cpu := core.New(core.DefaultConfig(true))
		k := simos.New(cpu, simos.Options{})
		vm := jvm.New(prog, k, jvm.DefaultConfig())
		vm.Start()
		cycles, err := cpu.Run(0)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		f := cpu.Counters()
		rp := f.RetirementProfile()
		t.Logf("%-11s code=%6d uops  instr=%9d  cycles=%9d  IPC=%.2f  tc/1k=%5.1f l1d/1k=%5.1f l2/1k=%5.2f btbmr=%.3f os%%=%4.1f gc=%d ret0/1/2/3=%.2f/%.2f/%.2f/%.2f",
			b.Name, prog.CodeUops, f.Get(counters.Instructions), cycles, f.IPC(),
			f.PerKiloInstr(counters.TCMisses), f.PerKiloInstr(counters.L1DMisses),
			f.PerKiloInstr(counters.L2Misses), f.Rate(counters.BTBMisses, counters.Branches),
			f.OSCyclePercent(), vm.GCCount(), rp[0], rp[1], rp[2], rp[3])
	}
}
