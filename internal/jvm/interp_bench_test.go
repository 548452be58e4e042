package jvm_test

import (
	"testing"

	"javasmt/internal/bench"
	"javasmt/internal/core"
	"javasmt/internal/isa"
	"javasmt/internal/jvm"
	"javasmt/internal/simos"
)

// BenchmarkInterp measures the bytecode interpreter alone: RayTracer at
// Small scale with two worker threads runs on a simulated OS as in a
// cell, but no core pulls its µops; a round-robin loop calls every
// runnable Java thread's Fill into one discard buffer until all have
// exited. MB/s is 1 byte per µop, comparable with the core benchmarks.
func BenchmarkInterp(b *testing.B) {
	const threads = 2
	bm, _ := bench.ByName("RayTracer")
	prog := bm.Build(threads, bench.Small, 0)
	cfg := jvm.DefaultConfig()
	cfg.HeapBytes = 6 << 20
	buf := make([]isa.Uop, core.DefaultParams().FillBatch)
	var uops uint64
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		k := simos.New(core.New(core.DefaultConfig(true)), simos.Options{})
		vm := jvm.New(prog, k, cfg)
		vm.Start()
		uops = 0
		finished := map[*simos.Thread]bool{}
		for progressed := true; progressed; {
			progressed = false
			for _, t := range k.Threads() {
				if finished[t] || t.State() == simos.Blocked {
					continue
				}
				got, done := t.Src.Fill(buf)
				finished[t] = done
				if got > 0 || done {
					progressed = true
				}
				uops += uint64(got)
			}
		}
		if err := bm.Verify(vm, threads, bench.Small); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(uops))
}
