package core

import (
	"testing"

	"javasmt/internal/counters"
	"javasmt/internal/isa"
)

// mixedStream exercises every structure Reset must clear: ALU dependency
// chains, loads walking the cache/DTLB/DRAM, branches training the
// predictor, and enough distinct PCs to churn the trace cache.
func mixedStream(n int) []isa.Uop {
	uops := make([]isa.Uop, n)
	for i := range uops {
		u := isa.Uop{PC: uint64(i % 5000), Class: isa.ALU, DepDist: uint8(i % 4)}
		switch i % 7 {
		case 1, 4:
			u.Class = isa.Load
			u.Addr = 0x2000_0000 + uint64(i*96)%(1<<22)
		case 2:
			u.Class = isa.Store
			u.Addr = 0x2000_0000 + uint64(i*160)%(1<<22)
		case 5:
			u.Class = isa.Branch
			u.Taken = i%3 == 0
			u.Target = uint64((i * 13) % 5000)
		}
		uops[i] = u
	}
	return uops
}

// TestResetBitIdentical is the contract the pairing engine's CPU pool
// depends on: running a workload on a Reset machine must reproduce the
// fresh machine's cycle count and every counter, for both HT modes and
// both partition policies.
func TestResetBitIdentical(t *testing.T) {
	uops := mixedStream(60_000)
	for _, cfg := range []Config{
		DefaultConfig(false),
		DefaultConfig(true),
		func() Config { c := DefaultConfig(true); c.Partition = DynamicPartition; return c }(),
	} {
		run := func(cpu *CPU) (uint64, counters.File) {
			cpu.AttachFeed(0, &feed{src: &isa.SliceSource{Uops: uops}})
			if cfg.Geometry.ContextsPerCore > 1 {
				cpu.AttachFeed(1, &feed{src: &isa.SliceSource{Uops: uops}})
			}
			cycles, err := cpu.Run(0)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			return cycles, *cpu.Counters()
		}

		fresh := New(cfg)
		wantCycles, wantFile := run(fresh)

		// Dirty a second machine with a different workload, then Reset.
		dirty := New(cfg)
		dirty.AttachFeed(0, &feed{src: &isa.SliceSource{Uops: mixedStream(20_000)}})
		if _, err := dirty.Run(0); err != nil {
			t.Fatalf("dirtying run: %v", err)
		}
		dirty.Reset()
		gotCycles, gotFile := run(dirty)

		if gotCycles != wantCycles {
			t.Errorf("%v %v: reset CPU ran %d cycles, fresh ran %d", cfg.Geometry, cfg.Partition, gotCycles, wantCycles)
		}
		for e := counters.Event(0); int(e) < counters.NumEvents; e++ {
			if gotFile.Get(e) != wantFile.Get(e) {
				t.Errorf("%v %v: counter %v: reset=%d fresh=%d",
					cfg.Geometry, cfg.Partition, e, gotFile.Get(e), wantFile.Get(e))
			}
		}
	}
}

// TestResetReusableRepeatedly guards against state leaking across many
// reuse generations (the pool hands a CPU to many pairs in sequence).
func TestResetReusableRepeatedly(t *testing.T) {
	uops := mixedStream(30_000)
	cpu := New(DefaultConfig(true))
	var first uint64
	for gen := 0; gen < 4; gen++ {
		cpu.Reset()
		cpu.AttachFeed(0, &feed{src: &isa.SliceSource{Uops: uops}})
		cpu.AttachFeed(1, &feed{src: &isa.SliceSource{Uops: uops}})
		cycles, err := cpu.Run(0)
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if gen == 0 {
			first = cycles
		} else if cycles != first {
			t.Fatalf("gen %d ran %d cycles, gen 0 ran %d — Reset leaks state", gen, cycles, first)
		}
	}
}

// TestDynamicPartitionTotals cross-checks the incrementally-maintained
// occupancy totals: after a full run drains, they must all be zero.
func TestDynamicPartitionTotals(t *testing.T) {
	cfg := DefaultConfig(true)
	cfg.Partition = DynamicPartition
	cpu := New(cfg)
	cpu.AttachFeed(0, &feed{src: &isa.SliceSource{Uops: mixedStream(50_000)}})
	cpu.AttachFeed(1, &feed{src: &isa.SliceSource{Uops: mixedStream(50_000)}})
	if _, err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	cb := cpu.cores[0]
	if cb.totRob != 0 || cb.totLoads != 0 || cb.totStores != 0 {
		t.Fatalf("occupancy totals nonzero after drain: rob=%d loads=%d stores=%d",
			cb.totRob, cb.totLoads, cb.totStores)
	}
}
