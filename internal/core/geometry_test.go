package core

import (
	"strings"
	"testing"

	"javasmt/internal/isa"
	"javasmt/internal/tlb"
)

// Geometry tests (ISSUE 7): the generalized M-cores × N-contexts machine
// must behave as a set of paper machines — context seating is symmetric,
// degenerate shapes are rejected before they can panic a constructor,
// and arbitrary geometry inputs never crash a run.

// TestGeometryContextPermutation: a solo µop stream seated on context 1
// of the two-context core is the same physical experiment as seating it
// on context 0 — the arbiter serves the only active context either way,
// and every per-context structure partition is the same size. Machine
// totals must be identical to the bit; only the per-context retirement
// attribution moves seats.
func TestGeometryContextPermutation(t *testing.T) {
	uops := mixedStream(30_000)
	run := func(ctx int) *CPU {
		cfg := DefaultConfig(false)
		cfg.Geometry = Geometry{Cores: 1, ContextsPerCore: 2}
		cpu := New(cfg)
		cpu.AttachFeed(ctx, &feed{src: &isa.SliceSource{Uops: uops}})
		if _, err := cpu.Run(0); err != nil {
			t.Fatalf("ctx %d: %v", ctx, err)
		}
		return cpu
	}
	on0, on1 := run(0), run(1)
	if *on0.Counters() != *on1.Counters() {
		t.Errorf("machine totals differ between context seatings:\nctx0: %+v\nctx1: %+v",
			on0.Counters(), on1.Counters())
	}
	r0 := on0.RetiredByLP(nil)
	r1 := on1.RetiredByLP(nil)
	if r0[0] != r1[1] || r0[1] != r1[0] {
		t.Errorf("per-context retirement did not swap with the seating: ctx0 run %v, ctx1 run %v", r0, r1)
	}
	if r0[0] != uint64(len(uops)) || r0[1] != 0 {
		t.Errorf("per-context retirement misattributed: %v, want [%d 0]", r0, len(uops))
	}
}

// TestGeometryCMPPrivateState: the same solo stream on a {2,1} machine
// must take exactly as many cycles as on the {1,1} machine when seated
// on either core — a second idle core with private structures cannot
// perturb a core-local run.
func TestGeometryCMPPrivateState(t *testing.T) {
	uops := mixedStream(30_000)
	base, baseCycles := runStream(t, DefaultConfig(false), uops)
	for ctx := 0; ctx < 2; ctx++ {
		cfg := DefaultConfig(false)
		cfg.Geometry = Geometry{Cores: 2, ContextsPerCore: 1}
		cpu := New(cfg)
		cpu.AttachFeed(ctx, &feed{src: &isa.SliceSource{Uops: uops}})
		cycles, err := cpu.Run(0)
		if err != nil {
			t.Fatalf("core %d: %v", ctx, err)
		}
		if cycles != baseCycles {
			t.Errorf("core %d of the 2x1 machine took %d cycles, single-core machine took %d",
				ctx, cycles, baseCycles)
		}
		_ = base
	}
}

// TestConfigValidate rejects every degenerate geometry the constructors
// would panic on, and accepts the machine shapes the sweep uses.
func TestConfigValidate(t *testing.T) {
	mk := func(mutate func(*Config)) Config {
		cfg := DefaultConfig(false)
		mutate(&cfg)
		return cfg
	}
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // empty = must validate clean
	}{
		{"default ht off", DefaultConfig(false), ""},
		{"default ht on", DefaultConfig(true), ""},
		{"explicit 1x1", mk(func(c *Config) { c.Geometry = Geometry{1, 1} }), ""},
		{"explicit 1x2", mk(func(c *Config) { c.Geometry = Geometry{1, 2} }), ""},
		{"smt4", mk(func(c *Config) { c.Geometry = Geometry{1, 4} }), ""},
		{"cmp 4x4", mk(func(c *Config) { c.Geometry = Geometry{4, 4} }), ""},
		{"niagara-ish 8x8", mk(func(c *Config) { c.Geometry = Geometry{8, 8} }), ""},
		{"zero geometry", mk(func(c *Config) { c.Geometry = Geometry{} }), "at least one core"},
		{"zero cores only", mk(func(c *Config) { c.Geometry = Geometry{0, 2} }), "at least one core"},
		{"zero contexts only", mk(func(c *Config) { c.Geometry = Geometry{4, 0} }), "at least one core"},
		{"negative cores", mk(func(c *Config) { c.Geometry = Geometry{-1, 2} }), "at least one core"},
		{"negative contexts", mk(func(c *Config) { c.Geometry = Geometry{1, -2} }), "at least one core"},
		{"too many contexts per core", mk(func(c *Config) { c.Geometry = Geometry{1, 17} }), "contexts per core"},
		{"contexts exceed store partition", mk(func(c *Config) {
			c.Geometry = Geometry{1, 16}
			c.Params.StoreBufs = 12
		}), "static partition capacity"},
		{"dynamic pool tolerates narrow buffers", mk(func(c *Config) {
			c.Geometry = Geometry{1, 16}
			c.Params.StoreBufs = 12
			c.Partition = DynamicPartition
		}), ""},
		{"zero retire width", mk(func(c *Config) { c.Params.RetireWidth = 0 }), "retire widths"},
		{"zero fetch width", mk(func(c *Config) { c.Params.FetchUops = 0 }), "retire widths"},
		{"zero rob", mk(func(c *Config) { c.Params.ROBSize = 0 }), "must be positive"},
		{"negative latency", mk(func(c *Config) { c.Params.ALULat = -1 }), "latencies"},
		{"zero fill batch", mk(func(c *Config) { c.Params.FillBatch = 0 }), "FillBatch"},
		{"non-pow2 L1D sets", mk(func(c *Config) { c.Hier.L1D.Size = 3 * 1024 }), "L1D sets"},
		{"zero tc line", mk(func(c *Config) { c.TC.LineUops = 0 }), "trace cache"},
		{"itlb not divisible", mk(func(c *Config) { c.ITLB.Entries = 127 }), "not divisible"},
		{"itlb partition not pow2", mk(func(c *Config) {
			// 128 entries / 4-way partitioned over 3 contexts: 42 entries
			// per partition is not a power-of-two set count.
			c.Geometry = Geometry{1, 3}
		}), "sets must be a positive power of two"},
		{"zero btb", mk(func(c *Config) { c.Branch.BTBEntries = 0 }), "BTB"},
		{"history bits", mk(func(c *Config) { c.Branch.HistoryBits = 31 }), "history bits"},
		{"zero banks", mk(func(c *Config) { c.Mem.Banks = 0 }), "bank"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateMirrorsConstructors: a Validate-clean config must build
// without panicking, across the geometry corner cases the fuzz target
// seeds. (The fuzz target extends this to arbitrary field combinations.)
func TestValidateMirrorsConstructors(t *testing.T) {
	for _, g := range []Geometry{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {1, 16}, {8, 4}} {
		cfg := DefaultConfig(false)
		cfg.Geometry = g
		if err := cfg.Validate(); err != nil {
			t.Fatalf("geometry %v: %v", g, err)
		}
		cpu := New(cfg)
		if got := len(cpu.ctxs); got != g.Total() {
			t.Fatalf("geometry %v built %d contexts, want %d", g, got, g.Total())
		}
		if got := len(cpu.cores); got != g.Cores {
			t.Fatalf("geometry %v built %d cores, want %d", g, got, g.Cores)
		}
	}
}

// FuzzConfigGeometry: for any geometry and sizing input, Validate either
// rejects the config or the machine builds and survives a tiny run — no
// input may panic. This is the contract the CLI and harness rely on
// when they pass user-supplied -cores/-contexts straight through.
func FuzzConfigGeometry(f *testing.F) {
	f.Add(1, 1, 126, 48, 24, 3, false)
	f.Add(1, 2, 126, 48, 24, 3, false)
	f.Add(2, 2, 126, 48, 24, 3, true)
	f.Add(4, 4, 126, 48, 24, 3, false)
	f.Add(1, 16, 16, 16, 16, 1, false)
	f.Add(0, 2, 126, 48, 24, 3, false)
	f.Add(-3, -5, 126, 48, 24, 3, false)
	f.Add(1, 17, 126, 48, 24, 3, false)
	f.Add(3, 3, 7, 2, 1, 2, true)
	f.Fuzz(func(t *testing.T, cores, cpc, rob, loads, stores, width int, dynamic bool) {
		// Bound the machine the fuzzer may ask for: Validate accepts any
		// core count, but building thousands of cores is an OOM, not a
		// model bug.
		if cores > 16 || cpc > 64 || rob > 4096 || loads > 4096 || stores > 4096 || width > 64 {
			t.Skip("oversized machine")
		}
		cfg := DefaultConfig(false)
		cfg.Geometry = Geometry{Cores: cores, ContextsPerCore: cpc}
		cfg.Params.ROBSize = rob
		cfg.Params.LoadBufs = loads
		cfg.Params.StoreBufs = stores
		cfg.Params.FetchUops = width
		cfg.Params.IssueWidth = width
		cfg.Params.RetireWidth = width
		if dynamic {
			cfg.Partition = DynamicPartition
		}
		if err := cfg.Validate(); err != nil {
			return // rejected: the constructors are never reached
		}
		cpu := New(cfg)
		cpu.AttachFeed(0, &feed{src: &isa.SliceSource{Uops: mixedStream(2_000)}})
		if last := cfg.NumContexts() - 1; last > 0 {
			cpu.AttachFeed(last, &feed{src: &isa.SliceSource{Uops: mixedStream(2_000)}})
		}
		if _, err := cpu.Run(0); err != nil {
			t.Fatalf("geometry %v: %v", cfg.Geometry, err)
		}
	})
}

// TestGeometrySharedDTLBOccupancy pins the structure-instancing rules on
// a wider machine: the DTLB is shared within a core (one partition), the
// ITLB is partitioned per context.
func TestGeometrySharedDTLBOccupancy(t *testing.T) {
	cfg := DefaultConfig(false)
	cfg.Geometry = Geometry{Cores: 1, ContextsPerCore: 4}
	if cfg.ITLB.Partitioned == (tlb.Config{}).Partitioned {
		t.Fatalf("default ITLB config lost its Partitioned marker")
	}
	cpu := New(cfg)
	cb := cpu.cores[0]
	if got := len(cb.itlb.OccupancyInto(make([]int, 4))); got != 4 {
		t.Errorf("ITLB occupancy lanes = %d, want 4", got)
	}
}
