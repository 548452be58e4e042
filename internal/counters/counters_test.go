package counters

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddIncGet(t *testing.T) {
	var f File
	f.Inc(Cycles)
	f.Add(Cycles, 9)
	f.Add(Instructions, 5)
	if f.Get(Cycles) != 10 || f.Get(Instructions) != 5 {
		t.Fatalf("cycles=%d instr=%d", f.Get(Cycles), f.Get(Instructions))
	}
	if got := f.IPC(); got != 0.5 {
		t.Fatalf("IPC = %v, want 0.5", got)
	}
	if got := f.CPI(); got != 2.0 {
		t.Fatalf("CPI = %v, want 2.0", got)
	}
}

func TestZeroDenominators(t *testing.T) {
	var f File
	if f.IPC() != 0 || f.CPI() != 0 || f.PerKiloInstr(TCMisses) != 0 ||
		f.Rate(BTBMisses, Branches) != 0 || f.OSCyclePercent() != 0 || f.DTModePercent() != 0 {
		t.Fatal("all derived metrics must be 0 on an empty file")
	}
	p := f.RetirementProfile()
	if p != [4]float64{} {
		t.Fatal("empty retirement profile must be all zeros")
	}
}

func TestPerKiloInstr(t *testing.T) {
	var f File
	f.Add(Instructions, 10_000)
	f.Add(TCMisses, 15)
	if got := f.PerKiloInstr(TCMisses); got != 1.5 {
		t.Fatalf("TC misses/1k = %v, want 1.5", got)
	}
}

func TestPercents(t *testing.T) {
	var f File
	f.Add(Cycles, 200)
	f.Add(CyclesOS, 10)
	f.Add(CyclesDT, 180)
	if got := f.OSCyclePercent(); got != 5 {
		t.Fatalf("OS%% = %v, want 5", got)
	}
	if got := f.DTModePercent(); got != 90 {
		t.Fatalf("DT%% = %v, want 90", got)
	}
}

func TestRetirementProfileSumsToOne(t *testing.T) {
	f := func(a, b, c, d uint32) bool {
		var file File
		file.Add(Retire0, uint64(a))
		file.Add(Retire1, uint64(b))
		file.Add(Retire2, uint64(c))
		file.Add(Retire3, uint64(d))
		p := file.RetirementProfile()
		sum := p[0] + p[1] + p[2] + p[3]
		if a == 0 && b == 0 && c == 0 && d == 0 {
			return sum == 0
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubSaturates(t *testing.T) {
	var a, b File
	a.Add(Cycles, 5)
	b.Add(Cycles, 7)
	b.Add(Instructions, 3)
	d := b.Sub(&a)
	if d.Get(Cycles) != 2 || d.Get(Instructions) != 3 {
		t.Fatalf("delta = %d/%d", d.Get(Cycles), d.Get(Instructions))
	}
	d2 := a.Sub(&b)
	if d2.Get(Cycles) != 0 {
		t.Fatal("Sub must saturate at zero")
	}
}

func TestAddFileAndReset(t *testing.T) {
	var a, b File
	a.Add(Branches, 4)
	b.Add(Branches, 6)
	b.Add(Cycles, 1)
	a.AddFile(&b)
	if a.Get(Branches) != 10 || a.Get(Cycles) != 1 {
		t.Fatal("AddFile mis-accumulated")
	}
	a.Reset()
	if a.Get(Branches) != 0 {
		t.Fatal("Reset failed")
	}
}

func TestEventNamesRoundTrip(t *testing.T) {
	for e := Event(0); int(e) < NumEvents; e++ {
		name := e.String()
		if name == "" || strings.HasPrefix(name, "event(") {
			t.Fatalf("event %d has no name", e)
		}
		back, ok := EventByName(name)
		if !ok || back != e {
			t.Fatalf("round trip failed for %q", name)
		}
	}
	if _, ok := EventByName("definitely-not-an-event"); ok {
		t.Fatal("unknown name must not resolve")
	}
}

func TestReportContainsRequestedEvents(t *testing.T) {
	var f File
	f.Add(Cycles, 123)
	f.Add(TCMisses, 7)
	r := f.Report([]Event{TCMisses, Cycles})
	if !strings.Contains(r, "cycles") || !strings.Contains(r, "tc_misses") || !strings.Contains(r, "123") {
		t.Fatalf("report missing content:\n%s", r)
	}
	// nil selects nonzero counters only.
	auto := f.Report(nil)
	if strings.Contains(auto, "l2_misses") {
		t.Fatal("nil report should omit zero counters")
	}
}

// conservingFile builds a synthetic file satisfying every conservation
// law: 1000 cycles = 100 halted + 900 retiring cycles, a consistent
// memory pyramid, and subset relations everywhere.
func conservingFile() File {
	var f File
	f.Set(Cycles, 1000)
	f.Set(CyclesHalted, 100)
	f.Set(Retire0, 300)
	f.Set(Retire1, 200)
	f.Set(Retire2, 250)
	f.Set(Retire3, 150)
	f.Set(Instructions, 200+2*250+3*150) // width-3 machine: histogram is exact
	f.Set(InstructionsOS, 90)
	f.Set(CyclesDT, 400)
	f.Set(CyclesOS, 50)
	f.Set(TCAccesses, 500)
	f.Set(TCMisses, 40)
	f.Set(L1DAccesses, 300)
	f.Set(L1DMisses, 60)
	f.Set(L2Accesses, 100) // = l1d_misses 60 + tc_misses 40
	f.Set(L2Misses, 25)
	f.Set(MemReads, 20)
	f.Set(MemWrites, 5) // reads+writes = l2_misses
	f.Set(ITLBAccesses, 80)
	f.Set(ITLBMisses, 8)
	f.Set(DTLBAccesses, 280)
	f.Set(DTLBMisses, 12)
	f.Set(Branches, 150)
	f.Set(BTBMisses, 30)
	f.Set(BranchMispredicts, 15)
	return f
}

func TestCheckConservationHolds(t *testing.T) {
	f := conservingFile()
	if err := f.CheckConservation(); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	// The laws are linear: doubling the file (AddFile with itself) and
	// windowing (Sub of a half) must preserve them.
	double := f
	double.AddFile(&f)
	if err := double.CheckConservation(); err != nil {
		t.Fatalf("doubled file rejected: %v", err)
	}
	window := double.Sub(&f)
	if err := window.CheckConservation(); err != nil {
		t.Fatalf("windowed file rejected: %v", err)
	}
	var empty File
	if err := empty.CheckConservation(); err != nil {
		t.Fatalf("empty file rejected: %v", err)
	}
}

func TestCheckConservationCatchesViolations(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*File)
		law    string
	}{
		{"lost cycle", func(f *File) { f.Add(Cycles, 1) }, "retire histogram"},
		{"halted overflow", func(f *File) { f.Set(CyclesHalted, 2000) }, "retire histogram"},
		{"dt over cycles", func(f *File) { f.Set(CyclesDT, 1001) }, "cycles_dt"},
		{"os instr over instr", func(f *File) { f.Set(InstructionsOS, 1e6) }, "uops_retired_os"},
		{"histogram over instr", func(f *File) { f.Set(Instructions, 10); f.Set(InstructionsOS, 5) }, "lower-bounds"},
		{"tc misses over accesses", func(f *File) { f.Set(TCMisses, 501) }, "tc_misses"},
		{"phantom l2 access", func(f *File) { f.Add(L2Accesses, 1) }, "l2_accesses"},
		{"phantom dram read", func(f *File) { f.Add(MemReads, 1) }, "mem traffic"},
		{"mispredicts over branches", func(f *File) { f.Set(BranchMispredicts, 151) }, "branch_mispredicts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := conservingFile()
			tc.mutate(&f)
			err := f.CheckConservation()
			if err == nil {
				t.Fatalf("violation %q not detected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.law) {
				t.Fatalf("error %q does not name the %q law", err, tc.law)
			}
		})
	}
}

func TestFileJSONRoundTrip(t *testing.T) {
	var f File
	f.Set(Cycles, 123456789)
	f.Set(Instructions, 98765)
	f.Set(Retire3, 42)
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var back File
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != f {
		t.Fatalf("round trip diverged:\n  in  %+v\n  out %+v", f, back)
	}
	// Marshaling is deterministic (object keys sorted by encoding/json).
	again, _ := json.Marshal(f)
	if string(again) != string(data) {
		t.Fatal("marshaled bytes unstable across calls")
	}
	if err := json.Unmarshal([]byte(`{"no_such_event":1}`), &back); err == nil {
		t.Fatal("unknown event name accepted")
	}
}
