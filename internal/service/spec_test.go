package service

import (
	"strings"
	"testing"

	"javasmt/internal/bench"
	"javasmt/internal/harness"
	"javasmt/internal/resilience"
	"javasmt/internal/sampling"
	"javasmt/internal/simos"
)

func TestResolveRejectsBadSpecs(t *testing.T) {
	bad := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"unknown kind", JobSpec{Kind: "frobnicate"}, "unknown kind"},
		{"unknown benchmark", JobSpec{Kind: "sweep", Benchmarks: []string{"nope"}}, "unknown benchmark"},
		{"bad scale", JobSpec{Kind: "sweep", Scale: "huge"}, "scale"},
		{"zero thread", JobSpec{Kind: "sweep", Threads: []int{0}}, "thread count"},
		{"negative runs", JobSpec{Kind: "pairings", Runs: -1}, "runs"},
		{"negative retries", JobSpec{Kind: "sweep", Retries: -1}, "retries"},
		{"bad sim mode", JobSpec{Kind: "sweep", SimMode: "approximate"}, "sim_mode"},
		{"bad cell deadline", JobSpec{Kind: "sweep", CellDeadline: "soon"}, "cell_deadline"},
		{"bad job deadline", JobSpec{Kind: "sweep", JobDeadline: "-3s"}, "job_deadline"},
		{"geometry without geometries", JobSpec{Kind: "geometry"}, "needs geometries"},
		{"policy without policies", JobSpec{Kind: "policy", Mixes: []int{8}, Geometries: []string{"2x2"}}, "needs policies"},
		{"bad geometry", JobSpec{Kind: "geometry", Geometries: []string{"2by2"}}, "geometry"},
		{"zero mix", JobSpec{Kind: "policy", Policies: []string{"symbiotic-ipc"}, Mixes: []int{0}, Geometries: []string{"2x2"}}, "mix size"},
		{"unknown sched policy", JobSpec{Kind: "sweep", SchedPolicy: "bogus"}, "sched_policy"},
		{"unknown seating policy", JobSpec{Kind: "policy", Policies: []string{"bogus"}, Mixes: []int{8}, Geometries: []string{"2x2"}}, "bad policy"},
		{"empty seating policy", JobSpec{Kind: "policy", Policies: []string{"naive", ""}}, "bad policy"},
		{"empty benchmark", JobSpec{Kind: "sweep", Benchmarks: []string{""}}, "empty benchmark list"},
	}
	for _, tc := range bad {
		if _, err := Resolve(tc.spec); err == nil {
			t.Errorf("%s: resolve accepted %+v", tc.name, tc.spec)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestResolveSimModeCaseInsensitive: JobSpec's sim_mode goes through
// the same parser as the CLI's -sim-mode, so "Sampled" names the same
// campaign as "sampled".
func TestResolveSimModeCaseInsensitive(t *testing.T) {
	want, err := Resolve(JobSpec{Kind: "sweep", SimMode: "sampled"})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Sim.Sampled() {
		t.Fatalf("sim_mode sampled resolved to %+v", want.Sim)
	}
	for _, mode := range []string{"Sampled", "SAMPLED"} {
		p, err := Resolve(JobSpec{Kind: "sweep", SimMode: mode})
		if err != nil {
			t.Fatalf("sim_mode %s: %v", mode, err)
		}
		if p.Sim != want.Sim || p.Identity() != want.Identity() {
			t.Errorf("sim_mode %s: plan %+v config %q, want %+v %q",
				mode, p.Sim, p.Identity(), want.Sim, want.Identity())
		}
	}
}

// TestResolveDefaults pins the one set of defaults the daemon and the
// CLIs share (JobSpec's doc comment): a spec that leaves an axis out
// resolves to the campaign `report`, `sweep` and `pairings -all` run
// with that flag left out.
func TestResolveDefaults(t *testing.T) {
	names := func(bs []*bench.Benchmark) string {
		var s []string
		for _, b := range bs {
			s = append(s, b.Name)
		}
		return strings.Join(s, ",")
	}
	for _, tc := range []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Kind: "characterization"}, "kind=characterization scale=tiny"},
		{JobSpec{Kind: "pairings"}, "kind=pairings scale=tiny benches=" + names(bench.SingleThreaded()) + " runs=6"},
		{JobSpec{Kind: "fig10"}, "kind=fig10 scale=tiny"},
		{JobSpec{Kind: "fig12"}, "kind=fig12 scale=tiny threads=[1 2 4 8 16]"},
		{JobSpec{Kind: "sweep"}, "kind=sweep scale=tiny benches=" + names(bench.Multithreaded()) + " threads=[1 2 4 8 16]"},
		{JobSpec{Kind: "geometry", Geometries: []string{"2x2"}}, "kind=geometry scale=tiny benches=" + names(bench.All()) + " geos=2x2"},
		{JobSpec{Kind: "policy", Policies: []string{"all"}},
			"kind=policy scale=tiny geos=1x2,2x2,4x4 policies=" + strings.Join(simos.PolicyNames(), ",") + " mixes=[32 64 128]"},
	} {
		p, err := Resolve(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Kind, err)
		}
		if got := p.Identity(); got != tc.want {
			t.Errorf("%s defaults:\n got %q\nwant %q", tc.spec.Kind, got, tc.want)
		}
		if len(p.cells()) == 0 {
			t.Errorf("%s: default spec enumerated no cells", tc.spec.Kind)
		}
		cfg := p.Config()
		if cfg.Scale != bench.Tiny || cfg.Runs != 6 || cfg.Jobs != 1 || cfg.Plan != sampling.FullPlan() ||
			cfg.SchedPolicy != "" || cfg.Policy != (resilience.CellPolicy{}) ||
			cfg.MaxCycles != harness.DefaultConfig().MaxCycles {
			t.Errorf("%s: default harness config %+v", tc.spec.Kind, cfg)
		}
	}
}

// TestIdentityPinned pins the daemon's campaign identity: for one
// explicit-axis spec per kind, plus sampled, budgeted and scheduler
// variants, Identity must equal the string earlier daemons wrote, so
// their ledgers keep recovering and their digest-cache keys keep
// matching.
func TestIdentityPinned(t *testing.T) {
	for _, tc := range []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Kind: "characterization", Scale: "small"}, "kind=characterization scale=small"},
		{JobSpec{Kind: "pairings", Benchmarks: []string{"compress", "db"}, Runs: 3},
			"kind=pairings scale=tiny benches=compress,db runs=3"},
		{JobSpec{Kind: "pairings"},
			"kind=pairings scale=tiny benches=compress,jess,db,javac,mpegaudio,jack,MolDyn,MonteCarlo,RayTracer runs=6"},
		{JobSpec{Kind: "fig10"}, "kind=fig10 scale=tiny"},
		{JobSpec{Kind: "fig12", Threads: []int{1, 2, 4}}, "kind=fig12 scale=tiny threads=[1 2 4]"},
		{JobSpec{Kind: "sweep", Benchmarks: []string{"MolDyn"}, Threads: []int{1, 2, 4, 8}, Scale: "small"},
			"kind=sweep scale=small benches=MolDyn threads=[1 2 4 8]"},
		{JobSpec{Kind: "geometry", Benchmarks: []string{"compress", "MolDyn"}, Geometries: []string{"1x2", "2x2"}},
			"kind=geometry scale=tiny benches=compress,MolDyn geos=1x2,2x2"},
		{JobSpec{Kind: "policy", Policies: []string{"naive", "symbiotic-ipc"}, Mixes: []int{8, 32}, Geometries: []string{"2x2"}},
			"kind=policy scale=tiny geos=2x2 policies=naive,symbiotic-ipc mixes=[8 32]"},
		{JobSpec{Kind: "sweep", Benchmarks: []string{"compress"}, Threads: []int{1}, SimMode: "sampled"},
			"kind=sweep scale=tiny benches=compress threads=[1] sim=sampled(ff=0,warm=2000,win=1000)"},
		{JobSpec{Kind: "pairings", Benchmarks: []string{"jack"}, SchedPolicy: "symbiotic-ipc", Timeslice: 50000, CycleBudget: 1000000},
			"kind=pairings scale=tiny benches=jack runs=6 cycle-budget=1000000 policy=symbiotic-ipc timeslice=50000"},
		{JobSpec{Kind: "fig12", Threads: []int{2}, SimMode: "sampled", Timeslice: 20000},
			"kind=fig12 scale=tiny threads=[2] sim=sampled(ff=0,warm=2000,win=1000) timeslice=20000"},
	} {
		p, err := Resolve(tc.spec)
		if err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		if got := p.Identity(); got != tc.want {
			t.Errorf("%+v:\n got %q\nwant %q", tc.spec, got, tc.want)
		}
	}
}

func TestConfigStringCanonical(t *testing.T) {
	spec := JobSpec{Kind: "sweep", Benchmarks: []string{"compress"}, Threads: []int{1}}
	p1, err := Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Identity() != p2.Identity() {
		t.Fatalf("Identity not deterministic: %q vs %q", p1.Identity(), p2.Identity())
	}

	// Simulation-relevant knobs must change the string...
	other, _ := Resolve(JobSpec{Kind: "sweep", Benchmarks: []string{"compress"}, Threads: []int{2}})
	if other.Identity() == p1.Identity() {
		t.Fatal("different thread axis, same Identity")
	}
	// ...execution-only knobs must not: the same cells produce the same
	// bytes whatever the deadline, so they share cache entries.
	timed, _ := Resolve(JobSpec{Kind: "sweep", Benchmarks: []string{"compress"}, Threads: []int{1},
		CellDeadline: "30s", Retries: 2, JobDeadline: "5m"})
	if timed.Identity() != p1.Identity() {
		t.Fatalf("deadlines leaked into Identity:\n%q\n%q", timed.Identity(), p1.Identity())
	}
}
