package service

import (
	"strings"
	"testing"
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
		{"policy without axes", JobSpec{Kind: "policy", Policies: []string{"greedy"}}, "needs policies"},
		{"bad geometry", JobSpec{Kind: "geometry", Geometries: []string{"2by2"}}, "geometry"},
		{"zero mix", JobSpec{Kind: "policy", Policies: []string{"greedy"}, Mixes: []int{0}, Geometries: []string{"2x2"}}, "mix size"},
		{"empty benchmark", JobSpec{Kind: "sweep", Benchmarks: []string{""}}, "empty benchmark list"},
	}
	for _, tc := range bad {
		if _, err := resolve(tc.spec); err == nil {
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
	want, err := resolve(JobSpec{Kind: "sweep", SimMode: "sampled"})
	if err != nil {
		t.Fatal(err)
	}
	if !want.simPlan.Sampled() {
		t.Fatalf("sim_mode sampled resolved to %+v", want.simPlan)
	}
	for _, mode := range []string{"Sampled", "SAMPLED"} {
		p, err := resolve(JobSpec{Kind: "sweep", SimMode: mode})
		if err != nil {
			t.Fatalf("sim_mode %s: %v", mode, err)
		}
		if p.simPlan != want.simPlan || p.configString() != want.configString() {
			t.Errorf("sim_mode %s: plan %+v config %q, want %+v %q",
				mode, p.simPlan, p.configString(), want.simPlan, want.configString())
		}
	}
}

func TestResolveDefaults(t *testing.T) {
	p, err := resolve(JobSpec{Kind: "sweep"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.benchmarks) == 0 {
		t.Fatal("sweep did not default to the full benchmark set")
	}
	if len(p.threads) != 2 {
		t.Fatalf("sweep threads defaulted to %v", p.threads)
	}
	if len(p.cells()) == 0 {
		t.Fatal("default sweep enumerated no cells")
	}

	p, err = resolve(JobSpec{Kind: "fig12"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.threads) != 4 {
		t.Fatalf("fig12 threads defaulted to %v", p.threads)
	}
}

func TestConfigStringCanonical(t *testing.T) {
	spec := JobSpec{Kind: "sweep", Benchmarks: []string{"compress"}, Threads: []int{1}}
	p1, err := resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p1.configString() != p2.configString() {
		t.Fatalf("configString not deterministic: %q vs %q", p1.configString(), p2.configString())
	}

	// Simulation-relevant knobs must change the string...
	other, _ := resolve(JobSpec{Kind: "sweep", Benchmarks: []string{"compress"}, Threads: []int{2}})
	if other.configString() == p1.configString() {
		t.Fatal("different thread axis, same configString")
	}
	// ...execution-only knobs must not: the same cells produce the same
	// bytes whatever the deadline, so they share cache entries.
	timed, _ := resolve(JobSpec{Kind: "sweep", Benchmarks: []string{"compress"}, Threads: []int{1},
		CellDeadline: "30s", Retries: 2, JobDeadline: "5m"})
	if timed.configString() != p1.configString() {
		t.Fatalf("deadlines leaked into configString:\n%q\n%q", timed.configString(), p1.configString())
	}
}
