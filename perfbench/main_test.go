package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsMatchSpec checks that BENCHMARK.json names exactly the
// workloads the program runs.
func TestWorkloadsMatchSpec(t *testing.T) {
	var listed []string
	for _, w := range loadSpec(t).Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(listed, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", listed, workloadNames())
	}
}

// TestPoolsPinnedAndEnumerable checks that every cell a seed can select
// has a pin and is enumerated by the harness under the same label.
func TestPoolsPinnedAndEnumerable(t *testing.T) {
	for _, w := range workloads() {
		for _, c := range w.pool {
			if _, ok := pins[w.pinKey(c)]; !ok {
				t.Errorf("%s: cell %q has no pin", w.name, w.pinKey(c))
			}
			if _, err := w.specFor(c); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
}

// TestSeedSelectsFromPool checks that a seed reproduces its campaign
// and only draws pooled cells.
func TestSeedSelectsFromPool(t *testing.T) {
	for _, w := range workloads() {
		pooled := map[cell]bool{}
		for _, c := range w.pool {
			pooled[c] = true
		}
		for seed := int64(0); seed < 20; seed++ {
			a := w.pick(rand.New(rand.NewSource(seed)))
			b := w.pick(rand.New(rand.NewSource(seed)))
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s seed %d: two draws differ: %v vs %v", w.name, seed, a, b)
			}
			for _, c := range a.cells {
				if !pooled[c] {
					t.Errorf("%s seed %d: cell %q is not in the pool", w.name, seed, c.label(w.kind, w.geo))
				}
			}
		}
	}
}

// TestSmoke runs every workload at minimal size — one cell (the service
// workload: one program), one repetition — untraced and traced, and
// checks that every metric BENCHMARK.json names appears with its unit,
// that nothing else appears, and that every digest checked.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every workload")
	}
	s := loadSpec(t)
	for _, w := range workloads() {
		for trace, want := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "1", "-seconds", "0", "-cells", "1",
				"-trace", []string{"0", "1"}[trace], "-dir", t.TempDir()}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d: %s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d: %s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
		}
	}
}
