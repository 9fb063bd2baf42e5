package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors ../BENCHMARK.json, the contract other changes are
// held to.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesCatalogue: BENCHMARK.json and the catalogue name
// the same workloads and metrics with the same units, directions and bounds,
// inside the limits the contract sets.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", f.RunSeconds)
	}
	// 4 + 22 runs per workload, each about run_seconds plus set-up and
	// reference, must fit 3420 s with two builds.
	if runs := 4 + 22*len(f.Workloads); float64(runs)*(float64(f.RunSeconds)+12) > 3420 {
		t.Errorf("%d runs of %d s + ~12 s of set-up and reference each do not fit 3420 s", runs, f.RunSeconds)
	}

	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(f.Workloads), len(workloadNames))
	}
	seen := map[string]bool{}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, catalogue has %q", i, w.Name, workloadNames[i])
		}
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: why differs from the catalogue's", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
		seen[w.Name] = true
	}

	check := func(kind string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, catalogue has %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) {
				t.Errorf("%s %q: name outside the allowed form", kind, g.Name)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s %q: unit %q outside the allowed form", kind, g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s %q: better = %q", kind, g.Name, g.Better)
			}
			if seen[g.Name] {
				t.Errorf("name %q is used twice", g.Name)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %q: bound %v, catalogue has %v (must be in (0, 0.25])", kind, g.Name, g.Bound, w.Bound)
			case !bounded && (g.Bound != nil || w.Bound != 0):
				t.Errorf("%s %q: a per-layer metric carries no bound", kind, g.Name)
			}
			for _, on := range w.On {
				if _, ok := workloads[on]; !ok {
					t.Errorf("%s %q: measured on unknown workload %q", kind, g.Name, on)
				}
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m := f.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better; first is %+v", m)
	}
	for _, m := range f.EndToEnd {
		if *m.Bound > *f.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// TestReadmeExplainsEveryMetric keeps the metric dictionary complete.
func TestReadmeExplainsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !strings.Contains(readme, "`"+m.Name+"`") {
				t.Errorf("README.md does not explain %s", m.Name)
			}
		}
	}
	for _, w := range workloadNames {
		if !strings.Contains(readme, "`"+w+"`") {
			t.Errorf("README.md does not explain workload %s", w)
		}
	}
}
