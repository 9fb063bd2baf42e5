package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func docPair() (*Doc, *Doc) {
	mk := func() *Doc {
		d := NewDoc(Options{Scale: 0.1, PEs: 2})
		d.Experiments["tab1"] = map[string]float64{
			"sz2000/speed_incore": 30000,
			"sz2000/speed_ooc":    25000,
		}
		d.Experiments["tab4"] = map[string]float64{
			"sz4000/overlap_pct": 55,
			"sz4000/comp_pct":    80,
		}
		d.Experiments["fig8"] = map[string]float64{
			"sz3000/time_sec":  1.0,
			"sz3000/evictions": 120,
		}
		return d
	}
	return mk(), mk()
}

func TestGatePassesOnIdenticalRuns(t *testing.T) {
	base, cur := docPair()
	if v := Compare(base, cur); len(v) != 0 {
		t.Fatalf("identical runs must pass, got %v", v)
	}
}

func TestGateToleratesNoise(t *testing.T) {
	base, cur := docPair()
	cur.Experiments["tab1"]["sz2000/speed_ooc"] = 25000 * 0.3 // within 0.25× floor
	cur.Experiments["tab4"]["sz4000/overlap_pct"] = 55 - 20   // within 25-pt drop
	cur.Experiments["fig8"]["sz3000/time_sec"] = 3.5          // within 4× ceiling
	cur.Experiments["fig8"]["sz3000/evictions"] = 9999        // ungated
	if v := Compare(base, cur); len(v) != 0 {
		t.Fatalf("noisy-but-tolerable run must pass, got %v", v)
	}
}

func TestGateCatchesSpeedRegression(t *testing.T) {
	base, cur := docPair()
	cur.Experiments["tab1"]["sz2000/speed_ooc"] = 25000 * 0.2
	v := Compare(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "speed_ooc") {
		t.Fatalf("want one speed violation, got %v", v)
	}
}

func TestGateCatchesOverlapAndTimeRegression(t *testing.T) {
	base, cur := docPair()
	cur.Experiments["tab4"]["sz4000/overlap_pct"] = 5
	cur.Experiments["fig8"]["sz3000/time_sec"] = 5.0
	v := Compare(base, cur)
	if len(v) != 2 {
		t.Fatalf("want overlap + time violations, got %v", v)
	}
}

func TestGateRejectsShapeMismatch(t *testing.T) {
	base, cur := docPair()
	cur.PEs = 4
	v := Compare(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "shape mismatch") {
		t.Fatalf("want shape-mismatch violation, got %v", v)
	}
}

func TestGateRejectsMissingMetricsAndExperiments(t *testing.T) {
	base, cur := docPair()
	delete(cur.Experiments["tab1"], "sz2000/speed_ooc")
	delete(cur.Experiments, "fig8")
	v := Compare(base, cur)
	if len(v) != 2 {
		t.Fatalf("want missing-metric + missing-experiment violations, got %v", v)
	}
}

func TestDocRoundTrip(t *testing.T) {
	base, _ := docPair()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := base.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDoc(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := Compare(base, got); len(v) != 0 {
		t.Fatalf("round-tripped doc must compare clean, got %v", v)
	}
	var buf bytes.Buffer
	if err := base.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("WriteJSON must emit valid JSON")
	}
}

func TestDocAddCollectsTableMetrics(t *testing.T) {
	d := NewDoc(Options{})
	tab := &Table{ID: "tab1"}
	tab.SetMetric("sz100/speed_ooc", 42)
	d.Add(tab)
	d.Add(&Table{ID: "empty"}) // no metrics → no entry
	if got := d.Experiments["tab1"]["sz100/speed_ooc"]; got != 42 {
		t.Fatalf("metric not collected: %v", d.Experiments)
	}
	if _, ok := d.Experiments["empty"]; ok {
		t.Fatal("metric-less table must not create an entry")
	}
}

func TestGateWaitMetric(t *testing.T) {
	base, cur := docPair()
	base.Experiments["pipeline"] = map[string]float64{"sz3000/w1d2/demand_wait_ms": 0.4}
	cur.Experiments["pipeline"] = map[string]float64{"sz3000/w1d2/demand_wait_ms": 0.4}

	// Large relative growth under the absolute slack is noise, not a
	// regression: 0.4ms -> 4ms stays under 0.4×10 + 5ms.
	cur.Experiments["pipeline"]["sz3000/w1d2/demand_wait_ms"] = 4
	if v := Compare(base, cur); len(v) != 0 {
		t.Fatalf("sub-slack wait growth must pass, got %v", v)
	}
	// Past the slack + relative bound it trips.
	cur.Experiments["pipeline"]["sz3000/w1d2/demand_wait_ms"] = 20
	v := Compare(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "demand_wait_ms") {
		t.Fatalf("want one wait violation, got %v", v)
	}
}

func TestGateAllocMetric(t *testing.T) {
	base, cur := docPair()
	base.Experiments["alloc"] = map[string]float64{"steady/store_allocs_per_op": 3}
	cur.Experiments["alloc"] = map[string]float64{"steady/store_allocs_per_op": 3}

	// A couple of incidental allocations under the absolute slack pass: the
	// healthy value sits near zero where relative bounds degenerate.
	cur.Experiments["alloc"]["steady/store_allocs_per_op"] = 8
	if v := Compare(base, cur); len(v) != 0 {
		t.Fatalf("sub-slack alloc growth must pass, got %v", v)
	}
	// A lost pooled path (every op allocating buffers again) trips.
	cur.Experiments["alloc"]["steady/store_allocs_per_op"] = 15
	v := Compare(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "store_allocs_per_op") {
		t.Fatalf("want one alloc violation, got %v", v)
	}
	// Fewer allocations is never a regression.
	cur.Experiments["alloc"]["steady/store_allocs_per_op"] = 0
	if v := Compare(base, cur); len(v) != 0 {
		t.Fatalf("improvement must pass, got %v", v)
	}
}

func TestGateBytesMetric(t *testing.T) {
	base, cur := docPair()
	base.Experiments["compress"] = map[string]float64{"sz3000/on/bytes_moved": 1 << 20}
	cur.Experiments["compress"] = map[string]float64{"sz3000/on/bytes_moved": 1 << 20}

	// Within the relative ceiling passes.
	cur.Experiments["compress"]["sz3000/on/bytes_moved"] = 1.3 * (1 << 20)
	if v := Compare(base, cur); len(v) != 0 {
		t.Fatalf("in-tolerance byte growth must pass, got %v", v)
	}
	// A byte count past double (a lost compression win plus a double-write)
	// trips.
	cur.Experiments["compress"]["sz3000/on/bytes_moved"] = 2.5 * (1 << 20)
	v := Compare(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "bytes_moved") {
		t.Fatalf("want one bytes violation, got %v", v)
	}
	// Moving fewer bytes is never a regression.
	cur.Experiments["compress"]["sz3000/on/bytes_moved"] = 1 << 10
	if v := Compare(base, cur); len(v) != 0 {
		t.Fatalf("improvement must pass, got %v", v)
	}
}

func TestGateForwardMetric(t *testing.T) {
	base, cur := docPair()
	base.Experiments["routing"] = map[string]float64{
		"placed/settled/forwarded_per_msg": 0,
		"lazy/drift/forwarded_per_msg":     0.2,
	}
	cur.Experiments["routing"] = map[string]float64{
		"placed/settled/forwarded_per_msg": 0,
		"lazy/drift/forwarded_per_msg":     0.2,
	}

	// The placed settled baseline is exactly zero — the absolute slack keeps
	// a stray scheduling-race forward from tripping the gate.
	cur.Experiments["routing"]["placed/settled/forwarded_per_msg"] = 0.04
	if v := Compare(base, cur); len(v) != 0 {
		t.Fatalf("sub-slack forwarding must pass, got %v", v)
	}
	// Systematic forwarding over a zero baseline trips: the placed locator
	// stopped resolving first hops off the ring.
	cur.Experiments["routing"]["placed/settled/forwarded_per_msg"] = 0.3
	v := Compare(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "forwarded_per_msg") {
		t.Fatalf("want one forwarding violation, got %v", v)
	}
	// Over a nonzero baseline the relative bound applies.
	cur.Experiments["routing"]["placed/settled/forwarded_per_msg"] = 0
	cur.Experiments["routing"]["lazy/drift/forwarded_per_msg"] = 0.6
	v = Compare(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "lazy/drift") {
		t.Fatalf("want one relative forwarding violation, got %v", v)
	}
	// Less forwarding is never a regression.
	cur.Experiments["routing"]["lazy/drift/forwarded_per_msg"] = 0
	if v := Compare(base, cur); len(v) != 0 {
		t.Fatalf("improvement must pass, got %v", v)
	}
}

func TestGateHopsMetric(t *testing.T) {
	base, cur := docPair()
	base.Experiments["routing"] = map[string]float64{"placed/drift/hops_mean": 1.1}
	cur.Experiments["routing"] = map[string]float64{"placed/drift/hops_mean": 1.1}

	// The healthy floor is 1.0 (every remote message direct), so small
	// absolute growth under the slack is noise.
	cur.Experiments["routing"]["placed/drift/hops_mean"] = 1.3
	if v := Compare(base, cur); len(v) != 0 {
		t.Fatalf("sub-slack hop growth must pass, got %v", v)
	}
	// A forwarding chain creeping toward the hop bound trips.
	cur.Experiments["routing"]["placed/drift/hops_mean"] = 2.5
	v := Compare(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "hops_mean") {
		t.Fatalf("want one hop-count violation, got %v", v)
	}
}

func TestGateHitMetric(t *testing.T) {
	base, cur := docPair()
	base.Experiments["tiers"] = map[string]float64{"sz3000/capmid/tier0_hit_pct": 40}
	cur.Experiments["tiers"] = map[string]float64{"sz3000/capmid/tier0_hit_pct": 40}

	// Drops within the absolute tolerance pass — hit ratios at small smoke
	// scales are noisy.
	cur.Experiments["tiers"]["sz3000/capmid/tier0_hit_pct"] = 20
	if v := Compare(base, cur); len(v) != 0 {
		t.Fatalf("in-tolerance hit drop must pass, got %v", v)
	}
	// A collapse past 25 points trips (the placement policy broke).
	cur.Experiments["tiers"]["sz3000/capmid/tier0_hit_pct"] = 5
	v := Compare(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "tier0_hit_pct") {
		t.Fatalf("want one hit-ratio violation, got %v", v)
	}
	// Rising hit ratio is never a regression.
	cur.Experiments["tiers"]["sz3000/capmid/tier0_hit_pct"] = 95
	if v := Compare(base, cur); len(v) != 0 {
		t.Fatalf("improvement must pass, got %v", v)
	}
}

// TestGateBoundsAtAndPastEachKind pins every row of the gate: a value exactly
// at its bound passes and the next float past it fails. Each bound is written
// as the formula CI's tolerance flags gave before the table replaced them,
// evaluated on the same float64 values, so the table applies them bit for
// bit.
func TestGateBoundsAtAndPastEachKind(t *testing.T) {
	cases := []struct {
		metric string
		base   float64
		bound  func(b float64) float64
		lower  bool
	}{
		{"sz2000/speed_ooc", 25000.3, func(b float64) float64 { return b * 0.25 }, true},
		{"sz4000/overlap_pct", 55.1, func(b float64) float64 { return b - 25 }, true},
		{"sz3000/time_sec", 1.7, func(b float64) float64 { return b * 4.0 }, false},
		{"synth/time_read_sec", 0.3, func(b float64) float64 { return b * 4.0 }, false},
		{"sz3000/w1d2/demand_wait_ms", 0.4, func(b float64) float64 { return b*10 + 5 }, false},
		{"sz3000/capmid/tier0_hit_pct", 40.7, func(b float64) float64 { return b - 25 }, true},
		{"steady/store_allocs_per_op", 3.3, func(b float64) float64 { return b*3 + 4 }, false},
		{"sz3000/on/bytes_moved", 1<<20 + 7, func(b float64) float64 { return b * 2 }, false},
		{"placed/settled/forwarded_per_msg", 0.1, func(b float64) float64 { return b*2 + 0.05 }, false},
		{"placed/drift/hops_mean", 1.1, func(b float64) float64 { return b*1.5 + 0.25 }, false},
	}
	for _, c := range cases {
		t.Run(c.metric, func(t *testing.T) {
			if !Gated(c.metric) {
				t.Fatal("metric not gated")
			}
			doc := func(v float64) *Doc {
				d := NewDoc(Options{Scale: 0.1, PEs: 2})
				d.Experiments["x"] = map[string]float64{c.metric: v}
				return d
			}
			at := c.bound(c.base)
			if v := Compare(doc(c.base), doc(at)); len(v) != 0 {
				t.Fatalf("value at the bound %v must pass, got %v", at, v)
			}
			past := math.Nextafter(at, math.Inf(1))
			if c.lower {
				past = math.Nextafter(at, math.Inf(-1))
			}
			if v := Compare(doc(c.base), doc(past)); len(v) != 1 || !strings.Contains(v[0], c.metric) {
				t.Fatalf("value %v just past the bound %v must fail, got %v", past, at, v)
			}
		})
	}
	for _, m := range []string{"sz3000/evictions", "sz4000/comp_pct", "sz3000/capmid/spills"} {
		if Gated(m) {
			t.Errorf("%s is gated; it is informational", m)
		}
	}
}
