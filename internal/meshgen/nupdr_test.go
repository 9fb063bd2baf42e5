package meshgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mrts/internal/cluster"
	"mrts/internal/delaunay"
	"mrts/internal/geom"
)

func TestGradedSizeForCalibration(t *testing.T) {
	domain := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	sp := gradedSizeFor(domain, 6, 20000)
	size := sp.At
	// The field must be finer at the center than at the corner.
	if !(size(domain.Center()) < size(geom.Pt(0, 0))) {
		t.Error("sizing not graded")
	}
	res, err := RunNUPDR(NUPDRConfig{TargetElements: 20000, PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements < 10000 || res.Elements > 40000 {
		t.Errorf("calibration off: %d elements for target 20000", res.Elements)
	}
}

func TestBuildLeafTreeBalanced(t *testing.T) {
	domain := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	sp := gradedSizeFor(domain, 8, 30000)
	size := sp.At
	tree := buildLeafTree(domain, size, 1000)
	if len(tree.Leaves()) < 4 {
		t.Fatalf("expected several leaves, got %d", len(tree.Leaves()))
	}
	for _, leaf := range tree.Leaves() {
		for _, nb := range tree.Neighbors(leaf) {
			// Leaf widths halve per level, so 2:1 balance caps their ratio.
			r := tree.Bounds(nb).W() / tree.Bounds(leaf).W()
			if r > 2 || r < 0.5 {
				t.Fatal("leaf tree not 2:1 balanced")
			}
		}
	}
}

func TestEdgePointCycleFixedPortions(t *testing.T) {
	a, b := geom.Pt(0, 0), geom.Pt(1, 0)
	size := func(geom.Point) float64 { return 0.3 }
	// No fixed portions: endpoints + forced midpoint + spacing points.
	pts := edgePointCycle(a, b, size, nil)
	if !pts[0].Eq(a) || !pts[len(pts)-1].Eq(b) {
		t.Fatal("cycle must include endpoints")
	}
	foundMid := false
	for _, p := range pts {
		if p.Eq(geom.Pt(0.5, 0)) {
			foundMid = true
		}
	}
	if !foundMid {
		t.Error("dyadic midpoint not forced")
	}
	// A fixed portion covering [0, 0.5] must be reused verbatim.
	fixedPts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.123, 0), geom.Pt(0.5, 0)}
	pts = edgePointCycle(a, b, size, []fixedPortion{{
		A: geom.Pt(0, 0), B: geom.Pt(0.5, 0), Pts: fixedPts,
	}})
	if !pts[1].Eq(geom.Pt(0.123, 0)) {
		t.Errorf("fixed points not reused: %v", pts)
	}
}

func TestRunNUPDR(t *testing.T) {
	res, err := RunNUPDR(NUPDRConfig{TargetElements: 15000, PEs: 4, MaxLeafElems: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conforming {
		t.Error("NUPDR leaves do not conform")
	}
	if res.Subdomains < 4 {
		t.Errorf("expected over-decomposition, got %d leaves", res.Subdomains)
	}
	if res.Elements < 7000 {
		t.Errorf("elements = %d", res.Elements)
	}
	t.Log(res)
}

func TestRunNUPDRSequentialConforms(t *testing.T) {
	res, err := RunNUPDR(NUPDRConfig{TargetElements: 8000, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conforming {
		t.Error("sequential NUPDR not conforming")
	}
}

func TestRunNUPDRBadConfig(t *testing.T) {
	if _, err := RunNUPDR(NUPDRConfig{}); err == nil {
		t.Fatal("zero target should fail")
	}
}

// sameNUPDRMesh fails t unless got has want's elements, vertices, leaves,
// conformity and quality report, the method's name aside.
func sameNUPDRMesh(t *testing.T, name string, got, want Result) {
	t.Helper()
	if got.Elements != want.Elements || got.Vertices != want.Vertices || got.Subdomains != want.Subdomains || !got.Conforming {
		t.Errorf("%s: %d elements, %d vertices, %d leaves, conforming %v; 1-PE NUPDR: %d, %d, %d",
			name, got.Elements, got.Vertices, got.Subdomains, got.Conforming, want.Elements, want.Vertices, want.Subdomains)
	}
	if got.Quality == nil || want.Quality == nil {
		t.Fatalf("%s: a run without a quality report", name)
	}
	report := func(q *Quality) map[string]any {
		var m map[string]any
		b, err := json.Marshal(q)
		if err == nil {
			err = json.Unmarshal(b, &m)
		}
		if err != nil {
			t.Fatal(err)
		}
		delete(m, "method")
		return m
	}
	if !reflect.DeepEqual(report(got.Quality), report(want.Quality)) {
		t.Errorf("%s: the report differs from 1-PE NUPDR's, NUPDR | %s:\n%s", name, got.Method, QualityDiff(want.Quality, got.Quality))
	}
}

// ONUPDR with memory to spare makes RunNUPDR's mesh: the same counts and
// the same quality report.
func TestRunONUPDRInCore(t *testing.T) {
	cfg := NUPDRConfig{TargetElements: 10000, PEs: 2, MaxLeafElems: 1200, Quality: true}
	res, err := RunONUPDR(newTestCluster(t, 2, 1<<30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunNUPDR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameNUPDRMesh(t, "ONUPDR", res, ref)
	t.Log(res)
}

// TestNUPDRMeshesAlikeEverywhere: both NUPDR builds mesh on one fixed
// precedence, so every run makes the 1-PE mesh — the same elements,
// vertices and quality report — on any number of PEs or nodes, and out of
// core; at the golden configuration that is the pinned report.
func TestNUPDRMeshesAlikeEverywhere(t *testing.T) {
	for _, cfg := range []NUPDRConfig{
		{TargetElements: 6000, MaxLeafElems: 600},
		{TargetElements: 20000, MaxLeafElems: 1000},
	} {
		cfg.Quality = true
		t.Run(fmt.Sprintf("%dk", cfg.TargetElements/1000), func(t *testing.T) {
			one := cfg
			one.PEs = 1
			want, err := RunNUPDR(one)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.TargetElements == 6000 {
				if pin := loadGolden(t)["NUPDR"]; pin.Elements != want.Elements || pin.Vertices != want.Vertices {
					t.Fatalf("1-PE NUPDR: %d elements, %d vertices; the golden pins %d, %d",
						want.Elements, want.Vertices, pin.Elements, pin.Vertices)
				}
			}
			for _, pes := range []int{2, 4} {
				c := cfg
				c.PEs = pes
				got, err := RunNUPDR(c)
				if err != nil {
					t.Fatal(err)
				}
				sameNUPDRMesh(t, fmt.Sprintf("NUPDR on %d PEs", pes), got, want)
			}
			for _, cc := range []struct {
				name string
				cfg  cluster.Config
			}{
				{"1 node x 2 workers", cluster.Config{Nodes: 1, WorkersPerNode: 2, MemBudget: 1 << 30}},
				{"2 nodes", cluster.Config{Nodes: 2, MemBudget: 1 << 30}},
				{"3 nodes", cluster.Config{Nodes: 3, MemBudget: 1 << 30}},
				{"2 nodes at 100 kB, spooled", cluster.Config{Nodes: 2, MemBudget: 100_000, SpoolDir: t.TempDir()}},
			} {
				cc.cfg.Factory = Factory
				cl, err := cluster.New(cc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunONUPDR(cl, cfg)
				cl.Close()
				if err != nil {
					t.Fatalf("ONUPDR on %s: %v", cc.name, err)
				}
				if cc.cfg.SpoolDir != "" && got.Mem.Evictions == 0 {
					t.Errorf("ONUPDR on %s: no evictions, the run did not swap", cc.name)
				}
				sameNUPDRMesh(t, "ONUPDR on "+cc.name, got, want)
			}
		})
	}
}

func TestRunONUPDROutOfCore(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		Nodes:     2,
		MemBudget: 300_000,
		SpoolDir:  t.TempDir(),
		Factory:   Factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := RunONUPDR(cl, NUPDRConfig{TargetElements: 15000, MaxLeafElems: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conforming {
		t.Error("OOC ONUPDR leaves do not conform")
	}
	if res.Mem.Evictions == 0 {
		t.Error("expected evictions under a 300KB budget")
	}
	if res.Elements < 7000 {
		t.Errorf("elements = %d", res.Elements)
	}
	t.Logf("OOC ONUPDR: %v; evictions=%d loads=%d", res, res.Mem.Evictions, res.Mem.Loads)
}

func TestSharedEdge(t *testing.T) {
	a := geom.NewRect(geom.Pt(0, 0), geom.Pt(0.5, 0.5))
	b := geom.NewRect(geom.Pt(0.5, 0), geom.Pt(1, 0.5))
	p, q, ok := sharedEdge(a, b)
	if !ok {
		t.Fatal("rects share an edge")
	}
	if p.X != 0.5 || q.X != 0.5 || math.Abs(q.Y-p.Y-0.5) > 1e-12 {
		t.Errorf("shared edge = %v-%v", p, q)
	}
	// Corner-touching rects share no positive-length edge.
	c := geom.NewRect(geom.Pt(0.5, 0.5), geom.Pt(1, 1))
	if _, _, ok := sharedEdge(a, c); ok {
		t.Error("corner touch should not count")
	}
	// Disjoint rects.
	d := geom.NewRect(geom.Pt(2, 2), geom.Pt(3, 3))
	if _, _, ok := sharedEdge(a, d); ok {
		t.Error("disjoint rects share nothing")
	}
	// Horizontal sharing.
	e := geom.NewRect(geom.Pt(0, 0.5), geom.Pt(0.5, 1))
	p, q, ok = sharedEdge(a, e)
	if !ok || p.Y != 0.5 || q.Y != 0.5 {
		t.Errorf("horizontal shared edge = %v-%v ok=%v", p, q, ok)
	}
}

// Leaves spread over three nodes: every leaf is reached and meshed, and no
// object moves or is duplicated on the way.
func TestRunONUPDRThreeNodes(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		Nodes:     3,
		MemBudget: 1 << 20,
		Factory:   Factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := RunONUPDR(cl, NUPDRConfig{TargetElements: 8000, MaxLeafElems: 900})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conforming {
		t.Error("three-node ONUPDR leaves do not conform")
	}
	if res.Elements < 4000 {
		t.Errorf("elements = %d", res.Elements)
	}
	total := 0
	for _, rt := range cl.Runtimes() {
		total += rt.NumLocalObjects()
	}
	if total != res.Subdomains {
		t.Errorf("object count drifted: %d objects for %d leaves", total, res.Subdomains)
	}
	t.Log(res)
}

// A leaf is messaged only by its predecessors, and raises itself to
// priority 10 when the first portion comes, so it stays in core until it
// meshes; once meshed it drops to -1 and nothing messages it again. So out
// of core no leaf is loaded more than once.
func TestONUPDRLoadsOnlyItsLeaves(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		Nodes:     2,
		MemBudget: 100_000,
		SpoolDir:  t.TempDir(),
		Factory:   Factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := RunONUPDR(cl, NUPDRConfig{TargetElements: 15000, MaxLeafElems: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conforming {
		t.Error("OOC ONUPDR leaves do not conform")
	}
	if res.Mem.Evictions == 0 {
		t.Error("expected evictions under a 100KB budget")
	}
	if res.Mem.Loads > uint64(res.Subdomains) {
		t.Errorf("%d loads for %d leaves, want at most one each", res.Mem.Loads, res.Subdomains)
	}
	t.Logf("%v evictions=%d loads=%d", res, res.Mem.Evictions, res.Mem.Loads)
}

// A finished leaf is never touched again, so it goes out before any leaf
// still to come (priority -1): an ONUPDR run that swaps writes finished
// leaves and reads nothing back. So it makes 0 loads, and no leaf is evicted
// twice, at two sizes and two budgets each, and at 512 kB a node. With a
// finished leaf left at priority 0, LRU evicted the oldest objects, the
// leaves not yet refined, and loaded them back: 36 to 273 loads in the
// first four runs. At 512 kB the build that dispatched from a refinement
// queue object, locked in core and holding every finished leaf's boundary,
// made 68–71 loads.
func TestONUPDRSwapsWithoutLoads(t *testing.T) {
	for _, c := range []struct {
		target int
		budget int64
	}{{100_000, 1 << 20}, {100_000, 2 << 20}, {300_000, 2 << 20}, {300_000, 4 << 20}, {300_000, 512 << 10}} {
		name := fmt.Sprintf("%dk-%dMB", c.target/1000, c.budget>>20)
		if c.budget < 1<<20 {
			name = fmt.Sprintf("%dk-%dkB", c.target/1000, c.budget>>10)
		}
		t.Run(name, func(t *testing.T) {
			cl := newTestCluster(t, 2, c.budget)
			res, err := RunONUPDR(cl, NUPDRConfig{TargetElements: c.target})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Conforming {
				t.Error("leaves do not conform")
			}
			if res.Mem.Evictions == 0 {
				t.Fatalf("%d leaves under %d bytes a node: no evictions, the run did not swap", res.Subdomains, c.budget)
			}
			if res.Mem.Loads != 0 || res.Mem.Evictions > uint64(res.Subdomains) {
				t.Errorf("%d loads and %d evictions for %d leaves, want 0 loads and at most one eviction a leaf",
					res.Mem.Loads, res.Mem.Evictions, res.Subdomains)
			}
			t.Logf("%v evictions=%d loads=%d", res, res.Mem.Evictions, res.Mem.Loads)
		})
	}
}

// closureSize is a leaf's sizing field given as a plain function, judged by
// the exact size test alone.
type closureSize func(geom.Point) float64

func (f closureSize) At(p geom.Point) float64 { return f(p) }

func (f closureSize) Exceeds(tr geom.Triangle, ab, bc, ca float64) bool {
	return delaunay.SizeFunc(f).Exceeds(tr, ab, bc, ca)
}

// The radial field's filtered size test changes no mesh: every leaf of a
// tree of about 200 000 elements, meshed under sizeParams and under the same
// field as a plain function, encodes to the same bytes.
func TestRadialSizeMeshesLikeExact(t *testing.T) {
	domain := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	sp := gradedSizeFor(domain, 6, 140_000)
	if sp.filter == (geom.RadialFilter{}) {
		t.Fatal("the field has no filter: both sides would take the exact test")
	}
	exact := closureSize(func(p geom.Point) float64 {
		return sp.Scale * (1 + (sp.Grading-1)*(p.Dist(sp.Center)/sp.DMax))
	})
	encode := func(rect geom.Rect, size leafSize) ([]byte, int) {
		m, _, err := meshLeaf(rect, size, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Recycle()
		var buf bytes.Buffer
		if err := m.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), m.NumTriangles()
	}
	tree := buildLeafTree(domain, sp.At, 2000)
	elements := 0
	for _, l := range tree.Leaves() {
		rect := tree.Bounds(l)
		got, n := encode(rect, &sp)
		want, _ := encode(rect, exact)
		if !bytes.Equal(got, want) {
			t.Fatalf("leaf %v: %d bytes under sizeParams, %d under the exact test, not the same", rect, len(got), len(want))
		}
		elements += n
	}
	if elements < 150_000 {
		t.Fatalf("%d elements in %d leaves, want about 200 000", elements, len(tree.Leaves()))
	}
	t.Logf("%d leaves, %d elements, the same bytes", len(tree.Leaves()), elements)
}
