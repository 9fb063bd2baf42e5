package delaunay

import (
	"math"
	"testing"

	"mrts/internal/geom"
	"mrts/internal/mesh"
)

// squarePSLG returns a unit-square PSLG.
func squarePSLG() *PSLG {
	return &PSLG{
		Points: []geom.Point{
			geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1),
		},
		Segments: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
}

// polygonPSLG returns a regular n-gon of the given radius.
func polygonPSLG(n int, radius float64) *PSLG {
	p := &PSLG{}
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		p.Points = append(p.Points, geom.Pt(radius*math.Cos(a), radius*math.Sin(a)))
	}
	for i := 0; i < n; i++ {
		p.Segments = append(p.Segments, [2]int{i, (i + 1) % n})
	}
	return p
}

func TestPSLGValidate(t *testing.T) {
	if err := (&PSLG{}).Validate(); err == nil {
		t.Error("empty PSLG should fail validation")
	}
	bad := squarePSLG()
	bad.Segments = append(bad.Segments, [2]int{0, 9})
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range segment should fail validation")
	}
	deg := squarePSLG()
	deg.Segments = append(deg.Segments, [2]int{2, 2})
	if err := deg.Validate(); err == nil {
		t.Error("degenerate segment should fail validation")
	}
	if err := squarePSLG().Validate(); err != nil {
		t.Errorf("valid PSLG rejected: %v", err)
	}
}

func TestBuildCDTSquare(t *testing.T) {
	m, ids, err := BuildCDT(squarePSLG())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("ids = %d", len(ids))
	}
	if m.NumTriangles() != 2 {
		t.Fatalf("unit square should carve to 2 triangles, got %d", m.NumTriangles())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	var area float64
	m.ForEachTri(func(id mesh.TriID, _ mesh.Tri) { area += m.Triangle(id).Area() })
	if math.Abs(area-1) > 1e-12 {
		t.Errorf("area = %v, want 1", area)
	}
}

func TestBuildCDTWithHole(t *testing.T) {
	// Outer square [0,4]^2 with inner square hole [1.5,2.5]^2.
	p := &PSLG{
		Points: []geom.Point{
			geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4),
			geom.Pt(1.5, 1.5), geom.Pt(2.5, 1.5), geom.Pt(2.5, 2.5), geom.Pt(1.5, 2.5),
		},
		Segments: [][2]int{
			{0, 1}, {1, 2}, {2, 3}, {3, 0},
			{4, 5}, {5, 6}, {6, 7}, {7, 4},
		},
		Holes: []geom.Point{geom.Pt(2, 2)},
	}
	m, _, err := BuildCDT(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	var area float64
	m.ForEachTri(func(id mesh.TriID, _ mesh.Tri) { area += m.Triangle(id).Area() })
	if math.Abs(area-15) > 1e-9 {
		t.Errorf("area = %v, want 16-1 = 15", area)
	}
}

func TestRefineQuality(t *testing.T) {
	m, _, err := BuildCDT(squarePSLG())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Refine(m, Options{QualityBound: math.Sqrt2, MaxArea: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Capped {
		t.Fatal("refinement should not cap")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Fatal(err)
	}
	nbad := 0
	m.ForEachTri(func(id mesh.TriID, _ mesh.Tri) {
		tr := m.Triangle(id)
		if tr.Quality() > math.Sqrt2+1e-9 || tr.Area() > 0.005+1e-12 {
			nbad++
		}
	})
	if nbad != 0 {
		t.Errorf("%d bad triangles remain", nbad)
	}
	if m.NumTriangles() < 200 {
		t.Errorf("expected at least ~200 triangles for area bound 0.005, got %d", m.NumTriangles())
	}
	// Area conservation.
	var area float64
	m.ForEachTri(func(id mesh.TriID, _ mesh.Tri) { area += m.Triangle(id).Area() })
	if math.Abs(area-1) > 1e-9 {
		t.Errorf("area = %v, want 1", area)
	}
}

func TestRefinePolygon(t *testing.T) {
	m, _, err := BuildCDT(polygonPSLG(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Refine(m, Options{MaxArea: 0.01}); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Fatal(err)
	}
	minAngle := math.Pi
	m.ForEachTri(func(id mesh.TriID, _ mesh.Tri) {
		if a := m.Triangle(id).MinAngle(); a < minAngle {
			minAngle = a
		}
	})
	// Quality bound sqrt(2) guarantees >= arcsin(1/(2*sqrt 2)) ≈ 20.7°.
	if deg := minAngle * 180 / math.Pi; deg < 20 {
		t.Errorf("min angle %.2f° below guarantee", deg)
	}
}

func TestRefineGraded(t *testing.T) {
	m, _, err := BuildCDT(squarePSLG())
	if err != nil {
		t.Fatal(err)
	}
	// Fine near the origin corner, coarse far away.
	size := func(p geom.Point) float64 {
		d := math.Hypot(p.X, p.Y)
		return 0.01 + 0.15*d
	}
	if _, err := Refine(m, Options{Size: SizeFunc(size)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// All triangles meet the sizing bound.
	m.ForEachTri(func(id mesh.TriID, _ mesh.Tri) {
		tr := m.Triangle(id)
		if h := size(tr.Centroid()); tr.LongestEdge() > h+1e-12 {
			t.Errorf("triangle %d: longest edge %v exceeds size %v", id, tr.LongestEdge(), h)
		}
	})
	// Gradation: triangles near origin must be much smaller than far ones.
	var nearMax, farMin float64
	farMin = math.Inf(1)
	m.ForEachTri(func(id mesh.TriID, _ mesh.Tri) {
		tr := m.Triangle(id)
		c := tr.Centroid()
		d := math.Hypot(c.X, c.Y)
		if d < 0.2 && tr.LongestEdge() > nearMax {
			nearMax = tr.LongestEdge()
		}
		if d > 1.2 && tr.LongestEdge() < farMin {
			farMin = tr.LongestEdge()
		}
	})
	if !(nearMax < farMin) {
		t.Errorf("expected gradation: near max edge %v should be < far min edge %v", nearMax, farMin)
	}
}

func TestRefineMaxVerticesCap(t *testing.T) {
	m, _, err := BuildCDT(squarePSLG())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Refine(m, Options{MaxArea: 1e-6, MaxVertices: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Capped || stats.Clean {
		t.Errorf("stats %+v: expected capped refinement, not clean", stats)
	}
	if m.NumVertices() > 510 {
		t.Errorf("cap overshoot: %d vertices", m.NumVertices())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRefineBadOptions(t *testing.T) {
	m, _, err := BuildCDT(squarePSLG())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Refine(m, Options{QualityBound: 0.5}); err != ErrBadOptions {
		t.Errorf("err = %v, want ErrBadOptions", err)
	}
}

func TestSegmentsRemainConstrainedAfterRefine(t *testing.T) {
	m, _, err := BuildCDT(squarePSLG())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Refine(m, Options{MaxArea: 0.01}); err != nil {
		t.Fatal(err)
	}
	// Every hull edge must still be constrained, and all boundary vertices
	// must lie exactly on the unit square's boundary.
	m.ForEachTri(func(id mesh.TriID, tr mesh.Tri) {
		for k := 0; k < 3; k++ {
			if tr.N[k] == mesh.NoTri {
				a := tr.V[(k+1)%3]
				b := tr.V[(k+2)%3]
				if !m.IsConstrained(a, b) {
					t.Errorf("hull edge (%d,%d) not constrained", a, b)
				}
				for _, v := range []mesh.VertexID{a, b} {
					p := m.Vertex(v)
					onBoundary := p.X == 0 || p.X == 1 || p.Y == 0 || p.Y == 1
					if !onBoundary {
						t.Errorf("hull vertex %v not on square boundary", p)
					}
				}
			}
		}
	})
}

func TestRefineSliverDomain(t *testing.T) {
	// A very flat triangular domain: the initial triangle's circumcenter
	// lies far outside the hull, exercising the blocked-walk fallback
	// (split the boundary segment the walk toward the circumcenter hits).
	p := &PSLG{
		Points: []geom.Point{
			geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0.5, 0.05),
		},
		Segments: [][2]int{{0, 1}, {1, 2}, {2, 0}},
	}
	m, _, err := BuildCDT(p)
	if err != nil {
		t.Fatal(err)
	}
	// The ~6° input angles at the base corners are far below Ruppert's
	// termination guarantee (see Options.QualityBound), so refinement will
	// grind toward the corners forever: the vertex cap is load-bearing.
	stats, err := Refine(m, Options{QualityBound: math.Sqrt2, MaxVertices: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.SegmentSplits == 0 {
		t.Error("expected boundary segment splits on the sliver domain")
	}
	if !stats.Capped {
		t.Log("sliver refinement terminated without hitting the cap")
	}
	if m.NumTriangles() < 10 {
		t.Errorf("refinement barely progressed: %d triangles", m.NumTriangles())
	}
}

func TestRefineInputEncroachment(t *testing.T) {
	// An input point sitting just above the bottom edge encroaches it:
	// phase 1 (splitAllEncroached) must split segments before any Steiner
	// insertion.
	p := &PSLG{
		Points: []geom.Point{
			geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1),
			geom.Pt(0.5, 0.02), // encroaches the bottom segment
		},
		Segments: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	m, _, err := BuildCDT(p)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Refine(m, Options{QualityBound: math.Sqrt2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentSplits == 0 {
		t.Error("encroached input should force segment splits")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// No boundary segment may remain encroached by any mesh vertex.
	m.ForEachConstrained(func(a, b mesh.VertexID) {
		seg := geom.Segment{A: m.Vertex(a), B: m.Vertex(b)}
		for _, tid := range m.AppendEdgeTriangles(nil, a, b) {
			tr := m.Tri(tid)
			for k := 0; k < 3; k++ {
				v := tr.V[k]
				if v == a || v == b {
					continue
				}
				if seg.DiametralContains(m.Vertex(v)) {
					t.Errorf("segment (%d,%d) still encroached by %d", a, b, v)
				}
			}
		}
	})
}

func TestRefineNoSegmentSplitSkips(t *testing.T) {
	// Same encroaching geometry with frozen segments: refinement must skip
	// the offending triangles instead of splitting, and report it.
	p := &PSLG{
		Points: []geom.Point{
			geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1),
			geom.Pt(0.5, 0.02),
		},
		Segments: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	m, _, err := BuildCDT(p)
	if err != nil {
		t.Fatal(err)
	}
	before := m.NumConstrained()
	stats, err := Refine(m, Options{QualityBound: math.Sqrt2, NoSegmentSplit: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentSplits != 0 {
		t.Errorf("frozen segments were split %d times", stats.SegmentSplits)
	}
	if m.NumConstrained() != before {
		t.Errorf("constraint count changed: %d -> %d", before, m.NumConstrained())
	}
	if stats.Skipped == 0 {
		t.Error("expected skipped triangles to be reported")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
