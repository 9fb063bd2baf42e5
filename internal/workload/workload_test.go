package workload

import (
	"math"
	"testing"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
)

func meshAll(t *testing.T, p *delaunay.PSLG, opts delaunay.Options) *mesh.Mesh {
	t.Helper()
	m, _, err := delaunay.BuildCDT(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := delaunay.Refine(m, opts); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func area(m *mesh.Mesh) float64 {
	var a float64
	m.ForEachTri(func(id mesh.TriID, _ mesh.Tri) { a += m.Triangle(id).Area() })
	return a
}

func TestUnitSquare(t *testing.T) {
	m := meshAll(t, UnitSquare(), delaunay.Options{MaxArea: 0.01})
	if got := area(m); math.Abs(got-1) > 1e-9 {
		t.Errorf("area = %v", got)
	}
}

func TestRectangle(t *testing.T) {
	m := meshAll(t, Rectangle(2, 3), delaunay.Options{MaxArea: 0.05})
	if got := area(m); math.Abs(got-6) > 1e-9 {
		t.Errorf("area = %v", got)
	}
}

func TestPipeHasHole(t *testing.T) {
	p := Pipe(48, 1.0, 0.4, geom.Pt(0, 0))
	m := meshAll(t, p, delaunay.Options{MaxArea: 0.01})
	outer := 48.0 / 2 * math.Sin(2*math.Pi/48)
	inner := outer * 0.4 * 0.4
	want := outer - inner
	if got := area(m); math.Abs(got-want) > 1e-6 {
		t.Errorf("area = %v, want %v (annulus)", got, want)
	}
	// The hole center must not be inside any triangle.
	loc := m.Locate(geom.Pt(0, 0), mesh.NoTri)
	if loc.Kind != mesh.LocateFailed {
		t.Errorf("hole center located inside mesh: %+v", loc)
	}
	// Degenerate n is clamped.
	if got := Pipe(3, 1, 0.5, geom.Pt(0, 0)); len(got.Points) != 16 {
		t.Errorf("clamped pipe should have 2×8 points, got %d", len(got.Points))
	}
}

func TestSquareWithHoles(t *testing.T) {
	p := SquareWithHoles(3)
	m := meshAll(t, p, delaunay.Options{MaxArea: 0.005})
	got := area(m)
	if got >= 1 || got < 0.9 {
		t.Errorf("area = %v, want slightly under 1", got)
	}
	if len(p.Holes) != 3 {
		t.Errorf("holes = %d", len(p.Holes))
	}
}

func TestSizeFuncs(t *testing.T) {
	g := GradedRadial(geom.Pt(0, 0), 0.1, 0.2)
	if got := g(geom.Pt(0, 0)); got != 0.1 {
		t.Errorf("at center: %v", got)
	}
	if got := g(geom.Pt(3, 4)); math.Abs(got-1.1) > 1e-12 {
		t.Errorf("at dist 5: %v", got)
	}
	a := GradedAnnular(geom.Pt(0, 0), 1, 0.05, 0.3)
	if got := a(geom.Pt(1, 0)); got != 0.05 {
		t.Errorf("on ring: %v", got)
	}
	if got := a(geom.Pt(2, 0)); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("off ring: %v", got)
	}
}

func TestUniformAreaForCalibration(t *testing.T) {
	target := 5000
	bound := UniformAreaFor(target, 1.0)
	m := meshAll(t, UnitSquare(), delaunay.Options{MaxArea: bound})
	got := m.NumTriangles()
	if got < target/2 || got > target*2 {
		t.Errorf("UniformAreaFor(%d) produced %d elements (off by >2x)", target, got)
	}
	if UniformAreaFor(0, 1) != 0 {
		t.Error("zero target should be 0")
	}
}

func TestUniformSizeForCalibration(t *testing.T) {
	target := 5000
	h := UniformSizeFor(target, 1.0)
	m := meshAll(t, UnitSquare(), delaunay.Options{Size: SizeFunc(func(geom.Point) float64 { return h })})
	got := m.NumTriangles()
	if got < target/2 || got > target*2 {
		t.Errorf("UniformSizeFor(%d) produced %d elements (off by >2x)", target, got)
	}
	if UniformSizeFor(0, 1) != 0 {
		t.Error("zero target should be 0")
	}
}
