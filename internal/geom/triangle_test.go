package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestTriangleArea(t *testing.T) {
	tr := Triangle{Pt(0, 0), Pt(2, 0), Pt(0, 2)}
	if got := tr.Area(); got != 2 {
		t.Errorf("Area = %v, want 2", got)
	}
	// Clockwise orientation flips the sign.
	cw := Triangle{Pt(0, 0), Pt(0, 2), Pt(2, 0)}
	if got := cw.Area(); got != -2 {
		t.Errorf("Area = %v, want -2", got)
	}
}

func TestCentroid(t *testing.T) {
	tr := Triangle{Pt(0, 0), Pt(3, 0), Pt(0, 3)}
	if got := tr.Centroid(); !got.Eq(Pt(1, 1)) {
		t.Errorf("Centroid = %v", got)
	}
}

func TestCircumcenter(t *testing.T) {
	tr := Triangle{Pt(0, 0), Pt(2, 0), Pt(0, 2)}
	cc, ok := tr.Circumcenter()
	if !ok {
		t.Fatal("circumcenter should exist")
	}
	if !cc.Eq(Pt(1, 1)) {
		t.Errorf("Circumcenter = %v, want (1,1)", cc)
	}
	if r := tr.Circumradius(); math.Abs(r-math.Sqrt2) > 1e-12 {
		t.Errorf("Circumradius = %v, want sqrt(2)", r)
	}
	// Degenerate triangle.
	deg := Triangle{Pt(0, 0), Pt(1, 1), Pt(2, 2)}
	if _, ok := deg.Circumcenter(); ok {
		t.Error("degenerate triangle should have no circumcenter")
	}
	if !math.IsInf(deg.Circumradius(), 1) {
		t.Error("degenerate triangle circumradius should be +Inf")
	}
}

func TestCircumcenterEquidistant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		tr := Triangle{
			Pt(rng.Float64()*10, rng.Float64()*10),
			Pt(rng.Float64()*10, rng.Float64()*10),
			Pt(rng.Float64()*10, rng.Float64()*10),
		}
		if math.Abs(tr.Area()) < 1e-6 {
			continue
		}
		cc, ok := tr.Circumcenter()
		if !ok {
			t.Fatal("circumcenter should exist for non-degenerate triangle")
		}
		da, db, dc := cc.Dist(tr.A), cc.Dist(tr.B), cc.Dist(tr.C)
		tol := 1e-7 * (1 + da)
		if math.Abs(da-db) > tol || math.Abs(da-dc) > tol {
			t.Fatalf("circumcenter not equidistant: %v %v %v", da, db, dc)
		}
	}
}

func TestEdgesAndQuality(t *testing.T) {
	tr := Triangle{Pt(0, 0), Pt(3, 0), Pt(0, 4)}
	if got := tr.ShortestEdge(); got != 3 {
		t.Errorf("ShortestEdge = %v", got)
	}
	if got := tr.LongestEdge(); got != 5 {
		t.Errorf("LongestEdge = %v", got)
	}
	// Right triangle: circumradius = hypotenuse/2 = 2.5, ratio = 2.5/3.
	if got := tr.Quality(); math.Abs(got-2.5/3) > 1e-12 {
		t.Errorf("Quality = %v, want %v", got, 2.5/3)
	}
	// Equilateral: quality = 1/sqrt(3).
	eq := Triangle{Pt(0, 0), Pt(1, 0), Pt(0.5, math.Sqrt(3)/2)}
	if got := eq.Quality(); math.Abs(got-1/math.Sqrt(3)) > 1e-9 {
		t.Errorf("equilateral Quality = %v, want %v", got, 1/math.Sqrt(3))
	}
	zero := Triangle{Pt(0, 0), Pt(0, 0), Pt(1, 1)}
	if !math.IsInf(zero.Quality(), 1) {
		t.Error("zero-edge triangle quality should be +Inf")
	}
}

func TestMinAngle(t *testing.T) {
	eq := Triangle{Pt(0, 0), Pt(1, 0), Pt(0.5, math.Sqrt(3)/2)}
	if got := eq.MinAngle(); math.Abs(got-math.Pi/3) > 1e-9 {
		t.Errorf("equilateral MinAngle = %v, want 60°", got)
	}
	right := Triangle{Pt(0, 0), Pt(1, 0), Pt(0, 1)}
	if got := right.MinAngle(); math.Abs(got-math.Pi/4) > 1e-9 {
		t.Errorf("right isoceles MinAngle = %v, want 45°", got)
	}
}

func TestCircumcircleContains(t *testing.T) {
	tr := Triangle{Pt(0, 0), Pt(2, 0), Pt(0, 2)}
	if !tr.CircumcircleContains(Pt(1, 1)) {
		t.Error("circumcenter should be inside circumcircle")
	}
	if tr.CircumcircleContains(Pt(10, 10)) {
		t.Error("far point should be outside")
	}
	// Cocircular point is NOT strictly inside.
	if tr.CircumcircleContains(Pt(2, 2)) {
		t.Error("cocircular point should not be strictly inside")
	}
}

func TestOffCenter(t *testing.T) {
	// A skinny triangle whose circumcenter is far away.
	tr := Triangle{Pt(0, 0), Pt(1, 0), Pt(0.5, 8)}
	beta := math.Sqrt2
	oc, ok := tr.OffCenter(beta)
	if !ok {
		t.Fatal("off-center should exist")
	}
	cc, _ := tr.Circumcenter()
	m := Pt(0.5, 0)
	// The off-center must lie between the shortest-edge midpoint and the
	// circumcenter, and no farther than the circumcenter.
	if m.Dist(oc) > m.Dist(cc)+1e-12 {
		t.Errorf("off-center %v is farther than circumcenter %v", oc, cc)
	}
	// New triangle (p,q,off) should have radius-edge ratio close to beta
	// (when the off-center was pulled in, i.e. differs from circumcenter).
	if oc != cc {
		nt := Triangle{Pt(0, 0), Pt(1, 0), oc}
		if got := nt.Quality(); math.Abs(got-beta) > 0.05 {
			t.Errorf("off-center new triangle quality = %v, want ≈ %v", got, beta)
		}
	}
	// Degenerate input.
	deg := Triangle{Pt(0, 0), Pt(1, 1), Pt(2, 2)}
	if _, ok := deg.OffCenter(beta); ok {
		t.Error("degenerate triangle should have no off-center")
	}
	// A good-quality triangle keeps its circumcenter.
	eqt := Triangle{Pt(0, 0), Pt(1, 0), Pt(0.5, math.Sqrt(3)/2)}
	oc2, ok := eqt.OffCenter(beta)
	if !ok {
		t.Fatal("off-center should exist for equilateral")
	}
	cc2, _ := eqt.Circumcenter()
	if oc2.Dist(cc2) > 1e-12 {
		t.Errorf("good triangle should keep circumcenter, got %v want %v", oc2, cc2)
	}
}
