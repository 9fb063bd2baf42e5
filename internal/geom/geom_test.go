package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(3, -4)
	if got := p.Sub(q); !got.Eq(Pt(-2, 6)) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); got != -4-6 {
		t.Errorf("Cross = %v", got)
	}
	if got := Pt(0, 0).Dist(Pt(3, 4)); got != 5 {
		t.Errorf("Dist = %v", got)
	}
	if got := Pt(0, 0).Dist2(Pt(3, 4)); got != 25 {
		t.Errorf("Dist2 = %v", got)
	}
	if got := p.Mid(q); !got.Eq(Pt(2, -1)) {
		t.Errorf("Mid = %v", got)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Pt(3, 4), Pt(1, 2))
	if !r.Min.Eq(Pt(1, 2)) || !r.Max.Eq(Pt(3, 4)) {
		t.Fatalf("NewRect normalization failed: %+v", r)
	}
	if r.W() != 2 || r.H() != 2 {
		t.Errorf("W/H = %v/%v", r.W(), r.H())
	}
	if !r.Center().Eq(Pt(2, 3)) {
		t.Errorf("Center = %v", r.Center())
	}
	s := NewRect(Pt(2.5, 3.5), Pt(10, 10))
	if !r.Intersects(s) || !s.Intersects(r) {
		t.Error("Intersects should be true")
	}
	far := NewRect(Pt(100, 100), Pt(101, 101))
	if r.Intersects(far) {
		t.Error("Intersects should be false for disjoint rects")
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{Pt(1, 5), Pt(-2, 3), Pt(4, -1)}
	r := BoundingRect(pts)
	if !r.Min.Eq(Pt(-2, -1)) || !r.Max.Eq(Pt(4, 5)) {
		t.Errorf("BoundingRect = %+v", r)
	}
	defer func() {
		if recover() == nil {
			t.Error("BoundingRect(empty) should panic")
		}
	}()
	BoundingRect(nil)
}

func TestSegment(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(2, 0)}
	if !s.DiametralContains(Pt(1, 0.5)) {
		t.Error("point near center should be inside diametral circle")
	}
	if s.DiametralContains(Pt(0, 1)) {
		t.Error("point at endpoint vertical should be outside (angle = 90°)")
	}
	if s.DiametralContains(Pt(5, 5)) {
		t.Error("far point should be outside diametral circle")
	}
}

func TestOrient2DBasic(t *testing.T) {
	a, b := Pt(0, 0), Pt(1, 0)
	if Orient2D(a, b, Pt(0, 1)) != Positive {
		t.Error("ccw should be Positive")
	}
	if Orient2D(a, b, Pt(0, -1)) != Negative {
		t.Error("cw should be Negative")
	}
	if Orient2D(a, b, Pt(2, 0)) != Zero {
		t.Error("collinear should be Zero")
	}
}

func TestOrient2DNearDegenerate(t *testing.T) {
	// Classic robustness stress: points nearly collinear at tiny offsets.
	a := Pt(0.5, 0.5)
	b := Pt(12, 12)
	// Stop above ulp(24) = 2^-48: below it, 24+eps rounds to exactly 24 and
	// the points genuinely become collinear.
	for i := 0; i < 17; i++ {
		eps := math.Ldexp(1, -i-30)
		c := Pt(24+eps, 24)
		got := Orient2D(a, b, c)
		// c is below the line y=x so the turn a->b->c is clockwise.
		if got != Negative {
			t.Fatalf("eps=2^-%d: Orient2D = %v, want Negative", i+30, got)
		}
		c2 := Pt(24, 24+eps)
		if got := Orient2D(a, b, c2); got != Positive {
			t.Fatalf("eps=2^-%d: Orient2D = %v, want Positive", i+30, got)
		}
	}
	if Orient2D(a, b, Pt(24, 24)) != Zero {
		t.Error("exactly collinear point should give Zero")
	}
}

func TestOrient2DAntisymmetry(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		return Orient2D(a, b, c) == -Orient2D(b, a, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOrient2DCyclicInvariance(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		s := Orient2D(a, b, c)
		return s == Orient2D(b, c, a) && s == Orient2D(c, a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInCircleBasic(t *testing.T) {
	// Unit circle through (1,0), (0,1), (-1,0) counter-clockwise.
	a, b, c := Pt(1, 0), Pt(0, 1), Pt(-1, 0)
	if InCircle(a, b, c, Pt(0, 0)) != Positive {
		t.Error("origin should be inside")
	}
	if InCircle(a, b, c, Pt(2, 2)) != Negative {
		t.Error("(2,2) should be outside")
	}
	if InCircle(a, b, c, Pt(0, -1)) != Zero {
		t.Error("(0,-1) is cocircular, want Zero")
	}
}

func TestInCircleNearDegenerate(t *testing.T) {
	a, b, c := Pt(0, 0), Pt(1, 0), Pt(1, 1)
	// Points just inside/outside the circumcircle of the right triangle,
	// whose circumcenter is (0.5, 0.5) and radius sqrt(0.5).
	center := Pt(0.5, 0.5)
	r := math.Sqrt(0.5)
	for i := 40; i < 52; i++ {
		eps := math.Ldexp(1, -i)
		in := Pt(center.X+r-eps, center.Y)
		out := Pt(center.X+r+eps, center.Y)
		if InCircle(a, b, c, in) != Positive {
			t.Fatalf("eps=2^-%d: inside point misclassified", i)
		}
		if InCircle(a, b, c, out) != Negative {
			t.Fatalf("eps=2^-%d: outside point misclassified", i)
		}
	}
}

func TestInCircleSymmetryUnderRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		a := Pt(rng.Float64(), rng.Float64())
		b := Pt(rng.Float64(), rng.Float64())
		c := Pt(rng.Float64(), rng.Float64())
		d := Pt(rng.Float64(), rng.Float64())
		if Orient2D(a, b, c) != Positive {
			a, b = b, a
		}
		if Orient2D(a, b, c) != Positive {
			continue // collinear, skip
		}
		s := InCircle(a, b, c, d)
		if InCircle(b, c, a, d) != s || InCircle(c, a, b, d) != s {
			t.Fatalf("InCircle not invariant under rotation of (a,b,c)")
		}
	}
}

func TestSegmentsProperlyIntersect(t *testing.T) {
	if !SegmentsProperlyIntersect(Pt(0, 0), Pt(2, 2), Pt(0, 2), Pt(2, 0)) {
		t.Error("crossing diagonals should intersect")
	}
	if SegmentsProperlyIntersect(Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3)) {
		t.Error("collinear disjoint should not properly intersect")
	}
	if SegmentsProperlyIntersect(Pt(0, 0), Pt(2, 0), Pt(1, 0), Pt(1, 2)) {
		t.Error("T-junction (touching) is not proper intersection")
	}
}

func TestOnSegment(t *testing.T) {
	a, b := Pt(0, 0), Pt(4, 4)
	if !OnSegment(a, b, Pt(2, 2)) {
		t.Error("midpoint should be on segment")
	}
	if !OnSegment(a, b, a) || !OnSegment(a, b, b) {
		t.Error("endpoints should be on segment")
	}
	if OnSegment(a, b, Pt(5, 5)) {
		t.Error("point beyond endpoint should be off segment")
	}
	if OnSegment(a, b, Pt(2, 3)) {
		t.Error("off-line point should be off segment")
	}
}
