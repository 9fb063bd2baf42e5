package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The refinement kernel takes three shortcuts that must not change a single
// verdict (DESIGN.md, "The mesh kernel"): QualityWithin judges a good
// triangle without its circumcenter, the cavity walk tests a neighbour with
// its corners rotated to start at the apex, and RadialFilter judges a
// triangle against the radial size field without Hypot. These tests hold
// them to the slow forms they stand in for.

// checkWithin fails if QualityWithin certifies tr while Quality() > beta.
func checkWithin(t *testing.T, tr Triangle, beta float64) bool {
	t.Helper()
	ab, bc, ca := tr.EdgeLengths2()
	within := tr.QualityWithin(beta, ab, bc, ca)
	if within && tr.Quality() > beta {
		t.Fatalf("QualityWithin(%v, %v) certifies, Quality() = %v", tr, beta, tr.Quality())
	}
	return within
}

// nearBeta returns an isosceles triangle whose radius-edge ratio is
// beta·(1+d), turned by angle, scaled by scale and moved to far times its
// circumradius from the origin.
func nearBeta(beta, d, angle, scale, far float64) Triangle {
	q := beta * (1 + d)
	sin, cos := math.Sincos(angle)
	r := q * scale // the base, the shortest edge, is scale long
	return placed(isoscelesWithQuality(q), angle, scale, Pt(far*r*cos, far*r*sin))
}

// filterSafe reports whether InCircle's stage-A filter may be trusted on p,
// as its doc comment states: every nonzero difference of two x or two y
// coordinates is at least 2⁻²⁴⁰, and every coordinate is finite (the mesh
// decoder refuses the others).
func filterSafe(p [4]Point) bool {
	for i := range p {
		if math.IsInf(p[i].X, 0) || math.IsInf(p[i].Y, 0) || p[i].X != p[i].X || p[i].Y != p[i].Y {
			return false
		}
		for j := range i {
			for _, d := range []float64{p[i].X - p[j].X, p[i].Y - p[j].Y} {
				if d != 0 && math.Abs(d) < 0x1p-240 {
					return false
				}
			}
		}
	}
	return true
}

// checkRotations fails if InCircle's sign on p depends on which corner of
// the triangle p[0], p[1], p[2] comes first, or differs from the oracle's.
func checkRotations(t *testing.T, p [4]Point) {
	t.Helper()
	if !filterSafe(p) {
		return
	}
	a, b, c, d := p[0], p[1], p[2], p[3]
	want := inCircleRat(a, b, c, d)
	for k, got := range [3]Sign{InCircle(a, b, c, d), InCircle(b, c, a, d), InCircle(c, a, b, d)} {
		if got != want {
			t.Fatalf("InCircle rotated %d on %v = %v, oracle %v", k, p, got, want)
		}
	}
}

// FuzzKernelShortcuts checks both arguments on what the fuzzer shapes:
// QualityWithin never certifies a triangle whose Quality() exceeds beta, on
// isosceles triangles within 1e-5 (and down to 1e-16, and exactly) of the
// bound at up to 1e12 circumradii from the origin (the filter answers up to
// about 1e8), with each corner as A and beta up to 2⁶⁰ (it answers up to
// 2¹⁰), and on the raw triangle;
// InCircle gives the oracle's sign for every rotation of the triangle,
// on cocircular lattice points, on quadruples cocircular or collinear up to
// a few ulps (which take the exact stages) and on the raw quadruple;
// and RadialFilter certifies only the exact form's size verdict, under
// fields of scale 1e-6 to 1e3 and grading 1 to 64 centred up to 1e12 from
// the origin, on triangles whose side is within 1e-9 (and down to 1e-16,
// and exactly) of h at their centre, and on the raw triangle.
func FuzzKernelShortcuts(f *testing.F) {
	f.Add(int64(1), 1e-9, 1e6, 0.3, 0.0, 0.0, 1.0, 0.0, 0.5, 1.0, 0.5, 0.2)
	f.Add(int64(2), -1e-9, 1e8, 2.0, 0.0, 0.0, 5.0, 0.0, 0.0, 5.0, 3.0, 4.0)
	f.Add(int64(3), -6e-8, 1e8, 1.0, 1e6, 1e6, 1e6+1, 1e6, 1e6, 1e6+1, 1e6+0.5, 1e6+0.5)
	f.Add(int64(4), 0.0, 0.0, 0.0, -3.0, 4.0, 3.0, -4.0, 4.0, 3.0, -4.0, -3.0)
	f.Fuzz(func(t *testing.T, seed int64, d, far, angle, ax, ay, bx, by, cx, cy, dx, dy float64) {
		rng := rand.New(rand.NewSource(seed))
		beta := []float64{math.Sqrt2, 1, 2, 1 + 3*rng.Float64(), 1 + 1023*rng.Float64(), withinMaxBeta,
			math.Pow(2, 60*rng.Float64())}[rng.Intn(7)] // the last mostly past the cap, where it must decline
		if !(math.Abs(d) <= 1e-5) { // NaN and ±Inf included
			d = math.Copysign(math.Pow(10, -5-11*rng.Float64()), rng.Float64()-0.5)
		}
		if !(far >= 0 && far <= 1e12) {
			far = math.Pow(10, 12*rng.Float64())
		}
		if math.IsInf(angle, 0) || angle != angle {
			angle = 2 * math.Pi * rng.Float64()
		}
		scale := math.Pow(10, -6*rng.Float64())
		tr := nearBeta(beta, d, angle, scale, far)
		for _, r := range []Triangle{tr, {tr.B, tr.C, tr.A}, {tr.C, tr.A, tr.B}} { // each corner as A
			checkWithin(t, r, beta)
		}
		raw := Triangle{Pt(ax, ay), Pt(bx, by), Pt(cx, cy)}
		checkWithin(t, raw, beta)

		for _, p := range [][4]Point{latticeQuad(rng), nearDegenerateQuad(rng), {raw.A, raw.B, raw.C, Pt(dx, dy)}} {
			checkRotations(t, p)
		}

		field := drawRadial(rng, far)
		side := d * 1e-4
		if rng.Intn(4) == 0 {
			side = []float64{0, 1e-16, -1e-16}[rng.Intn(3)]
		}
		checkRadial(t, field, nearSize(field, 2*rng.Float64(), angle, side))
		checkRadial(t, field, raw)
	})
}

// TestQualityWithinMargin pins where the filter answers: a triangle 10⁻⁶
// below the bound is certified at up to 10⁶ circumradii from the origin, one
// within 10⁻⁹ of it never is, nor is one farther out than the |A|/R term
// allows, and every verdict holds against Quality.
func TestQualityWithinMargin(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 20_000; i++ {
		beta := []float64{math.Sqrt2, 1, 2, 1 + 3*rng.Float64()}[i%4]
		angle, scale := 2*math.Pi*rng.Float64(), math.Pow(10, -6*rng.Float64())
		far := math.Pow(10, 6*rng.Float64())
		if !checkWithin(t, nearBeta(beta, -1e-6, angle, scale, far), beta) {
			t.Fatalf("β %v: a triangle 1e-6 below the bound at |A|/R %.3g is not certified", beta, far)
		}
		for _, d := range []float64{-1e-9, 0, 1e-9, 1e-6} {
			if checkWithin(t, nearBeta(beta, d, angle, scale, far), beta) {
				t.Fatalf("β %v: a triangle at (1%+g)·β is certified", beta, d)
			}
		}
		if checkWithin(t, nearBeta(beta, -0.1, angle, scale, 1e9), beta) {
			t.Fatalf("β %v: a triangle at |A|/R 1e9 is certified", beta)
		}
	}
}
