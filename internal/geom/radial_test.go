package geom

import (
	"math"
	"math/rand"
	"testing"
)

// radialField is a radial sizing field h(p) = scale·(1 + (grading−1)·|p−c|/dmax)
// as the NUPDR builds use it.
type radialField struct {
	scale, grading float64
	center         Point
	dmax           float64
}

func (f radialField) h(p Point) float64 {
	return f.scale * (1 + (f.grading-1)*(p.Dist(f.center)/f.dmax))
}

// exceedsExact is the size verdict the way the filter's caller falls back
// to it: h at the centroid through Hypot, then LongestEdgeExceeds.
func (f radialField) exceedsExact(tr Triangle) bool {
	h := f.h(tr.Centroid())
	ab, bc, ca := tr.EdgeLengths2()
	return h > 0 && tr.LongestEdgeExceeds(h, ab, bc, ca)
}

// checkRadial fails if RadialFilter certifies a verdict on tr that is not
// exceedsExact's, and reports whether it certified one.
func checkRadial(t *testing.T, f radialField, tr Triangle) bool {
	t.Helper()
	ab, bc, ca := tr.EdgeLengths2()
	got, certain := NewRadialFilter(f.scale, f.grading, f.dmax).Exceeds(max(ab, bc, ca), tr.Centroid().Sub(f.center))
	if certain && got != f.exceedsExact(tr) {
		t.Fatalf("RadialFilter certifies %v on %v under %+v, the exact form says %v", got, tr, f, !got)
	}
	return certain
}

// drawRadial draws a field with scale in [1e-6, 1e3], grading in [1, 64]
// (exactly 1 and 1 + 2⁻⁵² among them) and dmax in [1e-6, 1e3], centred at
// distance far from the origin.
func drawRadial(rng *rand.Rand, far float64) radialField {
	grading := []float64{1, 1 + 0x1p-52, 2, 6, 1 + 63*rng.Float64()}[rng.Intn(5)]
	sin, cos := math.Sincos(2 * math.Pi * rng.Float64())
	return radialField{
		scale:   math.Pow(10, -6+9*rng.Float64()),
		grading: grading,
		center:  Pt(far*cos, far*sin),
		dmax:    math.Pow(10, -6+9*rng.Float64()),
	}
}

// nearSize returns an equilateral triangle, turned by angle, centred at
// dist·dmax from f's centre, whose side is (1+d)·h there.
func nearSize(f radialField, dist, angle, d float64) Triangle {
	sin, cos := math.Sincos(angle)
	c := Pt(f.center.X+dist*f.dmax*cos, f.center.Y+dist*f.dmax*sin)
	r := (1 + d) * f.h(c) / math.Sqrt(3)
	corner := func(k float64) Point {
		s, c2 := math.Sincos(angle + k*2*math.Pi/3)
		return Pt(c.X+r*c2, c.Y+r*s)
	}
	return Triangle{corner(0), corner(1), corner(2)}
}

// TestRadialFilterMargin pins where the filter answers: a triangle whose
// longest edge is 10⁻⁸ or more from h at its centroid, relative, is
// certified, one within 10⁻¹¹ never is, and every verdict it gives is the
// exact form's. The field's centre is up to 10⁶ sides from the origin, so
// the triangles are built to about 10⁻¹⁰ and classified by what they are.
func TestRadialFilterMargin(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	certified, declined := 0, 0
	for i := 0; i < 50_000; i++ {
		f := drawRadial(rng, 0)
		f.center = Pt(f.scale*math.Pow(10, 6*rng.Float64()), 0)
		dist, angle := 2*rng.Float64(), 2*math.Pi*rng.Float64()
		d := []float64{1e-6, -1e-6, 1e-8, -1e-8, 1e-12, -1e-12, 0}[i%7]
		tr := nearSize(f, dist, angle, d)
		rel := tr.LongestEdge()/f.h(tr.Centroid()) - 1
		got := checkRadial(t, f, tr)
		switch {
		case math.Abs(rel) >= 1e-8 && !got:
			t.Fatalf("%+v: a longest edge %.3g from h, relative, is not certified", f, rel)
		case math.Abs(rel) <= 1e-11 && got:
			t.Fatalf("%+v: a longest edge %.3g from h, relative, is certified", f, rel)
		case got:
			certified++
		default:
			declined++
		}
	}
	if certified == 0 || declined == 0 {
		t.Fatalf("%d certified, %d declined: the margin was not exercised", certified, declined)
	}
}

// TestRadialFilterDeclinesOutOfRange: parameters out of the filter's range,
// a grading below 1 and NaN among them, give the zero filter, which
// certifies nothing.
func TestRadialFilterDeclinesOutOfRange(t *testing.T) {
	for _, p := range [][3]float64{
		{0x1p-201, 6, 1}, {0x1p201, 6, 1}, {1, 6, 0x1p-201}, {1, 6, 0x1p201},
		{1, 0.5, 1}, {1, 1 - 0x1p-53, 1}, {1, 0x1p201, 1}, {math.NaN(), 6, 1},
		{1, math.NaN(), 1}, {1, 6, math.NaN()}, {1, math.Inf(1), 1}, {0, 6, 1}, {-1, 6, 1},
	} {
		f := NewRadialFilter(p[0], p[1], p[2])
		if f != (RadialFilter{}) {
			t.Errorf("NewRadialFilter(%v) = %+v, want the zero filter", p, f)
		}
		if _, certain := f.Exceeds(1, Pt(0.5, 0.5)); certain {
			t.Errorf("the filter of %v certifies", p)
		}
	}
}
