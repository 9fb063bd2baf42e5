package geom

import (
	"math"
	"math/rand"
	"testing"
)

// predicateTally compares the squared-length predicates with the expressions
// they replace, which stay in the package as their fallback, and counts how
// often the squared form declined to answer.
type predicateTally struct {
	t                  *testing.T
	decided, fallbacks int
}

func (c *predicateTally) count(certain bool) {
	if certain {
		c.decided++
	} else {
		c.fallbacks++
	}
}

func (c *predicateTally) quality(tr Triangle, beta float64) {
	c.t.Helper()
	want := tr.Quality() > beta
	if ab, bc, ca := tr.EdgeLengths2(); tr.QualityWithin(beta, ab, bc, ca) && want {
		c.t.Fatalf("QualityWithin(%v, %v) is certain, Quality() = %v", tr, beta, tr.Quality())
	}
	cc, ok := tr.Circumcenter()
	if ok {
		exceeds, certain := tr.qualityExceedsSq(cc, beta)
		if certain && exceeds != want {
			c.t.Fatalf("qualityExceedsSq(%v, %v) is certain of %v, Quality() = %v", tr, beta, exceeds, tr.Quality())
		}
		c.count(certain)
	}
	got, gotCC, gotOK := tr.QualityExceeds(beta)
	if got != want {
		c.t.Fatalf("QualityExceeds(%v, %v) = %v, Quality() = %v", tr, beta, got, tr.Quality())
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if gotOK != ok || !sameBits(gotCC.X, cc.X) || !sameBits(gotCC.Y, cc.Y) {
		c.t.Fatalf("QualityExceeds(%v) returns circumcenter %v, %v; Circumcenter() = %v, %v", tr, gotCC, gotOK, cc, ok)
	}
}

func (c *predicateTally) longest(tr Triangle, h float64) {
	c.t.Helper()
	want := tr.LongestEdge() > h
	ab, bc, ca := tr.EdgeLengths2()
	exceeds, certain := longestEdgeExceedsSq(h, ab, bc, ca)
	if certain && exceeds != want {
		c.t.Fatalf("longestEdgeExceedsSq(%v, %v) is certain of %v, LongestEdge() = %v", tr, h, exceeds, tr.LongestEdge())
	}
	c.count(certain)
	if got := tr.LongestEdgeExceeds(h, ab, bc, ca); got != want {
		c.t.Fatalf("LongestEdgeExceeds(%v, %v) = %v, LongestEdge() = %v", tr, h, got, tr.LongestEdge())
	}
}

// placed returns tr rotated by angle, scaled and moved to at, which rounds
// every coordinate differently from the construction it came from.
func placed(tr Triangle, angle, scale float64, at Point) Triangle {
	sin, cos := math.Sincos(angle)
	f := func(p Point) Point {
		return Point{at.X + scale*(cos*p.X-sin*p.Y), at.Y + scale*(sin*p.X+cos*p.Y)}
	}
	return Triangle{f(tr.A), f(tr.B), f(tr.C)}
}

// isoscelesWithQuality returns the triangle over the base (0,0)-(1,0) whose
// base is its shortest edge and whose radius-edge ratio is q >= 1.
func isoscelesWithQuality(q float64) Triangle {
	// Apex height y with legs l: R = l²/(2y) and l² = y² + 1/4, so
	// y² − 2qy + 1/4 = 0; the larger root keeps the legs longer than the base.
	y := q + math.Sqrt(q*q-0.25)
	return Triangle{Pt(0, 0), Pt(1, 0), Pt(0.5, y)}
}

func TestFastPredicatesMatchOracleRandom(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(18))
	c := &predicateTally{t: t}
	betas := []float64{1, math.Sqrt2, 2, 0.7}
	for i := 0; i < n; i++ {
		// Sizes from 1e-6 to 1 at positions up to 1e3 away: the spread of a
		// refined mesh and beyond.
		scale := math.Pow(10, -6*rng.Float64())
		at := Pt((rng.Float64()-0.5)*2e3*rng.Float64(), (rng.Float64()-0.5)*2e3*rng.Float64())
		tr := Triangle{
			Pt(at.X+scale*rng.Float64(), at.Y+scale*rng.Float64()),
			Pt(at.X+scale*rng.Float64(), at.Y+scale*rng.Float64()),
			Pt(at.X+scale*rng.Float64(), at.Y+scale*rng.Float64()),
		}
		c.quality(tr, betas[i%len(betas)])
		c.longest(tr, scale*2*rng.Float64())
	}
	if c.decided < 19*(c.decided+c.fallbacks)/20 {
		t.Errorf("squared form decided %d of %d random cases; it should decide nearly all", c.decided, c.decided+c.fallbacks)
	}
}

func TestFastPredicatesMatchOracleNearThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c := &predicateTally{t: t}
	var deltas []float64
	for e := 9; e <= 16; e++ {
		d := math.Pow(10, -float64(e))
		deltas = append(deltas, d, -d)
	}
	deltas = append(deltas, 0)
	for i := 0; i < 20_000; i++ {
		beta := []float64{1, math.Sqrt2, 2, 1 + 3*rng.Float64()}[i%4]
		for _, d := range deltas {
			tr := placed(isoscelesWithQuality(beta*(1+d)),
				2*math.Pi*rng.Float64(), math.Pow(10, -4*rng.Float64()), Pt(rng.Float64(), rng.Float64()))
			c.quality(tr, beta)
			// h within d of the longest edge, both as rounded by the oracle
			// and from the squared side.
			l := tr.LongestEdge()
			c.longest(tr, l*(1+d))
			ab, bc, ca := tr.EdgeLengths2()
			c.longest(tr, math.Sqrt(max(ab, bc, ca))*(1+d))
		}
	}
	if c.fallbacks == 0 || c.decided == 0 {
		t.Errorf("near the thresholds: %d decided by squares, %d fell back; want both", c.decided, c.fallbacks)
	}
	t.Logf("near the thresholds: %d decided by squares, %d fell back", c.decided, c.fallbacks)
}

func TestFastPredicatesMatchOracleExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	c := &predicateTally{t: t}
	inf, nan := math.Inf(1), math.NaN()
	for _, scale := range []float64{1e-300, 1e-150, 1e-140, 1e-100, 1, 1e100, 1e140, 1e150, 1e300} {
		for i := 0; i < 2000; i++ {
			tr := Triangle{
				Pt(scale*rng.Float64(), scale*rng.Float64()),
				Pt(scale*rng.Float64(), scale*rng.Float64()),
				Pt(scale*rng.Float64(), scale*rng.Float64()),
			}
			for _, beta := range []float64{math.Sqrt2, 1e-200, 1e-20, 1e20, 1e200} {
				c.quality(tr, beta)
			}
			c.longest(tr, scale*rng.Float64())
			c.longest(tr, rng.Float64())
			// An edge far below the others' scale.
			tr.B = Pt(tr.A.X*(1+1e-15), tr.A.Y)
			c.quality(tr, math.Sqrt2)
			c.longest(tr, scale*rng.Float64())
		}
	}
	if c.fallbacks == 0 || c.decided == 0 {
		t.Errorf("at the extremes: %d decided by squares, %d fell back; want both", c.decided, c.fallbacks)
	}

	p, q, r := Pt(0.25, 0.5), Pt(1.5, 0.75), Pt(0.5, 2)
	degenerate := []Triangle{
		{p, p, r}, {p, q, p}, {p, q, q}, {p, p, p}, // zero-length edges
		{Pt(0, 0), Pt(1, 1), Pt(3, 3)}, {Pt(0, 0), Pt(1e-9, 0), Pt(1, 0)}, // collinear
		{Pt(0, 0), Pt(1, 1e-17), Pt(2, 0)}, {Pt(0.1, 0.1), Pt(0.2, 0.2), Pt(0.3, 0.30000000000000004)},
		{Pt(nan, 0), q, r}, {p, Pt(0, nan), r}, {p, q, Pt(nan, nan)},
		{Pt(inf, 0), q, r}, {p, Pt(0, -inf), r}, {Pt(inf, inf), Pt(-inf, inf), r}, {Pt(inf, 0), Pt(inf, 1), Pt(inf, 2)},
		{Pt(math.MaxFloat64, 0), Pt(0, math.MaxFloat64), Pt(-math.MaxFloat64, 0)},
		{Pt(5e-324, 0), Pt(0, 5e-324), Pt(0, 0)},
	}
	bounds := []float64{math.Sqrt2, 1, 0, -1, 1e-310, 5e-324, math.MaxFloat64, inf, -inf, nan}
	for _, tr := range append(degenerate, Triangle{p, q, r}) {
		for _, b := range bounds {
			c.quality(tr, b)
			c.longest(tr, b)
		}
	}
}
