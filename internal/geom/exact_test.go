package geom

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// The oracles: the determinants over the rationals, exact for every finite
// input, and the fixed-precision big.Float code the expansions replaced, kept
// to show what it got wrong and to time against.

// ratInts returns the coordinates as integers over one common denominator,
// a power of two: big.Rat reads each double exactly, and scaling to the
// largest denominator spares the oracle a GCD per operation.
func ratInts(xs ...float64) []*big.Int {
	rs := make([]*big.Rat, len(xs))
	den := big.NewInt(1)
	for i, x := range xs {
		rs[i] = new(big.Rat).SetFloat64(x)
		if rs[i].Denom().Cmp(den) > 0 {
			den = rs[i].Denom()
		}
	}
	out := make([]*big.Int, len(xs))
	for i, r := range rs {
		f := new(big.Int).Quo(den, r.Denom())
		out[i] = f.Mul(f, r.Num())
	}
	return out
}

func isub(x, y *big.Int) *big.Int { return new(big.Int).Sub(x, y) }

func imul(x, y *big.Int) *big.Int { return new(big.Int).Mul(x, y) }

func orient2DRat(a, b, c Point) Sign {
	v := ratInts(a.X, a.Y, b.X, b.Y, c.X, c.Y)
	l := imul(isub(v[0], v[4]), isub(v[3], v[5]))
	r := imul(isub(v[1], v[5]), isub(v[2], v[4]))
	return Sign(l.Cmp(r))
}

func inCircleRat(a, b, c, d Point) Sign {
	v := ratInts(a.X, a.Y, b.X, b.Y, c.X, c.Y, d.X, d.Y)
	adx, ady := isub(v[0], v[6]), isub(v[1], v[7])
	bdx, bdy := isub(v[2], v[6]), isub(v[3], v[7])
	cdx, cdy := isub(v[4], v[6]), isub(v[5], v[7])
	lift := func(x, y *big.Int) *big.Int { return new(big.Int).Add(imul(x, x), imul(y, y)) }
	minor := func(x1, y1, x2, y2 *big.Int) *big.Int { return isub(imul(x1, y2), imul(x2, y1)) }
	det := imul(lift(adx, ady), minor(bdx, bdy, cdx, cdy))
	det.Add(det, imul(lift(bdx, bdy), minor(cdx, cdy, adx, ady)))
	det.Add(det, imul(lift(cdx, cdy), minor(adx, ady, bdx, bdy)))
	return Sign(det.Sign())
}

func orient2DBigFloat(a, b, c Point) Sign {
	nf := func(x float64) *big.Float { return new(big.Float).SetPrec(256).SetFloat64(x) }
	acx := new(big.Float).Sub(nf(a.X), nf(c.X))
	acy := new(big.Float).Sub(nf(a.Y), nf(c.Y))
	bcx := new(big.Float).Sub(nf(b.X), nf(c.X))
	bcy := new(big.Float).Sub(nf(b.Y), nf(c.Y))
	l := new(big.Float).Mul(acx, bcy)
	r := new(big.Float).Mul(acy, bcx)
	return Sign(new(big.Float).Sub(l, r).Sign())
}

func inCircleBigFloat(a, b, c, d Point) Sign {
	const prec = 512
	nf := func(x float64) *big.Float { return big.NewFloat(x).SetPrec(prec) }
	mul := func(x, y *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Mul(x, y) }
	sub := func(x, y *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Sub(x, y) }
	add := func(x, y *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Add(x, y) }
	adx, ady := sub(nf(a.X), nf(d.X)), sub(nf(a.Y), nf(d.Y))
	bdx, bdy := sub(nf(b.X), nf(d.X)), sub(nf(b.Y), nf(d.Y))
	cdx, cdy := sub(nf(c.X), nf(d.X)), sub(nf(c.Y), nf(d.Y))
	alift := add(mul(adx, adx), mul(ady, ady))
	blift := add(mul(bdx, bdx), mul(bdy, bdy))
	clift := add(mul(cdx, cdx), mul(cdy, cdy))
	t1 := mul(alift, sub(mul(bdx, cdy), mul(cdx, bdy)))
	t2 := mul(blift, sub(mul(cdx, ady), mul(adx, cdy)))
	t3 := mul(clift, sub(mul(adx, bdy), mul(bdx, ady)))
	return Sign(add(add(t1, t2), t3).Sign())
}

// The filters' sums, as Orient2D and InCircle compute them, so that the
// exact stages can be called on any input.
func orientDetSum(a, b, c Point) float64 {
	return math.Abs((a.X-c.X)*(b.Y-c.Y)) + math.Abs((a.Y-c.Y)*(b.X-c.X))
}

func inCirclePermanent(a, b, c, d Point) float64 {
	adx, ady, bdx, bdy, cdx, cdy := a.X-d.X, a.Y-d.Y, b.X-d.X, b.Y-d.Y, c.X-d.X, c.Y-d.Y
	return (math.Abs(bdx*cdy)+math.Abs(cdx*bdy))*(adx*adx+ady*ady) +
		(math.Abs(cdx*ady)+math.Abs(adx*cdy))*(bdx*bdx+bdy*bdy) +
		(math.Abs(adx*bdy)+math.Abs(bdx*ady))*(cdx*cdx+cdy*cdy)
}

// TestOrient2DExactBeyondFixedPrecision and TestInCircleExactBeyondFixedPrecision
// are inputs whose exponents differ by more than the big.Float fallbacks'
// 256 and 512 bits could hold: both rounded the determinant to zero.
func TestOrient2DExactBeyondFixedPrecision(t *testing.T) {
	a, b, c := Pt(1, 1), Pt(3, 3), Pt(math.Ldexp(1, -600), math.Ldexp(1, -599))
	if want := orient2DRat(a, b, c); want != Positive {
		t.Fatalf("oracle says %v", want)
	}
	if got := Orient2D(a, b, c); got != Positive {
		t.Errorf("Orient2D(%v, %v, %v) = %v, want Positive", a, b, c, got)
	}
	if got := orient2DBigFloat(a, b, c); got != Zero {
		t.Logf("the 256-bit fallback now gets it right: %v", got)
	}
}

func TestInCircleExactBeyondFixedPrecision(t *testing.T) {
	a, b, c, d := Pt(1, 0), Pt(0, 1), Pt(-1, 0), Pt(math.Ldexp(1, -600), -1)
	if want := inCircleRat(a, b, c, d); want != Negative {
		t.Fatalf("oracle says %v", want)
	}
	if got := InCircle(a, b, c, d); got != Negative {
		t.Errorf("InCircle(%v, %v, %v, %v) = %v, want Negative", a, b, c, d, got)
	}
	if got := inCircleBigFloat(a, b, c, d); got != Zero {
		t.Logf("the 512-bit fallback now gets it right: %v", got)
	}
}

// predicateCases is the number of inputs each class of the property tests
// draws. The race detector slows big.Rat tenfold and finds nothing in this
// single-threaded code, so it runs a tenth.
func predicateCases() int {
	if raceEnabled || testing.Short() {
		return 10_000
	}
	return 100_000
}

// checkPredicates compares both predicates, and each exact stage called on
// its own, with the big.Rat oracle on the quadruple of points.
func checkPredicates(t *testing.T, class string, i int, p [4]Point) {
	t.Helper()
	a, b, c, d := p[0], p[1], p[2], p[3]
	want := orient2DRat(a, b, c)
	for k, got := range [3]Sign{
		Orient2D(a, b, c),
		orient2DExact(a, b, c, orientDetSum(a, b, c)),
		orient2DWide(a, b, c),
	} {
		if got != want {
			t.Fatalf("%s case %d: %s(%v, %v, %v) = %v, oracle %v", class, i,
				[3]string{"Orient2D", "orient2DExact", "orient2DWide"}[k], a, b, c, got, want)
		}
	}
	want = inCircleRat(a, b, c, d)
	for k, got := range [3]Sign{
		InCircle(a, b, c, d),
		inCircleExact(a, b, c, d, inCirclePermanent(a, b, c, d)),
		inCircleWide(a, b, c, d),
	} {
		if got != want {
			t.Fatalf("%s case %d: %s(%v, %v, %v, %v) = %v, oracle %v", class, i,
				[3]string{"InCircle", "inCircleExact", "inCircleWide"}[k], a, b, c, d, got, want)
		}
	}
}

// latticeQuad returns four points on the integer lattice: collinear,
// cocircular (on a circle of radius 5, 25 or 65, rich in lattice points),
// or anywhere in a small box, scaled by a power of two and moved by a
// lattice vector.
func latticeQuad(rng *rand.Rand) [4]Point {
	var p [4]Point
	switch rng.Intn(3) {
	case 0: // collinear, plus one point anywhere
		o := Pt(float64(rng.Intn(9)-4), float64(rng.Intn(9)-4))
		dir := Pt(float64(rng.Intn(5)-2), float64(rng.Intn(5)-2))
		for i := range p[:3] {
			k := float64(rng.Intn(11) - 5)
			p[i] = Pt(o.X+k*dir.X, o.Y+k*dir.Y)
		}
		p[3] = Pt(float64(rng.Intn(9)-4), float64(rng.Intn(9)-4))
	case 1: // cocircular
		r := []int{5, 25, 65}[rng.Intn(3)]
		var on []Point
		for x := -r; x <= r; x++ {
			for y := -r; y <= r; y++ {
				if x*x+y*y == r*r {
					on = append(on, Pt(float64(x), float64(y)))
				}
			}
		}
		for i := range p {
			p[i] = on[rng.Intn(len(on))]
		}
	default:
		for i := range p {
			p[i] = Pt(float64(rng.Intn(7)-3), float64(rng.Intn(7)-3))
		}
	}
	s := math.Ldexp(1, rng.Intn(61)-30)
	o := Pt(float64(rng.Intn(2001)-1000), float64(rng.Intn(2001)-1000))
	for i := range p {
		p[i] = Pt((p[i].X+o.X)*s, (p[i].Y+o.Y)*s)
	}
	return p
}

func randomQuad(rng *rand.Rand) [4]Point {
	// Sizes from 1e-6 to 1 at positions up to 1e3 away, as fastpred_test.
	scale := math.Pow(10, -6*rng.Float64())
	at := Pt((rng.Float64()-0.5)*2e3*rng.Float64(), (rng.Float64()-0.5)*2e3*rng.Float64())
	var p [4]Point
	for i := range p {
		p[i] = Pt(at.X+scale*(rng.Float64()-0.5), at.Y+scale*(rng.Float64()-0.5))
	}
	return p
}

// nearDegenerateQuad returns a configuration that is collinear or
// cocircular up to rounding, with one coordinate moved by a few ulps.
func nearDegenerateQuad(rng *rand.Rand) [4]Point {
	var p [4]Point
	if rng.Intn(2) == 0 {
		// On the line from o along dir, which rounding bends a little.
		o := Pt(rng.Float64(), rng.Float64())
		dir := Pt(rng.Float64()-0.5, rng.Float64()-0.5)
		for i := range p {
			t := 4 * (rng.Float64() - 0.5)
			p[i] = Pt(o.X+t*dir.X, o.Y+t*dir.Y)
		}
	} else {
		// On the circle about o, as rounded.
		o := Pt(rng.Float64(), rng.Float64())
		r := rng.Float64() + 0.01
		for i := range p {
			s, c := math.Sincos(2 * math.Pi * rng.Float64())
			p[i] = Pt(o.X+r*c, o.Y+r*s)
		}
	}
	i, k := rng.Intn(4), rng.Intn(7)-3
	x := &p[i].X
	if rng.Intn(2) == 0 {
		x = &p[i].Y
	}
	for ; k > 0; k-- {
		*x = math.Nextafter(*x, math.Inf(1))
	}
	for ; k < 0; k++ {
		*x = math.Nextafter(*x, math.Inf(-1))
	}
	return p
}

// spreadQuad returns a lattice, random or near-degenerate configuration with
// one point moved by up to 2^±900: far off, or by far less than an ulp of
// the others, as the two precision tests above.
func spreadQuad(rng *rand.Rand) [4]Point {
	var p [4]Point
	switch rng.Intn(3) {
	case 0:
		p = latticeQuad(rng)
		for i := range p { // back to unit size, so the move is the spread
			p[i] = Pt(math.Mod(p[i].X, 7), math.Mod(p[i].Y, 7))
		}
	case 1:
		p = randomQuad(rng)
	default:
		p = nearDegenerateQuad(rng)
	}
	i := rng.Intn(4)
	for _, x := range []*float64{&p[i].X, &p[i].Y} {
		if rng.Intn(3) == 0 {
			continue
		}
		off := math.Ldexp(1+rng.Float64(), rng.Intn(1801)-900)
		if rng.Intn(2) == 0 {
			off = -off
		}
		if rng.Intn(2) == 0 {
			*x += off
		} else {
			*x = off
		}
	}
	return p
}

func TestPredicatesMatchRatOracle(t *testing.T) {
	for _, class := range []struct {
		name string
		gen  func(*rand.Rand) [4]Point
	}{
		{"random", randomQuad},
		{"lattice", latticeQuad},
		{"near-degenerate", nearDegenerateQuad},
		{"spread", spreadQuad},
	} {
		t.Run(class.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(class.name))))
			var signs [3]int
			for i := 0; i < predicateCases(); i++ {
				p := class.gen(rng)
				checkPredicates(t, class.name, i, p)
				signs[InCircle(p[0], p[1], p[2], p[3])+1]++
			}
			t.Logf("InCircle signs −/0/+: %v", signs)
		})
	}
}

// TestWideSignScales pins the windows of the wide evaluator: sums that cancel
// across windows, monomials whose products leave the double range, and
// magnitudes at both ends of it.
func TestWideSignScales(t *testing.T) {
	tiny, huge := math.SmallestNonzeroFloat64, math.MaxFloat64
	cases := [][4]Point{
		{Pt(huge, huge), Pt(-huge, huge), Pt(0, -huge), Pt(0, 0)},
		{Pt(tiny, 0), Pt(0, tiny), Pt(-tiny, 0), Pt(0, 0)},
		{Pt(tiny, 0), Pt(0, tiny), Pt(-tiny, 0), Pt(0, -tiny)},
		{Pt(huge, tiny), Pt(tiny, huge), Pt(-huge, tiny), Pt(tiny, -huge)},
		{Pt(1, 0), Pt(0, 1), Pt(-1, 0), Pt(math.Ldexp(1, -1000), -1)},
		{Pt(1, 0), Pt(0, 1), Pt(-1, 0), Pt(0, math.Ldexp(-1, -1000)-1)},
		{Pt(math.Ldexp(1, 1000), 0), Pt(0, math.Ldexp(1, 1000)), Pt(math.Ldexp(-1, 1000), 0), Pt(math.Ldexp(1, -1000), math.Ldexp(-1, 1000))},
		{Pt(0, 0), Pt(0, 0), Pt(0, 0), Pt(0, 0)},
	}
	for i, p := range cases {
		a, b, c, d := p[0], p[1], p[2], p[3]
		if got, want := orient2DWide(a, b, c), orient2DRat(a, b, c); got != want {
			t.Errorf("case %d: orient2DWide = %v, oracle %v", i, got, want)
		}
		if got, want := inCircleWide(a, b, c, d), inCircleRat(a, b, c, d); got != want {
			t.Errorf("case %d: inCircleWide = %v, oracle %v", i, got, want)
		}
	}
}

// TestWideSignCarriesSmallSums: a window whose monomials cancel to a residue
// smaller than the monomials below the window must not decide the sign.
func TestWideSignCarriesSmallSums(t *testing.T) {
	// 1 − 1 + 2⁻⁷⁹⁰(1+2⁻⁵²) − 2⁻⁷⁹⁰ − 2⁻⁸³⁰ = 2⁻⁸⁴² − 2⁻⁸³⁰ < 0, with the
	// last monomial below the first window and the residue inside it.
	coords := [8]float64{1, math.Ldexp(1+0x1p-52, -790), math.Ldexp(1, -790), math.Ldexp(1, -830)}
	ms := []monomial{
		{false, [4]uint8{0, 0}}, {true, [4]uint8{0, 0}},
		{false, [4]uint8{1, 0}}, {true, [4]uint8{2, 0}}, {true, [4]uint8{3, 0}},
	}
	if got := wideSign(&coords, ms, 2); got != Negative {
		t.Errorf("wideSign = %v, want Negative", got)
	}
	ms[4].neg = false // now the residue and the low monomial agree
	if got := wideSign(&coords, ms, 2); got != Positive {
		t.Errorf("wideSign = %v, want Positive", got)
	}
}

// TestExactPredicatesDoNotAllocate runs the exact stages on inputs that need
// each of them, lattice (stage B) and wide-exponent (the monomial sum).
func TestExactPredicatesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves stack buffers to the heap")
	}
	for name, p := range exactBenchInputs {
		a, b, c, d := p[0], p[1], p[2], p[3]
		if n := testing.AllocsPerRun(100, func() {
			orient2DExact(a, b, c, orientDetSum(a, b, c))
			inCircleExact(a, b, c, d, inCirclePermanent(a, b, c, d))
		}); n != 0 {
			t.Errorf("%s: %v allocations per call pair", name, n)
		}
	}
}

// exactBenchInputs are inputs the filters cannot decide: a cocircular and
// collinear lattice quadruple, and the two precision tests' inputs.
var exactBenchInputs = map[string][4]Point{
	"lattice": {Pt(3, 4), Pt(-4, 3), Pt(-5, 0), Pt(0, -5)},
	"wide":    {Pt(1, 0), Pt(0, 1), Pt(-1, 0), Pt(math.Ldexp(1, -600), -1)},
}

var sinkSign Sign

func BenchmarkOrient2DExact(b *testing.B) {
	inputs := map[string][3]Point{
		"lattice": {Pt(1, 1), Pt(3, 3), Pt(7, 7)},
		"wide":    {Pt(1, 1), Pt(3, 3), Pt(math.Ldexp(1, -600), math.Ldexp(1, -599))},
	}
	for name, p := range inputs {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkSign = Orient2D(p[0], p[1], p[2])
			}
		})
		b.Run(name+"/bigfloat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkSign = orient2DBigFloat(p[0], p[1], p[2])
			}
		})
	}
}

func BenchmarkInCircleExact(b *testing.B) {
	for name, p := range exactBenchInputs {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkSign = InCircle(p[0], p[1], p[2], p[3])
			}
		})
		b.Run(name+"/bigfloat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkSign = inCircleBigFloat(p[0], p[1], p[2], p[3])
			}
		})
	}
}
