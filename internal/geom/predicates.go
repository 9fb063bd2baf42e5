package geom

import (
	"math"
	"math/big"
)

// Sign is the sign of a geometric determinant.
type Sign int

// Possible determinant signs.
const (
	Negative Sign = -1
	Zero     Sign = 0
	Positive Sign = 1
)

// Orientation of the machine epsilon-based filter constants. These are the
// standard forward error bounds for the 2x2 and 3x3 determinants computed in
// double precision (cf. Shewchuk, "Adaptive Precision Floating-Point
// Arithmetic and Fast Robust Geometric Predicates").
const (
	epsilon      = 2.220446049250313e-16 / 2 // half-ulp of 1.0
	ccwErrBound  = (3.0 + 16.0*epsilon) * epsilon
	iccErrBound  = (10.0 + 96.0*epsilon) * epsilon
	absErrExpand = 1.0
)

// Orient2D returns Positive if points a, b, c make a counter-clockwise turn,
// Negative for clockwise, and Zero if they are collinear. The result is exact:
// a floating-point filter handles the common case and exact big.Float
// arithmetic resolves near-degenerate inputs.
func Orient2D(a, b, c Point) Sign {
	detL := (a.X - c.X) * (b.Y - c.Y)
	detR := (a.Y - c.Y) * (b.X - c.X)
	det := detL - detR

	var detSum float64
	switch {
	case detL > 0:
		if detR <= 0 {
			return signOf(det)
		}
		detSum = detL + detR
	case detL < 0:
		if detR >= 0 {
			return signOf(det)
		}
		detSum = -detL - detR
	default:
		return signOf(det)
	}

	errBound := ccwErrBound * detSum
	if det >= errBound || -det >= errBound {
		return signOf(det)
	}
	return orient2DExact(a, b, c)
}

func signOf(x float64) Sign {
	switch {
	case x > 0:
		return Positive
	case x < 0:
		return Negative
	default:
		return Zero
	}
}

func orient2DExact(a, b, c Point) Sign {
	ax, ay := big.NewFloat(a.X), big.NewFloat(a.Y)
	bx, by := big.NewFloat(b.X), big.NewFloat(b.Y)
	cx, cy := big.NewFloat(c.X), big.NewFloat(c.Y)
	for _, f := range []*big.Float{ax, ay, bx, by, cx, cy} {
		f.SetPrec(256)
	}
	acx := new(big.Float).Sub(ax, cx)
	acy := new(big.Float).Sub(ay, cy)
	bcx := new(big.Float).Sub(bx, cx)
	bcy := new(big.Float).Sub(by, cy)
	l := new(big.Float).Mul(acx, bcy)
	r := new(big.Float).Mul(acy, bcx)
	det := new(big.Float).Sub(l, r)
	return Sign(det.Sign())
}

// InCircle returns Positive if point d lies strictly inside the circle
// through a, b, c (which must be in counter-clockwise order), Negative if it
// lies strictly outside, and Zero if the four points are cocircular. Like
// Orient2D the result is exact via a filtered computation.
func InCircle(a, b, c, d Point) Sign {
	adx := a.X - d.X
	ady := a.Y - d.Y
	bdx := b.X - d.X
	bdy := b.Y - d.Y
	cdx := c.X - d.X
	cdy := c.Y - d.Y

	bdxcdy := bdx * cdy
	cdxbdy := cdx * bdy
	alift := adx*adx + ady*ady

	cdxady := cdx * ady
	adxcdy := adx * cdy
	blift := bdx*bdx + bdy*bdy

	adxbdy := adx * bdy
	bdxady := bdx * ady
	clift := cdx*cdx + cdy*cdy

	det := alift*(bdxcdy-cdxbdy) + blift*(cdxady-adxcdy) + clift*(adxbdy-bdxady)

	permanent := (math.Abs(bdxcdy)+math.Abs(cdxbdy))*alift +
		(math.Abs(cdxady)+math.Abs(adxcdy))*blift +
		(math.Abs(adxbdy)+math.Abs(bdxady))*clift
	errBound := iccErrBound * permanent
	if det > errBound || -det > errBound {
		return signOf(det)
	}
	return inCircleExact(a, b, c, d)
}

func inCircleExact(a, b, c, d Point) Sign {
	const prec = 512
	nf := func(x float64) *big.Float { return big.NewFloat(x).SetPrec(prec) }
	adx := new(big.Float).Sub(nf(a.X), nf(d.X))
	ady := new(big.Float).Sub(nf(a.Y), nf(d.Y))
	bdx := new(big.Float).Sub(nf(b.X), nf(d.X))
	bdy := new(big.Float).Sub(nf(b.Y), nf(d.Y))
	cdx := new(big.Float).Sub(nf(c.X), nf(d.X))
	cdy := new(big.Float).Sub(nf(c.Y), nf(d.Y))

	mul := func(x, y *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Mul(x, y) }
	sub := func(x, y *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Sub(x, y) }
	add := func(x, y *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Add(x, y) }

	alift := add(mul(adx, adx), mul(ady, ady))
	blift := add(mul(bdx, bdx), mul(bdy, bdy))
	clift := add(mul(cdx, cdx), mul(cdy, cdy))

	t1 := mul(alift, sub(mul(bdx, cdy), mul(cdx, bdy)))
	t2 := mul(blift, sub(mul(cdx, ady), mul(adx, cdy)))
	t3 := mul(clift, sub(mul(adx, bdy), mul(bdx, ady)))

	det := add(add(t1, t2), t3)
	return Sign(det.Sign())
}

// SegmentsProperlyIntersect reports whether segments pq and rs intersect at a
// single point interior to both.
func SegmentsProperlyIntersect(p, q, r, s Point) bool {
	d1 := Orient2D(r, s, p)
	d2 := Orient2D(r, s, q)
	d3 := Orient2D(p, q, r)
	d4 := Orient2D(p, q, s)
	return d1*d2 < 0 && d3*d4 < 0
}

// OnSegment reports whether point c lies on segment ab (inclusive of the
// endpoints). The three points are assumed collinear is NOT required; the
// collinearity is checked exactly.
func OnSegment(a, b, c Point) bool {
	if Orient2D(a, b, c) != Zero {
		return false
	}
	return minf(a.X, b.X) <= c.X && c.X <= maxf(a.X, b.X) &&
		minf(a.Y, b.Y) <= c.Y && c.Y <= maxf(a.Y, b.Y)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
