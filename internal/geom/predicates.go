package geom

import "math"

// Sign is the sign of a geometric determinant.
type Sign int

// Possible determinant signs.
const (
	Negative Sign = -1
	Zero     Sign = 0
	Positive Sign = 1
)

// Error bounds of the adaptive predicates' stages, from Shewchuk, "Adaptive
// Precision Floating-Point Arithmetic and Fast Robust Geometric Predicates"
// (1997): stage A is the double-precision filter, B the exact determinant of
// the rounded coordinate differences, C that plus a first-order correction
// for the differences' rounding errors.
const (
	epsilon        = 2.220446049250313e-16 / 2 // half-ulp of 1.0
	resultErrBound = (3.0 + 8.0*epsilon) * epsilon
	ccwErrBound    = (3.0 + 16.0*epsilon) * epsilon
	ccwErrBoundB   = (2.0 + 12.0*epsilon) * epsilon
	ccwErrBoundC   = (9.0 + 64.0*epsilon) * epsilon * epsilon
	iccErrBound    = (10.0 + 96.0*epsilon) * epsilon
	iccErrBoundB   = (4.0 + 48.0*epsilon) * epsilon
	iccErrBoundC   = (44.0 + 576.0*epsilon) * epsilon * epsilon
)

// Orient2D returns Positive if points a, b, c make a counter-clockwise turn,
// Negative for clockwise, and Zero if they are collinear. The result is
// exact: a double-precision filter decides the common case, and Shewchuk's
// adaptive stages on floating-point expansions resolve what it cannot,
// without allocating. Like Shewchuk's, the filter assumes that its products
// of coordinate differences do not underflow, which holds when every nonzero
// difference of two x or two y coordinates is at least 2⁻⁵¹¹ in magnitude;
// past the filter the answer is exact for any finite coordinates, whatever
// their exponents.
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
	return orient2DExact(a, b, c, detSum)
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

// orient2DExact is Shewchuk's orient2dadapt through stage C: the exact
// determinant of the rounded differences from c, then a first-order
// correction for their rounding errors. Stage D, and every input whose
// exponents would put a product out of range, is the exact monomial sum of
// orient2DWide.
func orient2DExact(a, b, c Point, detSum float64) Sign {
	if !inRange(orientRange, a, b, c) {
		return orient2DWide(a, b, c)
	}
	acx, bcx := a.X-c.X, b.X-c.X
	acy, bcy := a.Y-c.Y, b.Y-c.Y

	var B [4]float64
	twoTwoDiff(twoProduct(acx, bcy), twoProduct(acy, bcx), &B)
	det := estimate(B[:])
	errBound := ccwErrBoundB * detSum
	if det >= errBound || -det >= errBound {
		return signOf(det)
	}

	acxTail := twoDiffTail(a.X, c.X, acx)
	bcxTail := twoDiffTail(b.X, c.X, bcx)
	acyTail := twoDiffTail(a.Y, c.Y, acy)
	bcyTail := twoDiffTail(b.Y, c.Y, bcy)
	if acxTail == 0 && acyTail == 0 && bcxTail == 0 && bcyTail == 0 {
		return expansionSign(B[:]) // B is the exact determinant
	}

	errBound = ccwErrBoundC*detSum + resultErrBound*math.Abs(det)
	det += (acx*bcyTail + bcy*acxTail) - (acy*bcxTail + bcx*acyTail)
	if det >= errBound || -det >= errBound {
		return signOf(det)
	}
	return orient2DWide(a, b, c)
}

// InCircle returns Positive if point d lies strictly inside the circle
// through a, b, c (which must be in counter-clockwise order), Negative if it
// lies strictly outside, and Zero if the four points are cocircular. Like
// Orient2D the result is exact, from a filter and adaptive stages; the
// filter assumes its products do not underflow, which holds when every
// nonzero difference of two x or two y coordinates is at least 2⁻²⁴⁰.
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
	return inCircleExact(a, b, c, d, permanent)
}

// inCircleExact is Shewchuk's incircleadapt through stage C: the exact
// determinant of the rounded differences from d, then a first-order
// correction for their rounding errors. Stage D, and every input whose
// exponents would put a product out of range, is the exact monomial sum of
// inCircleWide.
func inCircleExact(a, b, c, d Point, permanent float64) Sign {
	if !inRange(inCircleRange, a, b, c, d) {
		return inCircleWide(a, b, c, d)
	}
	adx, bdx, cdx := a.X-d.X, b.X-d.X, c.X-d.X
	ady, bdy, cdy := a.Y-d.Y, b.Y-d.Y, c.Y-d.Y

	var bc, ca, ab [4]float64
	twoTwoDiff(twoProduct(bdx, cdy), twoProduct(cdx, bdy), &bc)
	twoTwoDiff(twoProduct(cdx, ady), twoProduct(adx, cdy), &ca)
	twoTwoDiff(twoProduct(adx, bdy), twoProduct(bdx, ady), &ab)

	var adet, bdet, cdet [32]float64
	var abdet [64]float64
	var fin [96]float64
	det3 := sumExpansions(
		sumExpansions(liftTimes(bc[:], adx, ady, &adet), liftTimes(ca[:], bdx, bdy, &bdet), abdet[:]),
		liftTimes(ab[:], cdx, cdy, &cdet), fin[:])

	det := estimate(det3)
	errBound := iccErrBoundB * permanent
	if det >= errBound || -det >= errBound {
		return signOf(det)
	}

	adxTail := twoDiffTail(a.X, d.X, adx)
	adyTail := twoDiffTail(a.Y, d.Y, ady)
	bdxTail := twoDiffTail(b.X, d.X, bdx)
	bdyTail := twoDiffTail(b.Y, d.Y, bdy)
	cdxTail := twoDiffTail(c.X, d.X, cdx)
	cdyTail := twoDiffTail(c.Y, d.Y, cdy)
	if adxTail == 0 && bdxTail == 0 && cdxTail == 0 &&
		adyTail == 0 && bdyTail == 0 && cdyTail == 0 {
		return expansionSign(det3) // det3 is the exact determinant
	}

	errBound = iccErrBoundC*permanent + resultErrBound*math.Abs(det)
	det += ((adx*adx+ady*ady)*((bdx*cdyTail+cdy*bdxTail)-(bdy*cdxTail+cdx*bdyTail)) +
		2.0*(adx*adxTail+ady*adyTail)*(bdx*cdy-bdy*cdx)) +
		((bdx*bdx+bdy*bdy)*((cdx*adyTail+ady*cdxTail)-(cdy*adxTail+adx*cdyTail)) +
			2.0*(bdx*bdxTail+bdy*bdyTail)*(cdx*ady-cdy*adx)) +
		((cdx*cdx+cdy*cdy)*((adx*bdyTail+bdy*adxTail)-(ady*bdxTail+bdx*adyTail)) +
			2.0*(cdx*cdxTail+cdy*cdyTail)*(adx*bdy-ady*bdx))
	if det >= errBound || -det >= errBound {
		return signOf(det)
	}
	return inCircleWide(a, b, c, d)
}

// liftTimes returns e·(x² + y²) in out, for the four-component minor e.
func liftTimes(e []float64, x, y float64, out *[32]float64) []float64 {
	var ex, exx, ey, eyy [16]float64
	return sumExpansions(
		scaleExpansion(scaleExpansion(e, x, ex[:8]), x, exx[:]),
		scaleExpansion(scaleExpansion(e, y, ey[:8]), y, eyy[:]), out[:])
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
// endpoints). The points need not be collinear: collinearity is checked
// exactly.
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
