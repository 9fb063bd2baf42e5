package geom

import "math"

// Triangle is a triangle given by its three corner points. Orientation is
// not implied; use Orient2D to test it.
type Triangle struct {
	A, B, C Point
}

// Area returns the signed area of t (positive when A, B, C are
// counter-clockwise).
func (t Triangle) Area() float64 {
	return (t.B.Sub(t.A)).Cross(t.C.Sub(t.A)) / 2
}

// Centroid returns the centroid of t.
func (t Triangle) Centroid() Point {
	return Point{(t.A.X + t.B.X + t.C.X) / 3, (t.A.Y + t.B.Y + t.C.Y) / 3}
}

// Circumcenter returns the circumcenter of t and reports whether it is
// well-defined (false for degenerate, collinear triangles).
func (t Triangle) Circumcenter() (Point, bool) {
	ax, ay := t.A.X, t.A.Y
	bx, by := t.B.X-ax, t.B.Y-ay
	cx, cy := t.C.X-ax, t.C.Y-ay
	d := 2 * (bx*cy - by*cx)
	if d == 0 {
		return Point{}, false
	}
	b2 := bx*bx + by*by
	c2 := cx*cx + cy*cy
	ux := (cy*b2 - by*c2) / d
	uy := (bx*c2 - cx*b2) / d
	return Point{ax + ux, ay + uy}, true
}

// Circumradius returns the circumradius of t, or +Inf for a degenerate
// triangle.
func (t Triangle) Circumradius() float64 {
	cc, ok := t.Circumcenter()
	if !ok {
		return math.Inf(1)
	}
	return cc.Dist(t.A)
}

// ShortestEdge returns the length of the shortest edge of t.
func (t Triangle) ShortestEdge() float64 {
	ab := t.A.Dist(t.B)
	bc := t.B.Dist(t.C)
	ca := t.C.Dist(t.A)
	return math.Min(ab, math.Min(bc, ca))
}

// LongestEdge returns the length of the longest edge of t.
func (t Triangle) LongestEdge() float64 {
	ab := t.A.Dist(t.B)
	bc := t.B.Dist(t.C)
	ca := t.C.Dist(t.A)
	return math.Max(ab, math.Max(bc, ca))
}

// Quality returns the circumradius-to-shortest-edge ratio of t, the quality
// measure driving Ruppert-style Delaunay refinement. Smaller is better; a
// ratio of 1/sqrt(3) ≈ 0.577 corresponds to an equilateral triangle, and a
// ratio bound B guarantees a minimum angle of arcsin(1/(2B)).
func (t Triangle) Quality() float64 {
	se := t.ShortestEdge()
	if se == 0 {
		return math.Inf(1)
	}
	return t.Circumradius() / se
}

// The squared-length predicates below decide only when the two sides differ
// by more than decisionBand relative, and only when every square involved
// lies in [minSquare, maxSquare], where it carries full relative precision
// (no subnormal term dominates, nothing has overflowed). Both forms start
// from the same coordinate differences and the same circumcenter, so they
// differ only in how they round from there on: under 2⁻⁴⁹ relative for the
// squared form (a sum of two squares, a minimum, two products) and under
// 2⁻⁴⁸ for the oracle (Hypot to an ulp or two, one division). A band of
// 1e-12 on squares is 5e-13 on the ratio itself, a hundred times either.
const (
	decisionBand = 1e-12
	minSquare    = 1e-280
	maxSquare    = 1e280
)

// QualityWithin's bounds (DESIGN.md, "A good triangle without its
// circumcenter"). It answers only for squared sides in [withinMin,
// withinMax] and 0 < beta <= withinMaxBeta, so that no product it forms
// overflows or underflows, and only for ε·|A|/R <= 2⁻²⁶ (withinFar), so that
// Quality's rounding of A + u, the circumcenter as a point, is small against
// R. A triangle it certifies has every angle's sine above 1/(2·beta), so its
// cross product, and the circumcenter Quality divides by it, are well
// conditioned. Between them, the two forms' rounding moves the ratio by at
// most 2⁻²⁶ + 10⁻¹¹ relative, and a margin of 2⁻²³ on the squares covers
// that four times over.
const (
	withinBand    = 0x1p-23
	withinFar     = 0x1p52
	withinMin     = 1e-80
	withinMax     = 1e80
	withinMaxBeta = 0x1p10
)

// exceedsSq reports whether lhs > rhs for two squared quantities, and
// whether that verdict is certain to match the comparison of their roots
// however those were rounded. NaN on either side is never certain.
func exceedsSq(lhs, rhs float64) (exceeds, certain bool) {
	if !(lhs > minSquare && rhs > minSquare && lhs < maxSquare && rhs < maxSquare) {
		return false, false
	}
	slack := decisionBand * rhs
	return lhs > rhs, lhs > rhs+slack || lhs < rhs-slack
}

// EdgeLengths2 returns the squared lengths of t's edges AB, BC and CA, which
// QualityWithin and LongestEdgeExceeds take.
func (t Triangle) EdgeLengths2() (ab, bc, ca float64) {
	return t.A.Dist2(t.B), t.B.Dist2(t.C), t.C.Dist2(t.A)
}

// qualityExceedsSq is the squared-length form of Quality() > beta for a t
// whose circumcenter is cc.
func (t Triangle) qualityExceedsSq(cc Point, beta float64) (exceeds, certain bool) {
	ab, bc, ca := t.EdgeLengths2()
	s2 := min(ab, bc, ca)
	if !(beta > 0 && s2 > minSquare) { // beta² could lift a subnormal s2 into range
		return false, false
	}
	return exceedsSq(cc.Dist2(t.A), beta*beta*s2)
}

// longestEdgeExceedsSq is the squared-length form of LongestEdge() > h.
func longestEdgeExceedsSq(h, ab, bc, ca float64) (exceeds, certain bool) {
	if !(h > 0) {
		return false, false
	}
	return exceedsSq(max(ab, bc, ca), h*h)
}

// QualityWithin reports whether t.Quality() <= beta is certain, given t's
// squared edge lengths as EdgeLengths2 returns them. It needs no
// circumcenter and no division: R² = |ab|²·|bc|²·|ca|² / (4·cross²), so it
// compares |ab|²·|bc|²·|ca|² against 4·beta²·s²·cross², s the shortest
// edge and cross that of AB and AC, with a margin that covers both its own
// rounding and Quality's, the rounding of the circumcenter as a point
// included. false means only "not certain": the caller asks QualityExceeds.
func (t Triangle) QualityWithin(beta, ab, bc, ca float64) bool {
	if !(ab > withinMin && bc > withinMin && ca > withinMin &&
		ab < withinMax && bc < withinMax && ca < withinMax &&
		beta > 0 && beta <= withinMaxBeta) {
		return false
	}
	bx, by := t.B.X-t.A.X, t.B.Y-t.A.Y
	cx, cy := t.C.X-t.A.X, t.C.Y-t.A.Y
	cross := bx*cy - by*cx
	cross2 := cross * cross
	lhs := ab * bc * ca
	a2 := t.A.X*t.A.X + t.A.Y*t.A.Y
	return lhs*(1+withinBand) < 4*(beta*beta)*min(ab, bc, ca)*cross2 && a2*cross2 <= withinFar*lhs
}

// QualityExceeds reports whether t.Quality() > beta, the verdict of Ruppert
// refinement on t, without a square root or a division beyond those of the
// circumcenter, which it returns as Circumcenter does since a caller that
// gets true wants it next. It compares squared lengths and falls back to
// Quality itself when those cannot certify the answer, so the two agree on
// every input: the filter-then-exact shape of Orient2D.
func (t Triangle) QualityExceeds(beta float64) (exceeds bool, cc Point, ok bool) {
	cc, ok = t.Circumcenter()
	if ok {
		if exceeds, certain := t.qualityExceedsSq(cc, beta); certain {
			return exceeds, cc, ok
		}
	}
	return t.Quality() > beta, cc, ok
}

// LongestEdgeExceeds reports whether t.LongestEdge() > h, given t's squared
// edge lengths as EdgeLengths2 returns them, by comparing the longest
// against h² with LongestEdge as the fallback.
func (t Triangle) LongestEdgeExceeds(h, ab, bc, ca float64) bool {
	if exceeds, certain := longestEdgeExceedsSq(h, ab, bc, ca); certain {
		return exceeds
	}
	return t.LongestEdge() > h
}

// MinAngle returns the smallest interior angle of t in radians.
func (t Triangle) MinAngle() float64 {
	angle := func(v, p, q Point) float64 {
		a := p.Sub(v)
		b := q.Sub(v)
		la, lb := math.Hypot(a.X, a.Y), math.Hypot(b.X, b.Y)
		if la == 0 || lb == 0 {
			return 0
		}
		cos := a.Dot(b) / (la * lb)
		if cos > 1 {
			cos = 1
		} else if cos < -1 {
			cos = -1
		}
		return math.Acos(cos)
	}
	m := angle(t.A, t.B, t.C)
	m = math.Min(m, angle(t.B, t.C, t.A))
	m = math.Min(m, angle(t.C, t.A, t.B))
	return m
}

// CircumcircleContains reports whether p lies strictly inside the
// circumcircle of t. t must be counter-clockwise oriented.
func (t Triangle) CircumcircleContains(p Point) bool {
	return InCircle(t.A, t.B, t.C, p) == Positive
}
