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

// edgeLengths2 returns the squared lengths of t's three edges.
func (t Triangle) edgeLengths2() (ab, bc, ca float64) {
	return t.A.Dist2(t.B), t.B.Dist2(t.C), t.C.Dist2(t.A)
}

// qualityExceedsSq is the squared-length form of Quality() > beta for a t
// whose circumcenter is cc.
func (t Triangle) qualityExceedsSq(cc Point, beta float64) (exceeds, certain bool) {
	ab, bc, ca := t.edgeLengths2()
	s2 := min(ab, bc, ca)
	if !(beta > 0 && s2 > minSquare) { // beta² could lift a subnormal s2 into range
		return false, false
	}
	return exceedsSq(cc.Dist2(t.A), beta*beta*s2)
}

// longestEdgeExceedsSq is the squared-length form of LongestEdge() > h.
func (t Triangle) longestEdgeExceedsSq(h float64) (exceeds, certain bool) {
	if !(h > 0) {
		return false, false
	}
	ab, bc, ca := t.edgeLengths2()
	return exceedsSq(max(ab, bc, ca), h*h)
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

// LongestEdgeExceeds reports whether t.LongestEdge() > h, by the same
// squared comparison with LongestEdge as the fallback.
func (t Triangle) LongestEdgeExceeds(h float64) bool {
	if exceeds, certain := t.longestEdgeExceedsSq(h); certain {
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

// OffCenter computes the off-center Steiner point of Üngör for the triangle,
// a point on the segment from the circumcenter toward the midpoint of the
// shortest edge, such that inserting it still removes the poor triangle but
// creates a new triangle of acceptable quality more often than the plain
// circumcenter. beta is the quality bound in use. The second return value is
// false for degenerate triangles.
func (t Triangle) OffCenter(beta float64) (Point, bool) {
	cc, ok := t.Circumcenter()
	if !ok {
		return Point{}, false
	}
	// Identify the shortest edge (p, q).
	p, q := t.A, t.B
	best := t.A.Dist2(t.B)
	if d := t.B.Dist2(t.C); d < best {
		best, p, q = d, t.B, t.C
	}
	if d := t.C.Dist2(t.A); d < best {
		p, q = t.C, t.A
	}
	m := p.Mid(q)
	l := p.Dist(q)
	// The off-center sits on segment (m, cc) at distance from m such that
	// the new triangle (p, q, off) has radius-edge ratio exactly beta.
	dm := m.Dist(cc)
	if dm == 0 {
		return cc, true
	}
	// Height h above the midpoint for which ratio == beta:
	// r = (h^2 + (l/2)^2) / (2h), require r / l == beta.
	// => h = beta*l + sqrt((beta*l)^2 - (l/2)^2) (take the root <= dm).
	bl := beta * l
	disc := bl*bl - l*l/4
	if disc < 0 {
		return cc, true
	}
	h := bl + math.Sqrt(disc)
	if h >= dm {
		return cc, true // circumcenter is already close enough
	}
	dir := cc.Sub(m).Scale(1 / dm)
	return m.Add(dir.Scale(h)), true
}
