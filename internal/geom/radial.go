package geom

import "math"

// RadialFilter's bounds (DESIGN.md, "The size test without Hypot"). It
// answers only when the squared longest edge and h̃² differ by more than
// radialBand relative, both in [minSquare, maxSquare]; and it is built only
// for a scale and a dmax in [radialMin, radialMax] and a grading whose
// excess over 1 is in [0, radialMax], so that neither form's h overflows or
// loses precision to underflow on its way there.
const (
	radialBand = 0x1p-30
	radialMin  = 0x1p-200
	radialMax  = 0x1p200
)

// A RadialFilter certifies the size verdict "longest edge > h(p)" for the
// radially graded field h(p) = scale·(1 + (grading−1)·|p−c|/dmax) without
// Hypot and without a division: it compares the squared longest edge
// against h̃² = (scale + k·sqrt(dx² + dy²))², with k = scale·(grading−1)/dmax
// formed once. The zero RadialFilter declines every verdict.
type RadialFilter struct{ scale, k float64 }

// NewRadialFilter returns the filter of the field with these parameters, or
// the zero filter when they are out of its range.
func NewRadialFilter(scale, grading, dmax float64) RadialFilter {
	g := grading - 1
	if !(scale >= radialMin && scale <= radialMax && dmax >= radialMin && dmax <= radialMax &&
		g >= 0 && g <= radialMax) {
		return RadialFilter{}
	}
	return RadialFilter{scale: scale, k: scale * g / dmax}
}

// Exceeds reports whether longest2, the squared longest edge of a triangle
// as EdgeLengths2 gives it, exceeds h(p)², given d = p − c, and whether that
// verdict is certain to be the exact form's: h(p) computed through
// Point.Dist from the same d, then LongestEdgeExceeds(h, …). false means
// only "not certain": the caller takes the exact form.
func (f RadialFilter) Exceeds(longest2 float64, d Point) (exceeds, certain bool) {
	h := f.scale + f.k*math.Sqrt(d.X*d.X+d.Y*d.Y)
	h2 := h * h
	if !(longest2 > minSquare && h2 > minSquare && longest2 < maxSquare && h2 < maxSquare) {
		return false, false
	}
	slack := radialBand * h2
	return longest2 > h2, longest2 > h2+slack || longest2 < h2-slack
}
