package delaunay

import "mrts/internal/geom"

// radialField is the radial field of the NUPDR builds,
// h(p) = scale·(1 + (grading−1)·|p−center|/dmax), judged as meshgen's
// sizeParams judges it: geom.RadialFilter where that is certain, and the
// exact form, which is also the oracle's, where it is not. The kernel's
// benchmarks refine their graded leaf under it, as the benchmark workloads
// refine theirs.
type radialField struct {
	scale, grading float64
	center         geom.Point
	dmax           float64
	filter         geom.RadialFilter
}

func newRadialField(scale, grading float64, center geom.Point, dmax float64) radialField {
	return radialField{scale, grading, center, dmax, geom.NewRadialFilter(scale, grading, dmax)}
}

// At is the field's target length at p.
func (f radialField) At(p geom.Point) float64 {
	return f.scale * (1 + (f.grading-1)*(p.Dist(f.center)/f.dmax))
}

// Certain reports whether the filter decides tr's size verdict.
func (f radialField) Certain(tr geom.Triangle) bool {
	ab, bc, ca := tr.EdgeLengths2()
	_, certain := f.filter.Exceeds(max(ab, bc, ca), tr.Centroid().Sub(f.center))
	return certain
}

func (f radialField) Exceeds(tr geom.Triangle, ab, bc, ca float64) bool {
	c := geom.Pt((tr.A.X+tr.B.X+tr.C.X)/3, (tr.A.Y+tr.B.Y+tr.C.Y)/3)
	if exceeds, certain := f.filter.Exceeds(max(ab, bc, ca), c.Sub(f.center)); certain {
		return exceeds
	}
	h := f.At(c)
	return h > 0 && tr.LongestEdgeExceeds(h, ab, bc, ca)
}

// Moved is the field with its centre moved by off.
func (f radialField) Moved(off geom.Point) radialField {
	return newRadialField(f.scale, f.grading, geom.Pt(f.center.X+off.X, f.center.Y+off.Y), f.dmax)
}
