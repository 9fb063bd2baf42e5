package delaunay_test

import (
	"fmt"
	"math"
	"testing"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/workload"
)

// isBadOracle is the refiner's verdict as it was written before the
// squared-length predicates: radius-edge ratio, then area, then size field,
// each through a square root.
func isBadOracle(tr geom.Triangle, o delaunay.Options) bool {
	beta := o.QualityBound
	if beta == 0 {
		beta = delaunay.DefaultQualityBound
	}
	if tr.Quality() > beta {
		return true
	}
	if o.MaxArea > 0 && tr.Area() > o.MaxArea {
		return true
	}
	if o.Size != nil {
		if h := sizeAt(o.Size)(tr.Centroid()); h > 0 && tr.LongestEdge() > h {
			return true
		}
	}
	return false
}

// sizeAt is the target length of a size field of these tests, as the
// oracle evaluates it.
func sizeAt(f delaunay.SizeField) func(geom.Point) float64 {
	switch f := f.(type) {
	case delaunay.SizeFunc:
		return f
	case radialField:
		return f.at
	}
	panic(fmt.Sprintf("no oracle for size field %T", f))
}

// radialField is the radial field of the NUPDR builds, judged as meshgen's
// sizeParams judges it: geom.RadialFilter where that is certain, and the
// exact form, which is also the oracle's, where it is not.
type radialField struct {
	scale, grading float64
	center         geom.Point
	dmax           float64
	filter         geom.RadialFilter
}

func newRadialField(scale, grading float64, center geom.Point, dmax float64) radialField {
	return radialField{scale, grading, center, dmax, geom.NewRadialFilter(scale, grading, dmax)}
}

func (f radialField) at(p geom.Point) float64 {
	return f.scale * (1 + (f.grading-1)*(p.Dist(f.center)/f.dmax))
}

// certain reports whether the filter decides tr's size verdict.
func (f radialField) certain(tr geom.Triangle) bool {
	ab, bc, ca := tr.EdgeLengths2()
	_, certain := f.filter.Exceeds(max(ab, bc, ca), tr.Centroid().Sub(f.center))
	return certain
}

func (f radialField) Exceeds(tr geom.Triangle, ab, bc, ca float64) bool {
	c := tr.Centroid()
	if exceeds, certain := f.filter.Exceeds(max(ab, bc, ca), c.Sub(f.center)); certain {
		return exceeds
	}
	h := f.at(c)
	return h > 0 && tr.LongestEdgeExceeds(h, ab, bc, ca)
}

// translated returns p, which has no holes, and opts moved by off: the
// points and the size field, so that the same refinement runs far from the
// origin.
func translated(p *delaunay.PSLG, opts delaunay.Options, off geom.Point) (*delaunay.PSLG, delaunay.Options) {
	q := &delaunay.PSLG{Segments: p.Segments}
	for _, pt := range p.Points {
		q.Points = append(q.Points, pt.Add(off))
	}
	switch f := opts.Size.(type) {
	case delaunay.SizeFunc:
		opts.Size = delaunay.SizeFunc(func(pt geom.Point) float64 { return f(pt.Sub(off)) })
	case radialField:
		opts.Size = newRadialField(f.scale, f.grading, f.center.Add(off), f.dmax)
	}
	return q, opts
}

// TestIsBadDecisionsMatchOracle refines the golden inputs, one graded leaf
// with frozen sides, and that leaf and a uniform block moved so far from the
// origin that |A|/R, the distance of a judged triangle's first corner from
// the origin in circumradii, reaches about 10⁶; and the graded leaf under
// the NUPDR builds' radial field, near the origin and moved as far. It
// checks every verdict the refiner reaches against the oracle as it reaches
// it: the kernel may get cheaper, but it may not decide one triangle
// differently. It also counts the verdicts geom.QualityWithin leaves to the
// circumcenter path, and requires the filter to have answered in every run;
// and, under the radial field, it requires geom.RadialFilter to have
// decided at least 99 % of the size verdicts.
func TestIsBadDecisionsMatchOracle(t *testing.T) {
	cases := goldenCases()
	leaf, leafOpts := delaunay.GradedLeaf()
	cases = append(cases, goldenCase{name: "graded-leaf", pslg: leaf, opts: leafOpts})
	farLeaf, farLeafOpts := translated(leaf, leafOpts, geom.Pt(4096, -3072))
	cases = append(cases, goldenCase{name: "graded-leaf-far", pslg: farLeaf, opts: farLeafOpts})
	farBlock, farBlockOpts := translated(workload.UnitSquare(), delaunay.Options{MaxArea: 1.0 / 6000}, geom.Pt(1e4, 1e4))
	cases = append(cases, goldenCase{name: "block-far", pslg: farBlock, opts: farBlockOpts})
	radialOpts := leafOpts
	radialOpts.Size = newRadialField(0.0021, 6, geom.Pt(0.5, 0.5), math.Sqrt2/2)
	cases = append(cases, goldenCase{name: "radial-leaf", pslg: leaf, opts: radialOpts})
	farRadial, farRadialOpts := translated(leaf, radialOpts, geom.Pt(4096, -3072))
	cases = append(cases, goldenCase{name: "radial-leaf-far", pslg: farRadial, opts: farRadialOpts})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			beta := c.opts.QualityBound
			if beta == 0 {
				beta = delaunay.DefaultQualityBound
			}
			radial, isRadial := c.opts.Size.(radialField)
			m, _, err := delaunay.BuildCDT(c.pslg)
			if err != nil {
				t.Fatal(err)
			}
			judged, bad, fallbacks, far := 0, 0, 0, 0.0
			sized, certified := 0, 0
			_, err = delaunay.RefineAudited(m, c.opts, func(tr geom.Triangle, got bool) {
				judged++
				if got {
					bad++
				}
				if ab, bc, ca := tr.EdgeLengths2(); !tr.QualityWithin(beta, ab, bc, ca) {
					fallbacks++
				}
				far = max(far, math.Hypot(tr.A.X, tr.A.Y)/tr.Circumradius())
				if isRadial && !(tr.Quality() > beta) { // the size test ran
					sized++
					if radial.certain(tr) {
						certified++
					}
				}
				if want := isBadOracle(tr, c.opts); got != want {
					t.Fatalf("verdict %d on %v: isBad = %v, oracle = %v", judged, tr, got, want)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if bad == 0 || bad == judged {
				t.Fatalf("%d verdicts, %d of them bad: the run did not exercise both", judged, bad)
			}
			if fallbacks == judged {
				t.Fatalf("QualityWithin answered none of %d verdicts", judged)
			}
			t.Logf("%d verdicts, %d bad, %d (%.1f %%) on the circumcenter path, |A|/R up to %.3g, %d triangles",
				judged, bad, fallbacks, 100*float64(fallbacks)/float64(judged), far, m.NumTriangles())
			if isRadial {
				if sized == 0 || float64(certified) < 0.99*float64(sized) {
					t.Fatalf("RadialFilter decided %d of %d size verdicts, want at least 99 %%", certified, sized)
				}
				t.Logf("RadialFilter decided %d of %d size verdicts", certified, sized)
			}
		})
	}
}
