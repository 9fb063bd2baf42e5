package delaunay_test

import (
	"testing"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
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
	if o.SizeFunc != nil {
		if h := o.SizeFunc(tr.Centroid()); h > 0 && tr.LongestEdge() > h {
			return true
		}
	}
	return false
}

// TestIsBadDecisionsMatchOracle refines the golden inputs and one graded
// leaf with frozen sides, checking every verdict the refiner reaches against
// the oracle as it reaches it: the kernel may get cheaper, but it may not
// decide one triangle differently.
func TestIsBadDecisionsMatchOracle(t *testing.T) {
	cases := goldenCases()
	leaf, leafOpts := delaunay.GradedLeaf()
	cases = append(cases, goldenCase{name: "graded-leaf", pslg: leaf, opts: leafOpts})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, _, err := delaunay.BuildCDT(c.pslg)
			if err != nil {
				t.Fatal(err)
			}
			judged, bad := 0, 0
			_, err = delaunay.RefineAudited(m, c.opts, func(tr geom.Triangle, got bool) {
				judged++
				if got {
					bad++
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
			t.Logf("%d verdicts, %d bad, %d triangles", judged, bad, m.NumTriangles())
		})
	}
}
