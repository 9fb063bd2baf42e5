package delaunay

import (
	"math"
	"testing"

	"mrts/internal/geom"
	"mrts/internal/mesh"
)

// BenchmarkRefineBlock builds and refines one block of about 10 000
// elements, the unit of work of the block methods, and reports elements per
// second and allocations.
func BenchmarkRefineBlock(b *testing.B) {
	benchRefine(b, squarePSLG(), Options{MaxArea: 1.0 / 6000})
}

// BenchmarkRefineLeaf does the same for a leaf of the graded methods: the
// radial size field instead of an area bound, and frozen sides.
func BenchmarkRefineLeaf(b *testing.B) {
	p, opts := gradedLeaf()
	benchRefine(b, p, opts)
}

func benchRefine(b *testing.B, p *PSLG, opts Options) {
	b.ReportAllocs()
	elems := 0
	for i := 0; i < b.N; i++ {
		m, _, err := BuildCDT(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Refine(m, opts); err != nil {
			b.Fatal(err)
		}
		elems += m.NumTriangles()
	}
	b.ReportMetric(float64(elems)/b.Elapsed().Seconds(), "elems/s")
}

// gradedLeaf returns a leaf as ONUPDR and OPCDM refine them: a square cell
// off the centre of the unit domain, its sides cut at the local size and
// frozen, under the radial size field of the NUPDR builds, judged as the
// workloads judge it (radialField), growing with the distance from the
// domain's centre. Refined, it holds about 10 000 triangles.
func gradedLeaf() (*PSLG, Options) {
	size := newRadialField(0.0021, 6, geom.Pt(0.5, 0.5), math.Sqrt2/2)
	corners := []geom.Point{geom.Pt(0.55, 0.55), geom.Pt(0.8, 0.55), geom.Pt(0.8, 0.8), geom.Pt(0.55, 0.8)}
	p := &PSLG{}
	for s, a := range corners {
		b := corners[(s+1)%4]
		n := int(math.Ceil(a.Dist(b) / size.At(a.Mid(b))))
		for k := 0; k < n; k++ {
			f := float64(k) / float64(n)
			p.Points = append(p.Points, geom.Pt(a.X+(b.X-a.X)*f, a.Y+(b.Y-a.Y)*f))
		}
	}
	for i := range p.Points {
		p.Segments = append(p.Segments, [2]int{i, (i + 1) % len(p.Points)})
	}
	return p, Options{Size: size, NoSegmentSplit: true}
}

var isBadSink int

// BenchmarkIsBad judges every triangle of a refined leaf, none of which is
// bad, so that each call runs the quality test and the size test to the end.
func BenchmarkIsBad(b *testing.B) {
	p, opts := gradedLeaf()
	m, _, err := BuildCDT(p)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Refine(m, opts); err != nil {
		b.Fatal(err)
	}
	r := &refiner{m: m, opts: opts, beta: opts.qualityBound()}
	var ids []mesh.TriID
	m.ForEachTri(func(t mesh.TriID, _ mesh.Tri) { ids = append(ids, t) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bad, _, _ := r.isBad(ids[i%len(ids)]); bad {
			isBadSink++
		}
	}
}
