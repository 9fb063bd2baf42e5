package meshgen

import (
	"testing"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/workload"
)

// oupdrBlock is the block oupdr-ooc meshes: a 1/16 side of the unit square,
// at the spacing of a 1.5 M element target, so that its sides carry the
// workload's 168 boundary points. The rectangle is an interior one.
func oupdrBlock(b *testing.B) (r geom.Rect, h float64, p *delaunay.PSLG) {
	h = workload.UniformSizeFor(1_500_000, 1)
	r = blockRect(16, 5, 7)
	p = &delaunay.PSLG{Points: boundaryPoints(r, h)}
	for i := range p.Points {
		p.Segments = append(p.Segments, [2]int{i, (i + 1) % len(p.Points)})
	}
	if len(p.Points) != 168 {
		b.Fatalf("the block has %d boundary points, want 168", len(p.Points))
	}
	return r, h, p
}

// BenchmarkBlockCDT builds the constrained Delaunay triangulation of
// oupdr-ooc's block boundary, the set-up meshBlock does before refining.
func BenchmarkBlockCDT(b *testing.B) {
	_, _, p := oupdrBlock(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := delaunay.BuildCDT(p)
		if err != nil {
			b.Fatal(err)
		}
		m.Recycle()
	}
}

// BenchmarkMeshBlock meshes oupdr-ooc's block whole, set-up and
// refinement, as the block handler does before it encodes the mesh.
func BenchmarkMeshBlock(b *testing.B) {
	r, h, _ := oupdrBlock(b)
	b.ReportAllocs()
	b.ResetTimer()
	elems := 0
	for i := 0; i < b.N; i++ {
		bm, err := meshBlock(r, h, 0)
		if err != nil {
			b.Fatal(err)
		}
		elems += bm.mesh.NumTriangles()
		bm.mesh.Recycle()
	}
	b.ReportMetric(float64(elems)/b.Elapsed().Seconds(), "elems/s")
}
