package delaunay

import "testing"

// BenchmarkRefineBlock builds and refines one block of about 10 000
// elements, the unit of work of the block methods, and reports elements per
// second and allocations.
func BenchmarkRefineBlock(b *testing.B) {
	b.ReportAllocs()
	elems := 0
	for i := 0; i < b.N; i++ {
		m, _, err := BuildCDT(squarePSLG())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Refine(m, Options{MaxArea: 1.0 / 6000}); err != nil {
			b.Fatal(err)
		}
		elems += m.NumTriangles()
	}
	b.ReportMetric(float64(elems)/b.Elapsed().Seconds(), "elems/s")
}
