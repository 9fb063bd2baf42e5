package mesh_test

import (
	"bytes"
	"cmp"
	"math"
	"testing"

	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/workload"
)

// TestSortKeyOrdersAsCompare checks the integer keys the digest sorts by
// against the float order they stand for.
func TestSortKeyOrdersAsCompare(t *testing.T) {
	vals := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
		math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0.5, 1, math.Nextafter(1, 2), math.MaxFloat64, math.Inf(1)}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := cmp.Compare(mesh.SortKey(a), mesh.SortKey(b)), cmp.Compare(a, b); got != want {
				t.Errorf("keys of %v and %v compare %d, the floats %d", a, b, got, want)
			}
		}
	}
}

// digestShapes are the inputs the digest is timed on: two refined blocks of
// the sizes the benchmark workloads digest, and three that defeat a
// bucketing — every vertex on one x, every triangle on one lowest vertex, an
// x range stretched by outliers until the mesh proper shares one bucket.
func digestShapes(tb testing.TB) []struct {
	name string
	blob []byte
} {
	refined := func(target int) []byte {
		blob, err := workload.RefinedBlock(target)
		if err != nil {
			tb.Fatal(err)
		}
		return blob
	}
	const n = 4096
	noSuper := [3]mesh.VertexID{mesh.NoVertex, mesh.NoVertex, mesh.NoVertex}
	column, strip := make([]geom.Point, n), make([][3]mesh.VertexID, n-2)
	for i := range column {
		column[i] = geom.Pt(0.5, float64((i*7919)%n))
	}
	for i := range strip {
		strip[i] = [3]mesh.VertexID{mesh.VertexID(i), mesh.VertexID(i + 1), mesh.VertexID(i + 2)}
	}
	ray, star := make([]geom.Point, n+2), make([][3]mesh.VertexID, n)
	for i := range ray {
		ray[i] = geom.Pt(float64(i), float64(i%3))
	}
	for i := range star {
		star[i] = [3]mesh.VertexID{mesh.VertexID(n - i), 0, mesh.VertexID(n - i + 1)}
	}

	var m mesh.Mesh
	if err := m.DecodeFrom(bytes.NewReader(refined(4000))); err != nil {
		tb.Fatal(err)
	}
	var verts []geom.Point
	for v := 0; v < m.NumVertices(); v++ {
		verts = append(verts, m.Vertex(mesh.VertexID(v)))
	}
	super, k := noSuper, 0
	for v := range m.NumVertices() {
		if m.IsSuper(mesh.VertexID(v)) {
			super[k] = mesh.VertexID(v)
			k++
		}
	}
	var tris [][3]mesh.VertexID
	m.ForEachTri(func(_ mesh.TriID, t mesh.Tri) { tris = append(tris, t.V) })
	for _, x := range []float64{1e300, -1e300} {
		verts = append(verts, geom.Pt(x, 0.5))
		tris = append(tris, [3]mesh.VertexID{mesh.VertexID(len(verts) - 1), 3, 4})
	}

	return []struct {
		name string
		blob []byte
	}{
		{"refined-6k", refined(6000)},
		{"refined-4k", refined(4000)},
		{"one-column", mesh.EncodeRaw(column, noSuper, strip)},
		{"star", mesh.EncodeRaw(ray, noSuper, star)},
		{"outliers", mesh.EncodeRaw(verts, super, tris)},
	}
}

var digestSink []byte

func BenchmarkCanonicalDigest(b *testing.B) {
	for _, s := range digestShapes(b) {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(s.blob)))
			for i := 0; i < b.N; i++ {
				var err error
				if digestSink, err = mesh.CanonicalDigest(s.blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCanonicalDigestAllocs holds the digest to what it returns and what
// the hash needs: once the pooled scratch has grown to the block, nothing
// is allocated per vertex or per triangle, on the fallback paths either.
func TestCanonicalDigestAllocs(t *testing.T) {
	if mesh.RaceEnabled {
		t.Skip("the race detector empties sync.Pool at random")
	}
	for _, s := range digestShapes(t) {
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if digestSink, err = mesh.CanonicalDigest(s.blob); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s: %.1f allocations a digest, want the sum and the hash state at most", s.name, allocs)
		}
	}
}
