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
// against the float order they stand for, on the finite coordinates the
// decoder lets through (and the infinities, which order as well).
func TestSortKeyOrdersAsCompare(t *testing.T) {
	vals := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
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

// BenchmarkCanonicalDigest times the digest of every shape as encoded and,
// for the refined blocks, in canonical order (the linear pass).
func BenchmarkCanonicalDigest(b *testing.B) {
	run := func(name string, blob []byte) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(blob)))
			for i := 0; i < b.N; i++ {
				var err error
				if digestSink, err = mesh.CanonicalDigest(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, s := range digestShapes(b) {
		run(s.name, s.blob)
	}
	for _, s := range digestShapes(b)[:2] {
		canon, _, err := mesh.Canonicalize(s.blob)
		if err != nil {
			b.Fatal(err)
		}
		run(s.name+"-canonical", canon)
	}
}

// BenchmarkCanonicalize times turning a refined block into its canonical
// encoding: the digest's ranking and sorting, and the writing.
func BenchmarkCanonicalize(b *testing.B) {
	blob := digestShapes(b)[0].blob
	b.ReportAllocs()
	b.SetBytes(int64(len(blob)))
	for i := 0; i < b.N; i++ {
		var err error
		if _, digestSink, err = mesh.Canonicalize(blob); err != nil {
			b.Fatal(err)
		}
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

// TestCanonicalize checks the canonical encoding of every digest shape: it
// decodes to the same triangulation (a refined block still passes
// Validate), digests alike, is in the order the digest's linear pass needs,
// and canonicalizes to itself without a copy.
func TestCanonicalize(t *testing.T) {
	for _, s := range digestShapes(t) {
		canon, digest, err := mesh.Canonicalize(s.blob)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		want, err := mesh.CanonicalDigest(s.blob)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(digest, want) {
			t.Fatalf("%s: Canonicalize digest %x, CanonicalDigest %x", s.name, digest, want)
		}
		if got, _ := mesh.CanonicalDigest(canon); !bytes.Equal(got, want) {
			t.Fatalf("%s: canonical bytes digest %x, the input %x", s.name, got, want)
		}
		if len(canon) != len(s.blob) {
			t.Fatalf("%s: canonical encoding is %d bytes, the input %d", s.name, len(canon), len(s.blob))
		}
		var m, c mesh.Mesh
		if err := m.DecodeFrom(bytes.NewReader(s.blob)); err != nil {
			t.Fatal(err)
		}
		if err := c.DecodeFrom(bytes.NewReader(canon)); err != nil {
			t.Fatalf("%s: canonical bytes do not decode: %v", s.name, err)
		}
		if c.NumVertices() != m.NumVertices() || c.NumTriangles() != m.NumTriangles() {
			t.Fatalf("%s: canonical mesh has %d vertices and %d triangles, the input %d and %d",
				s.name, c.NumVertices(), c.NumTriangles(), m.NumVertices(), m.NumTriangles())
		}
		if m.Validate() == nil {
			if err := c.Validate(); err != nil {
				t.Fatalf("%s: canonical mesh: %v", s.name, err)
			}
		}
		again, digest2, err := mesh.Canonicalize(canon)
		if err != nil || !bytes.Equal(digest2, want) {
			t.Fatalf("%s: canonicalizing again: digest %x, err %v", s.name, digest2, err)
		}
		if len(again) == 0 || &again[0] != &canon[0] {
			t.Fatalf("%s: the canonical bytes were not taken as canonical", s.name)
		}
		// Trailing bytes are not part of the encoding.
		tail := append(bytes.Clone(canon), "tail"...)
		if got, _, _ := mesh.Canonicalize(tail); !bytes.Equal(got, canon) {
			t.Fatalf("%s: canonical bytes with a tail canonicalize to %d bytes, want %d", s.name, len(got), len(canon))
		}
	}
}
