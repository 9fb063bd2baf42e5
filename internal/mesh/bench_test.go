package mesh

import (
	"bytes"
	"math/rand"
	"testing"

	"mrts/internal/geom"
)

// BenchmarkInsertPoint inserts along a short random walk with the last
// triangle as the location hint, as refinement does.
func BenchmarkInsertPoint(b *testing.B) {
	m := buildRandom(b, 20000, 1)
	rng := rand.New(rand.NewSource(2))
	at, hint := geom.Pt(0.5, 0.5), NoTri
	clamp := func(x float64) float64 { return min(0.999, max(0.001, x)) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = geom.Pt(clamp(at.X+(rng.Float64()-0.5)*0.02), clamp(at.Y+(rng.Float64()-0.5)*0.02))
		v, err := m.InsertPoint(at, hint)
		if err != nil && err != ErrDuplicate {
			b.Fatal(err)
		}
		hint = m.IncidentTri(v)
	}
}

// benchBlob is the encoding of a carved square of about 40 000 triangles.
func benchBlob(b *testing.B) (*Mesh, []byte) {
	m := carveSquare(b, 20000, 3)
	var buf bytes.Buffer
	if err := m.EncodeTo(&buf); err != nil {
		b.Fatal(err)
	}
	return m, buf.Bytes()
}

func BenchmarkEncode(b *testing.B) {
	m, blob := benchBlob(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := m.EncodeTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	_, blob := benchBlob(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m Mesh
		if err := m.DecodeFrom(bytes.NewReader(blob)); err != nil {
			b.Fatal(err)
		}
	}
}
