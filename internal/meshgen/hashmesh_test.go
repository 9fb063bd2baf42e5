package meshgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mrts/internal/geom"
	"mrts/internal/mesh"
)

// oracleHashMesh is hashMesh as it was before mesh.CanonicalDigest, kept as
// the reference the digest must reproduce byte for byte: decode the mesh in
// full, list its live non-super triangles as six sorted floats each, sort the
// list with slices.Compare, and hash it eight bytes at a time.
func oracleHashMesh(data []byte) []byte {
	m := mesh.New()
	if err := m.DecodeFrom(bytes.NewReader(data)); err != nil {
		h := sha256.Sum256(append([]byte("undecodable:"), data...))
		return h[:]
	}
	type point [2]float64
	less := func(p, q point) bool { return p[0] < q[0] || (p[0] == q[0] && p[1] < q[1]) }
	tris := make([][6]float64, 0, m.NumTriangles())
	m.ForEachTri(func(t mesh.TriID, _ mesh.Tri) {
		if m.HasSuperVertex(t) {
			return
		}
		g := m.Triangle(t)
		p0, p1, p2 := point{g.A.X, g.A.Y}, point{g.B.X, g.B.Y}, point{g.C.X, g.C.Y}
		if less(p1, p0) {
			p0, p1 = p1, p0
		}
		if less(p2, p1) {
			p1, p2 = p2, p1
		}
		if less(p1, p0) {
			p0, p1 = p1, p0
		}
		tris = append(tris, [6]float64{p0[0], p0[1], p1[0], p1[1], p2[0], p2[1]})
	})
	slices.SortFunc(tris, func(a, b [6]float64) int { return slices.Compare(a[:], b[:]) })
	h := sha256.New()
	var b [8]byte
	for _, tr := range tris {
		for _, v := range tr {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum(nil)
}

// rawEncoding writes the mesh wire format directly, so that the property
// test can feed the digest inputs no Mesh would produce but DecodeFrom
// accepts: duplicate and unordered points, repeated or degenerate triangles,
// arbitrary super vertex ids.
func rawEncoding(verts []geom.Point, super [3]int32, tris [][3]int32, cons [][2]int32) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, 0x4D525453)
	b = le.AppendUint32(b, 1)
	b = le.AppendUint32(b, uint32(len(verts)))
	for _, p := range verts {
		b = le.AppendUint64(b, math.Float64bits(p.X))
		b = le.AppendUint64(b, math.Float64bits(p.Y))
	}
	for _, s := range super {
		b = le.AppendUint32(b, uint32(s))
	}
	b = le.AppendUint32(b, uint32(len(tris)))
	for _, t := range tris {
		for _, v := range t {
			b = le.AppendUint32(b, uint32(v))
		}
	}
	b = le.AppendUint32(b, uint32(len(cons)))
	for _, c := range cons {
		b = le.AppendUint32(b, uint32(c[0]))
		b = le.AppendUint32(b, uint32(c[1]))
	}
	return b
}

func sameDigest(t *testing.T, what string, data []byte) {
	t.Helper()
	if got, want := hashMesh(data), oracleHashMesh(data); !bytes.Equal(got, want) {
		t.Fatalf("%s: hashMesh = %x, oracle %x", what, got, want)
	}
}

// TestHashMeshMatchesOracle requires the digest to equal the full-decode
// reference on refined blocks, on adversarial encodings — coordinates drawn
// from a handful of values so that equal points, -0 against +0 and NaN all
// meet in one triangle list — and on blobs both must reject.
func TestHashMeshMatchesOracle(t *testing.T) {
	t.Run("refined blocks", func(t *testing.T) {
		for _, h := range []float64{0.2, 0.07, 0.03} {
			bm, err := meshBlock(geom.NewRect(geom.Pt(0.25, 0.5), geom.Pt(0.5, 0.75)), h, math.Sqrt2)
			if err != nil {
				t.Fatal(err)
			}
			var enc bytes.Buffer
			if err := bm.mesh.EncodeTo(&enc); err != nil {
				t.Fatal(err)
			}
			sameDigest(t, "refined block", enc.Bytes())
			// The encoding may be followed by other data; both read only
			// their own bytes.
			sameDigest(t, "trailing bytes", append(enc.Bytes(), "tail"...))
		}
	})

	t.Run("adversarial encodings", func(t *testing.T) {
		coords := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, math.NaN(), math.Inf(1), math.Inf(-1),
			math.Float64frombits(0x7ff8000000000001)} // a second NaN payload
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 300; trial++ {
			nv := 1 + rng.Intn(12)
			verts := make([]geom.Point, nv)
			for i := range verts {
				verts[i] = geom.Pt(coords[rng.Intn(len(coords))], coords[rng.Intn(len(coords))])
			}
			var super [3]int32
			for i := range super {
				super[i] = int32(rng.Intn(nv+3)) - 2 // -2 … nv: absent, real, and out of range
			}
			tris := make([][3]int32, rng.Intn(40))
			for i := range tris {
				for k := range tris[i] {
					tris[i][k] = int32(rng.Intn(nv))
				}
			}
			cons := make([][2]int32, rng.Intn(4))
			for i := range cons {
				cons[i] = [2]int32{int32(rng.Intn(nv+2)) - 1, int32(rng.Intn(nv+2)) - 1}
			}
			sameDigest(t, "adversarial encoding", rawEncoding(verts, super, tris, cons))
		}
	})

	t.Run("rejected blobs", func(t *testing.T) {
		good := rawEncoding(
			[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 1)},
			[3]int32{-1, -1, -1}, [][3]int32{{0, 1, 2}, {1, 3, 2}}, [][2]int32{{0, 1}})
		sameDigest(t, "well-formed", good)
		undecodable := func(data []byte) []byte {
			h := sha256.Sum256(append([]byte("undecodable:"), data...))
			return h[:]
		}
		// Every truncation loses part of a section DecodeFrom reads — the
		// constraint section, which the digest ignores, included.
		for n := 0; n < len(good); n++ {
			sameDigest(t, "truncated", good[:n])
			if !bytes.Equal(hashMesh(good[:n]), undecodable(good[:n])) {
				t.Fatalf("blob truncated to %d of %d bytes was digested as a mesh", n, len(good))
			}
		}
		// Every u32 in turn blown up: bad magic, bad version, counts over
		// the bound or past the data, vertex references out of range.
		for off := 0; off+4 <= len(good); off += 4 {
			mut := bytes.Clone(good)
			binary.LittleEndian.PutUint32(mut[off:], 0xFFFFFFF0)
			sameDigest(t, "corrupted", mut)
		}
	})
}

// TestHashMeshBeyondPackedKeyRange digests a mesh with more than 2²¹ distinct
// points, the most three ranks packed into one 64-bit sort key could tell
// apart: triangles that differ only in such high-ranked points must still
// sort by them.
func TestHashMeshBeyondPackedKeyRange(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 2M-vertex mesh")
	}
	const nv = 1<<21 + 8
	verts := make([]geom.Point, nv)
	for i := range verts {
		verts[i] = geom.Pt(float64(i), 0) // rank i
	}
	// Encoded out of order, and apart only in ranks that agree in their low
	// 21 bits with those of a lower-ranked point.
	tris := [][3]int32{
		{0, 1, nv - 1}, {0, 1, nv - 1 - 1<<21}, {0, 1, nv - 2}, {0, 1, nv - 2 - 1<<21},
		{nv - 3, nv - 2, nv - 1}, {5, 6, 7},
	}
	sameDigest(t, "2M vertices", rawEncoding(verts, [3]int32{-1, -1, -1}, tris, nil))
}

var hashSink []byte

// BenchmarkHashMesh digests one block of the benchmark's oupdr-ooc shape
// (about 6 000 triangles, 120 KB encoded).
func BenchmarkHashMesh(b *testing.B) {
	bm, err := meshBlock(geom.NewRect(geom.Pt(0, 0), geom.Pt(1.0/16, 1.0/16)), 0.0015, math.Sqrt2)
	if err != nil {
		b.Fatal(err)
	}
	var enc bytes.Buffer
	if err := bm.mesh.EncodeTo(&enc); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(enc.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = hashMesh(enc.Bytes())
	}
	b.ReportMetric(float64(bm.mesh.NumTriangles()), "triangles")
}
