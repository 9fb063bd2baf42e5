package mesh_test

import (
	"bytes"
	"testing"

	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/workload"
)

// TestDecodeRejectsOutOfRangeReferences: every vertex ID an encoding names —
// super vertex, triangle corner, constraint endpoint — must name one of its
// vertices, or the decoded mesh indexes past its vertex list later. The
// first blob (56 bytes: no vertices, no triangles, three constraints on
// vertex 0x30303030) used to decode, and Validate then panicked on it.
func TestDecodeRejectsOutOfRangeReferences(t *testing.T) {
	const far = mesh.VertexID(0x30303030)
	none := [3]mesh.VertexID{mesh.NoVertex, mesh.NoVertex, mesh.NoVertex}
	tri := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)}
	corners := [][3]mesh.VertexID{{0, 1, 2}}
	cases := []struct {
		name string
		blob []byte
	}{
		{"constraints without vertices", mesh.EncodeRaw(nil, none, nil, [2]mesh.VertexID{far, 0x30303031},
			[2]mesh.VertexID{far, 0x30303032}, [2]mesh.VertexID{far, 0x30303033})},
		{"constraint endpoint past the vertices", mesh.EncodeRaw(tri, none, corners, [2]mesh.VertexID{0, 1}, [2]mesh.VertexID{1, 3})},
		{"negative constraint endpoint", mesh.EncodeRaw(tri, none, corners, [2]mesh.VertexID{mesh.NoVertex, 0})},
		{"super vertex past the vertices", mesh.EncodeRaw(tri, [3]mesh.VertexID{0, 1, 3}, corners)},
		{"negative super vertex", mesh.EncodeRaw(tri, [3]mesh.VertexID{0, 1, -2}, corners)},
	}
	if n := len(cases[0].blob); n != 56 {
		t.Fatalf("the first blob is %d bytes, want 56", n)
	}
	for _, c := range cases {
		var m mesh.Mesh
		if err := m.DecodeFrom(bytes.NewReader(c.blob)); err == nil {
			t.Errorf("%s: DecodeFrom accepted it", c.name)
		}
		if _, err := mesh.CanonicalDigest(c.blob); err == nil {
			t.Errorf("%s: CanonicalDigest accepted it", c.name)
		}
	}

	// In range, the same shapes decode and validate.
	for _, blob := range [][]byte{
		mesh.EncodeRaw(tri, none, corners, [2]mesh.VertexID{0, 1}, [2]mesh.VertexID{1, 2}),
		mesh.EncodeRaw(tri, [3]mesh.VertexID{0, 1, 2}, corners),
	} {
		var m mesh.Mesh
		if err := m.DecodeFrom(bytes.NewReader(blob)); err != nil {
			t.Fatalf("in-range blob refused: %v", err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("in-range blob: %v", err)
		}
		if _, err := mesh.CanonicalDigest(blob); err != nil {
			t.Fatalf("in-range blob refused by the digest: %v", err)
		}
	}
}

// FuzzDecodeFrom: DecodeFrom never panics, nor does Validate on a mesh it
// accepted, and CanonicalDigest and Canonicalize — the other readers of the
// format — fail exactly when DecodeFrom does. The corpus under testdata/fuzz holds the
// blobs found so far; plain go test replays them. The seeds are small
// refined blocks: the fuzzer minimizes every input that finds new coverage,
// and on a seed of several kilobytes that takes most of a short run.
func FuzzDecodeFrom(f *testing.F) {
	for _, target := range []int{10, 50} {
		blob, err := workload.RefinedBlock(target)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)-3])
	}
	f.Add(mesh.EncodeRaw(nil, [3]mesh.VertexID{mesh.NoVertex, mesh.NoVertex, mesh.NoVertex}, nil))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var m mesh.Mesh
		err := m.DecodeFrom(bytes.NewReader(blob))
		_, derr := mesh.CanonicalDigest(blob)
		if (err == nil) != (derr == nil) {
			t.Fatalf("DecodeFrom: %v, CanonicalDigest: %v", err, derr)
		}
		if _, _, cerr := mesh.Canonicalize(blob); (err == nil) != (cerr == nil) {
			t.Fatalf("DecodeFrom: %v, Canonicalize: %v", err, cerr)
		}
		if err == nil {
			_ = m.Validate()
		}
	})
}
