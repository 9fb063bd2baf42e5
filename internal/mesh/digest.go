package mesh

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"

	"mrts/internal/geom"
)

// digestScratch is the working storage of one CanonicalDigest, kept in the
// pooled decodeScratch: the out-of-core methods digest every block.
type digestScratch struct {
	sec   sections
	order []VertexID // vertices sorted by coordinates
	rank  []uint32   // per vertex: its place among the distinct points
	keys  []digestTri
}

// digestTri is one triangle of the canonical form: its vertices in
// coordinate order and, for sorting the list, their ranks.
type digestTri struct {
	rank [3]uint32
	v    [3]VertexID
}

// comparePoints orders points by (x, y) the way slices.Compare orders their
// coordinates: -0 equals +0, and NaN sorts first and equals NaN.
func comparePoints(p, q geom.Point) int {
	if c := cmp.Compare(p.X, q.X); c != 0 {
		return c
	}
	return cmp.Compare(p.Y, q.Y)
}

// CanonicalDigest digests an encoded mesh by geometry, not by encoding: the
// SHA-256 of its triangles that touch no super vertex, each as its three
// vertex coordinates in (x, y) order, the list itself sorted — so two
// encodings of the same triangulation digest alike however their vertices
// and triangles are numbered. It fails exactly when DecodeFrom would.
//
// The encoding is read, not decoded into a Mesh: no adjacency, flags or
// constraint set is built. Every distinct point is ranked once, so the list
// is sorted by integer rank triples instead of by six floats a triangle;
// ranks are 32-bit and counts are bounded by maxDecodeElems, so no input is
// too large for them.
func CanonicalDigest(data []byte) ([]byte, error) {
	s := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(s)
	d := &s.digest
	if err := s.readSections(bytes.NewReader(data), &d.sec, false); err != nil {
		return nil, err
	}
	verts, super := d.sec.verts, d.sec.super

	d.order = slices.Grow(d.order[:0], len(verts))[:len(verts)]
	for v := range d.order {
		d.order[v] = VertexID(v)
	}
	slices.SortFunc(d.order, func(a, b VertexID) int { return comparePoints(verts[a], verts[b]) })
	d.rank = slices.Grow(d.rank[:0], len(verts))[:len(verts)]
	for i, v := range d.order {
		switch {
		case i == 0:
			d.rank[v] = 0
		case comparePoints(verts[d.order[i-1]], verts[v]) == 0:
			d.rank[v] = d.rank[d.order[i-1]] // equal points share a rank
		default:
			d.rank[v] = d.rank[d.order[i-1]] + 1
		}
	}

	// The coordinate order inside a triangle is by plain float comparison,
	// which leaves points that compare equal (or unordered) where they were.
	before := func(a, b VertexID) bool {
		p, q := verts[a], verts[b]
		return p.X < q.X || (p.X == q.X && p.Y < q.Y)
	}
	isSuper := func(v VertexID) bool { return v == super[0] || v == super[1] || v == super[2] }
	d.keys = d.keys[:0]
	for i := range d.sec.tris {
		v := d.sec.tris[i].V
		if isSuper(v[0]) || isSuper(v[1]) || isSuper(v[2]) {
			continue
		}
		if before(v[1], v[0]) {
			v[0], v[1] = v[1], v[0]
		}
		if before(v[2], v[1]) {
			v[1], v[2] = v[2], v[1]
		}
		if before(v[1], v[0]) {
			v[0], v[1] = v[1], v[0]
		}
		d.keys = append(d.keys, digestTri{
			rank: [3]uint32{d.rank[v[0]], d.rank[v[1]], d.rank[v[2]]}, v: v})
	}
	slices.SortFunc(d.keys, func(a, b digestTri) int {
		for k := range a.rank {
			if a.rank[k] != b.rank[k] {
				return cmp.Compare(a.rank[k], b.rank[k])
			}
		}
		return 0
	})

	// The hash is fed through the read buffer, now idle, a few hundred
	// triangles at a time.
	h := sha256.New()
	out := s.buf[:0]
	for _, t := range d.keys {
		if len(out)+48 > cap(out) {
			h.Write(out)
			out = out[:0]
		}
		for _, v := range t.v {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(verts[v].X))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(verts[v].Y))
		}
	}
	h.Write(out)
	return h.Sum(nil), nil
}
