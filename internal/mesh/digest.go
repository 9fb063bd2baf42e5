package mesh

import (
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
	rank  []uint32      // per vertex: noRank, then its bucket, then its rank
	first []uint32      // counting-sort boundaries, of the points and then of the triangles
	pts   []digestPoint // the referenced vertices in point order; a rank indexes it
	tris  []digestTri   // the hashed triangles in encoding order
	keys  []digestTri   // and sorted
}

// digestPoint is one referenced vertex: while the points are being ordered,
// the sort keys of its coordinates; once they are ranked, the coordinates'
// bits, as hashed.
type digestPoint struct {
	x, y uint64
	v    VertexID
}

// digestTri is one triangle of the canonical form: vertex ids as read, then
// their ranks in ascending order.
type digestTri struct{ a, b, c uint32 }

const (
	noRank = ^uint32(0) // vertex of no hashed triangle

	// digestBucketMax is the longest bucket sorted by insertion. The buckets
	// of a mesh hold a handful; a longer one is an input built to fill it,
	// and goes to the library sort so that no input costs quadratic time.
	digestBucketMax = 32
)

// sortKey maps a coordinate to an integer that orders as cmp.Compare orders
// the floats: NaN lowest, then -Inf … +Inf, with -0 equal to +0.
func sortKey(f float64) uint64 {
	if f != f {
		return 0
	}
	b := math.Float64bits(f + 0) // -0 + 0 is +0
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// comparePoints is the digest's total order on points: by x and then y as
// cmp.Compare orders floats (sortKey), and between points that compare equal
// there — -0 against +0, one NaN against another — by the bits of x and then
// of y. Only points with the same bits are equal.
func comparePoints(a, b *digestPoint, verts []geom.Point) int {
	if c := cmp.Or(cmp.Compare(a.x, b.x), cmp.Compare(a.y, b.y)); c != 0 {
		return c
	}
	p, q := verts[a.v], verts[b.v]
	return cmp.Or(cmp.Compare(math.Float64bits(p.X), math.Float64bits(q.X)),
		cmp.Compare(math.Float64bits(p.Y), math.Float64bits(q.Y)))
}

// CanonicalDigest digests an encoded mesh by geometry, not by encoding: the
// SHA-256 of its triangles that touch no super vertex, each as the bits of
// its three vertex coordinates with the vertices in point order, the list
// itself sorted by that order — so two encodings of the same triangulation
// digest alike however their vertices and triangles are numbered. Point
// order is a total order: (x, y) as cmp.Compare orders floats (-0 equals +0,
// NaN sorts first) and, between points equal there, the bits of x and then
// of y. It fails exactly when DecodeFrom would.
//
// The encoding is read in place, not decoded into a Mesh, and nothing as
// long as the vertex or triangle list is sorted by comparison. The vertices
// the hashed triangles reference — not the super-triangle's, which would
// stretch the range — are bucketed on x over the range they span, a bucket
// a vertex, and each bucket sorted; a vertex's rank is its place in that
// order, points with the same bits sharing one. The triangles, as ascending
// rank triples, are bucketed on the lowest rank and each bucket sorted by
// the other two. Ranks are 32-bit and counts are bounded by maxDecodeElems,
// so no input is too large for them.
func CanonicalDigest(data []byte) ([]byte, error) {
	s := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(s)
	d := &s.digest
	if err := readSections(&source{data: data, buf: s.buf[:]}, &d.sec, false); err != nil {
		return nil, err
	}
	d.markReferenced()
	d.rankPoints()
	d.sortTriangles()

	// The hash is fed through the read buffer, idle since the parse, a few
	// hundred triangles at a time.
	h := sha256.New()
	out, n := s.buf[:], 0
	for _, t := range d.keys {
		if n+48 > len(out) {
			h.Write(out[:n])
			n = 0
		}
		for _, r := range [3]uint32{t.a, t.b, t.c} {
			p := &d.pts[r]
			binary.LittleEndian.PutUint64(out[n:], p.x)
			binary.LittleEndian.PutUint64(out[n+8:], p.y)
			n += 16
		}
	}
	h.Write(out[:n])
	return h.Sum(nil), nil
}

// markReferenced lists in d.tris the triangles that touch no super vertex
// and gives their vertices rank 0, every other vertex noRank.
func (d *digestScratch) markReferenced() {
	nv, super := len(d.sec.verts), d.sec.super
	d.rank = slices.Grow(d.rank[:0], nv)[:nv]
	for v := range d.rank {
		d.rank[v] = noRank
	}
	isSuper := func(v VertexID) bool { return v == super[0] || v == super[1] || v == super[2] }
	d.tris = slices.Grow(d.tris[:0], len(d.sec.tris))[:len(d.sec.tris)]
	n := 0
	for i := range d.sec.tris {
		v := d.sec.tris[i].V
		if isSuper(v[0]) || isSuper(v[1]) || isSuper(v[2]) {
			continue
		}
		d.rank[v[0]], d.rank[v[1]], d.rank[v[2]] = 0, 0, 0
		d.tris[n] = digestTri{uint32(v[0]), uint32(v[1]), uint32(v[2])}
		n++
	}
	d.tris = d.tris[:n]
}

// rankPoints puts the referenced vertices into d.pts in point order and sets
// d.rank of each to the index of the first point with its bits.
func (d *digestScratch) rankPoints() {
	verts := d.sec.verts

	// The x range of the referenced vertices. A coordinate that is not
	// finite, or a range that is empty or overflows, leaves one bucket.
	n, lo, hi := 0, math.Inf(1), math.Inf(-1)
	for v, r := range d.rank {
		if r != noRank {
			n++
			lo, hi = min(lo, verts[v].X), max(hi, verts[v].X) // NaN if either is
		}
	}
	if n == 0 {
		d.pts = d.pts[:0]
		return
	}
	scale := float64(n) / (hi - lo)
	if !(scale > 0) || math.IsInf(scale, 1) {
		scale = 0
	}

	// A counting sort into n buckets of equal width in x. The arithmetic is
	// on the values — spread evenly where bit patterns are not — and
	// monotone, so the buckets are in x order.
	d.first = slices.Grow(d.first[:0], n+1)[:n+1]
	clear(d.first)
	for v, r := range d.rank {
		if r == noRank {
			continue
		}
		b := uint32(0)
		if scale != 0 {
			b = min(uint32((verts[v].X-lo)*scale), uint32(n-1))
		}
		d.rank[v] = b
		d.first[b+1]++
	}
	for b := 1; b <= n; b++ {
		d.first[b] += d.first[b-1]
	}
	d.pts = slices.Grow(d.pts[:0], n)[:n]
	for v, b := range d.rank {
		if b == noRank {
			continue
		}
		p := verts[v]
		d.pts[d.first[b]] = digestPoint{x: sortKey(p.X), y: sortKey(p.Y), v: VertexID(v)}
		d.first[b]++
	}
	// Filling advanced first[b] to the end of bucket b.
	start := uint32(0)
	for _, end := range d.first[:n] {
		d.sortPoints(d.pts[start:end])
		start = end
	}

	run := 0 // where the points with the current bits begin
	for i := range d.pts {
		p := &d.pts[i]
		x, y := math.Float64bits(verts[p.v].X), math.Float64bits(verts[p.v].Y)
		if q := &d.pts[run]; q.x != x || q.y != y {
			run = i
		}
		p.x, p.y = x, y
		d.rank[p.v] = uint32(run)
	}
}

// sortPoints sorts one bucket of points into point order.
func (d *digestScratch) sortPoints(b []digestPoint) {
	verts := d.sec.verts
	if len(b) > digestBucketMax {
		slices.SortFunc(b, func(p, q digestPoint) int { return comparePoints(&p, &q, verts) })
		return
	}
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && comparePoints(&b[j], &b[j-1], verts) < 0; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}

// sortTriangles turns d.tris into ascending rank triples and sorts them into
// d.keys: a counting sort on the lowest rank — a triangulation has about two
// triangles a vertex — then each bucket by the other two ranks. Triples that
// tie hash alike, so the sort need not be stable.
func (d *digestScratch) sortTriangles() {
	n := len(d.pts)
	d.first = slices.Grow(d.first[:0], n+1)[:n+1]
	clear(d.first)
	for i, t := range d.tris {
		// Ascending by min and max, which compile to conditional moves:
		// the order is as good as random, and branches on it would be
		// mispredicted half the time.
		a, b, c := d.rank[t.a], d.rank[t.b], d.rank[t.c]
		lo, hi := min(a, b), max(a, b)
		t = digestTri{min(lo, c), max(lo, min(hi, c)), max(hi, c)}
		d.tris[i] = t
		d.first[t.a+1]++
	}
	for r := 1; r <= n; r++ {
		d.first[r] += d.first[r-1]
	}
	d.keys = slices.Grow(d.keys[:0], len(d.tris))[:len(d.tris)]
	for _, t := range d.tris {
		d.keys[d.first[t.a]] = t
		d.first[t.a]++
	}
	start := uint32(0)
	for _, end := range d.first[:n] {
		sortByRanks(d.keys[start:end])
		start = end
	}
}

// sortByRanks sorts triangles that share their lowest rank by the other two.
func sortByRanks(b []digestTri) {
	key := func(t digestTri) uint64 { return uint64(t.b)<<32 | uint64(t.c) }
	if len(b) > digestBucketMax {
		slices.SortFunc(b, func(s, t digestTri) int { return cmp.Compare(key(s), key(t)) })
		return
	}
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && key(b[j]) < key(b[j-1]); j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}
