package mesh

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"

	"mrts/internal/geom"
)

// digestScratch is the working storage of one CanonicalDigest or
// Canonicalize, kept in the pooled decodeScratch: the out-of-core methods
// digest every block.
type digestScratch struct {
	sec   sections
	rank  []uint32      // per vertex: noRank, then its bucket, then its rank; in Canonicalize, last, its new id
	first []uint32      // counting-sort boundaries, of the points and then of the triangles
	pts   []digestPoint // the referenced vertices in point order; a rank indexes it
	tris  []digestTri   // the hashed triangles in encoding order
	keys  []digestTri   // and sorted
	rest  []digestPoint // Canonicalize: the vertices of no hashed triangle, in point order
	order []VertexID    // Canonicalize: every vertex, in point order
}

// digestPoint is one referenced vertex: while the points are being ordered,
// the sort keys of its coordinates; once they are ranked, the coordinates'
// bits, as hashed.
type digestPoint struct {
	x, y uint64
	v    VertexID
}

// pointKey is vertex v as the points are ordered: its coordinates' sort keys.
func pointKey(verts []geom.Point, v VertexID) digestPoint {
	return digestPoint{x: sortKey(verts[v].X), y: sortKey(verts[v].Y), v: v}
}

// digestTri is one triangle of the canonical form: vertex ids as read, then
// their ranks in ascending order; in encodeCanonical, its new ids.
type digestTri struct{ a, b, c uint32 }

const (
	noRank = ^uint32(0) // vertex of no hashed triangle

	// digestBucketMax is the longest bucket sorted by insertion. The buckets
	// of a mesh hold a handful; a longer one is an input built to fill it,
	// and goes to the library sort so that no input costs quadratic time.
	digestBucketMax = 32
)

// sortKey maps a coordinate, which readSections has checked is finite, to an
// integer that orders as cmp.Compare orders the floats, with -0 equal to +0.
func sortKey(f float64) uint64 {
	b := math.Float64bits(f + 0) // -0 + 0 is +0
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// comparePoints is the digest's total order on points: by x and then y as
// cmp.Compare orders floats (sortKey), and between points that compare equal
// there — -0 against +0 — by the bits of x and then
// of y. Only points with the same bits are equal.
func comparePoints(a, b *digestPoint, verts []geom.Point) int {
	if c := cmp.Or(cmp.Compare(a.x, b.x), cmp.Compare(a.y, b.y)); c != 0 {
		return c
	}
	p, q := verts[a.v], verts[b.v]
	return cmp.Or(cmp.Compare(math.Float64bits(p.X), math.Float64bits(q.X)),
		cmp.Compare(math.Float64bits(p.Y), math.Float64bits(q.Y)))
}

// comparePointIDs is comparePoints, and between points with the same bits
// the order of their ids.
func comparePointIDs(a, b *digestPoint, verts []geom.Point) int {
	return cmp.Or(comparePoints(a, b, verts), cmp.Compare(a.v, b.v))
}

// CanonicalDigest digests an encoded mesh by geometry, not by encoding: the
// SHA-256 of its triangles that touch no super vertex, each as the bits of
// its three vertex coordinates with the vertices in point order, the list
// itself sorted by that order — so two encodings of the same triangulation
// digest alike however their vertices and triangles are numbered. Point
// order is a total order: (x, y) as cmp.Compare orders floats (-0 equals +0)
// and, between points equal there, the bits of x and then of y. It fails
// exactly when DecodeFrom would, so on a coordinate that is not finite.
//
// The encoding is read in place, not decoded into a Mesh, and nothing as
// long as the vertex or triangle list is sorted by comparison. An encoding
// whose order already is the digest's — what Canonicalize writes, when no
// two vertices share their bits and no two triangles their corners — is
// hashed in one pass over its triangles. Any other is ranked and sorted:
// the vertices the hashed triangles reference — not the super-triangle's,
// which would stretch the range — are bucketed on x over the range they
// span, a bucket a vertex, and each bucket sorted; a vertex's rank is its
// place in that order, points with the same bits sharing one. The
// triangles, as ascending rank triples, are bucketed on the lowest rank and
// each bucket sorted by the other two. Ranks are 32-bit and counts are
// bounded by maxDecodeElems, so no input is too large for them.
func CanonicalDigest(data []byte) ([]byte, error) {
	s := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(s)
	d := &s.digest
	if err := readSections(&source{data: data, buf: s.buf[:]}, &d.sec, true); err != nil {
		return nil, err
	}
	return d.sum(s.buf[:]), nil
}

// Canonicalize returns the canonical encoding of data, and its
// CanonicalDigest. In the canonical encoding
//   - the vertices, super vertices included, are in point order (between
//     points with the same bits, in the order of their ids);
//   - the super vertex ids and the constraint endpoints follow them, and the
//     constraints are sorted and deduplicated as EncodeTo writes them;
//   - each triangle is rotated, its orientation kept, to start at its
//     lowest id, and the triangles are sorted by their (lowest, middle,
//     highest) ids.
//
// It decodes to the same triangulation, digests alike, and canonicalizes to
// itself. When data already is canonical in the order CanonicalDigest's
// linear pass needs, canon is data itself (without any bytes that follow
// the encoding) and the digest is that pass's. Otherwise canon is new: the
// vertices are put in the order the digest ranks them, the triangles sorted
// once, by their new ids, and the digest taken from canon by the linear
// pass — ranked and sorted again only when two of its vertices share their
// bits or two triangles their corners, which no refiner writes. It fails
// exactly when DecodeFrom would.
func Canonicalize(data []byte) (canon, digest []byte, err error) {
	s := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(s)
	d := &s.digest
	src := source{data: data, buf: s.buf[:]}
	if err := readSections(&src, &d.sec, true); err != nil {
		return nil, nil, err
	}
	if d.pointsInOrder() {
		if digest, ok := d.hashInOrder(s.buf[:]); ok {
			n := len(data) - len(src.data)
			return data[:n:n], digest, nil
		}
	}
	d.rankVertices()
	canon = d.encodeCanonical()
	if err := readSections(&source{data: canon, buf: s.buf[:]}, &d.sec, true); err != nil {
		return nil, nil, err
	}
	digest = d.sum(s.buf[:])
	return canon, digest, nil
}

// sum digests the encoding read, by the linear pass if it takes it and
// else by ranking and sorting. The hash is fed through buf.
func (d *digestScratch) sum(buf []byte) []byte {
	if d.pointsInOrder() {
		if digest, ok := d.hashInOrder(buf); ok {
			return digest
		}
	}
	d.rankAndSort()
	return d.hashRanked(buf)
}

// pointsInOrder reports whether the vertices and constraints read are as
// the canonical encoding has them: every vertex after the one before it in
// point order (so no two share their bits, and the ranks are the vertex
// ids), and the constraints strictly ascending, each written low end first.
func (d *digestScratch) pointsInOrder() bool {
	le := binary.LittleEndian
	var px, py, pbx, pby uint64 // the vertex before: sort keys, bits
	for p, v := d.sec.vertData, 0; len(p) >= 16; p, v = p[16:], v+1 {
		bx, by := le.Uint64(p), le.Uint64(p[8:])
		x, y := sortKey(math.Float64frombits(bx)), sortKey(math.Float64frombits(by))
		if v > 0 && (x < px || x == px && (y < py || y == py && (bx < pbx || bx == pbx && by <= pby))) {
			return false
		}
		px, py, pbx, pby = x, y, bx, by
	}
	for i, e := range d.sec.cons {
		if e.a > e.b || i > 0 && compareEdges(d.sec.cons[i-1], e) >= 0 {
			return false
		}
	}
	return true
}

// corners reads the vertex ids of the triangle record at the start of t.
func corners(t []byte) (a, b, c uint32) {
	le := binary.LittleEndian
	return le.Uint32(t), le.Uint32(t[4:]), le.Uint32(t[8:])
}

// hashInOrder digests an encoding pointsInOrder accepted in one pass over
// its triangles: each that touches no super vertex is hashed as it comes,
// as its lowest, middle and highest vertex. That is the digest if every
// triangle starts at its lowest id and follows the one before it by
// (lowest, middle, highest) id — so no two share their corners, and the
// list is the sorted one; at the first that does not, it gives up and
// reports false. The hash is fed through out, a few hundred triangles at a
// time; a vertex is hashed as it is encoded, the bits of x and of y.
func (d *digestScratch) hashInOrder(out []byte) ([]byte, bool) {
	verts := d.sec.vertData
	s0, s1, s2 := uint32(d.sec.super[0]), uint32(d.sec.super[1]), uint32(d.sec.super[2])
	h := sha256.New()
	n := 0
	var first, last uint64 // the triangle before: lowest<<32 | middle, and highest
	for t := d.sec.triData; len(t) >= 12; t = t[12:] {
		a, b, c := corners(t)
		b, c = min(b, c), max(b, c)
		f := uint64(a)<<32 | uint64(b)
		if a >= b || f < first || f == first && uint64(c) <= last {
			return nil, false
		}
		first, last = f, uint64(c)
		if a == s0 || a == s1 || a == s2 || b == s0 || b == s1 || b == s2 || c == s0 || c == s1 || c == s2 {
			continue
		}
		if n+48 > len(out) {
			h.Write(out[:n])
			n = 0
		}
		o := (*[48]byte)(out[n:])
		*(*[16]byte)(o[:16]) = [16]byte(verts[16*a:])
		*(*[16]byte)(o[16:32]) = [16]byte(verts[16*b:])
		*(*[16]byte)(o[32:]) = [16]byte(verts[16*c:])
		n += 48
	}
	h.Write(out[:n])
	return h.Sum(nil), true
}

// hashRanked is the digest of the triangles sortTriangles sorted into
// d.keys, fed through out as hashInOrder feeds it.
func (d *digestScratch) hashRanked(out []byte) []byte {
	h := sha256.New()
	n := 0
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
	return h.Sum(nil)
}

// isSuper reports whether vertex v is one of the super vertices.
func isSuper(v uint32, super [3]VertexID) bool {
	return VertexID(v) == super[0] || VertexID(v) == super[1] || VertexID(v) == super[2]
}

// encodeCanonical writes the canonical encoding of the mesh read, once its
// points are ranked: the ranked vertices merged with the rest in point
// order, the triangles renumbered, rotated and sorted by their new ids, the
// constraints renumbered and sorted as EncodeTo sorts them.
func (d *digestScratch) encodeCanonical() []byte {
	verts := d.sec.verts
	d.rest = d.rest[:0]
	for v, r := range d.rank {
		if r == noRank {
			d.rest = append(d.rest, pointKey(verts, VertexID(v)))
		}
	}
	// Few: the super vertices, and whatever only super triangles touch.
	slices.SortFunc(d.rest, func(p, q digestPoint) int { return comparePointIDs(&p, &q, verts) })
	d.order = d.order[:0]
	rest := d.rest
	for _, p := range d.pts {
		k := pointKey(verts, p.v)
		for len(rest) > 0 && comparePointIDs(&rest[0], &k, verts) < 0 {
			d.order = append(d.order, rest[0].v)
			rest = rest[1:]
		}
		d.order = append(d.order, p.v)
	}
	for _, p := range rest {
		d.order = append(d.order, p.v)
	}
	id := d.rank // the ranks are spent: from here on, a vertex's new id
	for i, v := range d.order {
		id[v] = uint32(i)
	}

	// A triangle as (lowest, middle, highest<<1 | 1 if the rotation that
	// starts at the lowest runs lowest, highest, middle): sorted as the
	// digest sorts rank triples, with the orientation the last key.
	nt := len(d.sec.triData) / 12
	d.tris = slices.Grow(d.tris[:0], nt)[:nt]
	for t, i := d.sec.triData, 0; len(t) >= 12; t, i = t[12:], i+1 {
		a, b, c := corners(t)
		a, b, c = id[a], id[b], id[c]
		switch {
		case b < a && b <= c:
			a, b, c = b, c, a
		case c < a && c < b:
			a, b, c = c, a, b
		}
		flip := uint32(0)
		if b > c {
			b, c, flip = c, b, 1
		}
		d.tris[i] = digestTri{a, b, c<<1 | flip}
	}
	d.sortKeys(len(verts))

	cons := d.sec.cons
	for i, e := range cons {
		cons[i] = mkEdge(VertexID(id[e.a]), VertexID(id[e.b]))
	}
	slices.SortFunc(cons, compareEdges)
	cons = slices.Compact(cons)

	super := d.sec.super
	for i, v := range super {
		if v != NoVertex {
			super[i] = VertexID(id[v])
		}
	}
	e := encoder{buf: make([]byte, 0, encodedSize(len(verts), len(d.keys), len(cons)))}
	e.header(len(verts))
	for _, v := range d.order {
		e.buf = appendVertex(e.buf, verts[v])
	}
	e.triangles(super, len(d.keys))
	for _, t := range d.keys {
		b, c := t.b, t.c>>1
		if t.c&1 != 0 {
			b, c = c, b
		}
		e.buf = appendTri(e.buf, t.a, b, c)
	}
	e.constraints(cons)
	return e.buf
}

// rankAndSort ranks the points and sorts the triangles of an encoding the
// linear pass could not take: the hashed triangles, as rank triples, are
// sorted into d.keys.
func (d *digestScratch) rankAndSort() {
	d.rankVertices()
	d.sortTriangles()
}

// rankVertices decodes the vertices read into d.sec.verts and ranks the ones the
// hashed triangles reference.
func (d *digestScratch) rankVertices() {
	le := binary.LittleEndian
	d.sec.verts = slices.Grow(d.sec.verts[:0], len(d.sec.vertData)/16)
	for b := d.sec.vertData; len(b) >= 16; b = b[16:] {
		d.sec.verts = append(d.sec.verts, geom.Point{X: math.Float64frombits(le.Uint64(b)), Y: math.Float64frombits(le.Uint64(b[8:]))})
	}
	d.markReferenced()
	d.rankPoints()
}

// markReferenced lists in d.tris the triangles that touch no super vertex
// and gives their vertices rank 0, every other vertex noRank.
func (d *digestScratch) markReferenced() {
	nv, super := len(d.sec.verts), d.sec.super
	d.rank = slices.Grow(d.rank[:0], nv)[:nv]
	for v := range d.rank {
		d.rank[v] = noRank
	}
	d.tris = slices.Grow(d.tris[:0], len(d.sec.triData)/12)
	for t := d.sec.triData; len(t) >= 12; t = t[12:] {
		a, b, c := corners(t)
		if isSuper(a, super) || isSuper(b, super) || isSuper(c, super) {
			continue
		}
		d.rank[a], d.rank[b], d.rank[c] = 0, 0, 0
		d.tris = append(d.tris, digestTri{a, b, c})
	}
}

// rankPoints puts the referenced vertices into d.pts in point order and sets
// d.rank of each to the index of the first point with its bits.
func (d *digestScratch) rankPoints() {
	verts := d.sec.verts

	// The x range of the referenced vertices. A range that is empty or
	// overflows leaves one bucket.
	n, lo, hi := 0, math.Inf(1), math.Inf(-1)
	for v, r := range d.rank {
		if r != noRank {
			n++
			lo, hi = min(lo, verts[v].X), max(hi, verts[v].X)
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

// sortPoints sorts one bucket of points into point order, and points with
// the same bits by id: the ranks do not depend on that order, but the
// vertex order Canonicalize writes does. The bucket is filled in id order,
// so the insertion sort, which is stable, keeps it.
func (d *digestScratch) sortPoints(b []digestPoint) {
	verts := d.sec.verts
	if len(b) > digestBucketMax {
		slices.SortFunc(b, func(p, q digestPoint) int { return comparePointIDs(&p, &q, verts) })
		return
	}
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && comparePoints(&b[j], &b[j-1], verts) < 0; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}

// sortTriangles turns d.tris into ascending rank triples and sorts them into
// d.keys.
func (d *digestScratch) sortTriangles() {
	for i, t := range d.tris {
		// Ascending by min and max, which compile to conditional moves:
		// the order is as good as random, and branches on it would be
		// mispredicted half the time.
		a, b, c := d.rank[t.a], d.rank[t.b], d.rank[t.c]
		lo, hi := min(a, b), max(a, b)
		d.tris[i] = digestTri{min(lo, c), max(lo, min(hi, c)), max(hi, c)}
	}
	d.sortKeys(len(d.pts))
}

// sortKeys sorts d.tris, whose first members are below n, into d.keys by
// (a, b, c): a counting sort on a — a triangulation has about two triangles
// a vertex — then each bucket by the other two. Triples that tie are alike,
// so the sort need not be stable.
func (d *digestScratch) sortKeys(n int) {
	d.first = slices.Grow(d.first[:0], n+1)[:n+1]
	clear(d.first)
	for _, t := range d.tris {
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

// sortByRanks sorts triangles that share their first member by the other two.
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
