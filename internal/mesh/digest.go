package mesh

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"slices"

	"mrts/internal/geom"
)

// digestScratch is the working storage of one CanonicalDigest,
// Canonicalize or EncodeCanonical, kept in the pooled decodeScratch: the
// out-of-core methods digest every block.
type digestScratch struct {
	sec   sections
	verts []geom.Point  // the vertices ranked: sec.verts, or a mesh's own, which are only read
	rank  []uint32      // per vertex: noRank, then its bucket, then its rank; when writing, last, its new id
	first []uint32      // counting-sort boundaries, of the points and then of the triangles
	pts   []digestPoint // the referenced vertices in point order; a rank indexes it
	tris  []digestTri   // every triangle as vertex ids; on the ranked path, then the hashed ones as rank triples
	keys  []digestTri   // and sorted
	rest  []digestPoint // when writing: the vertices of no hashed triangle, in point order
	order []VertexID    // when writing: every vertex, in point order
	tied  bool          // two referenced vertices share their bits, and so a rank
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
// their ranks in ascending order; when writing, its new ids.
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
// the encoding) and the digest is that pass's. Otherwise canon is new,
// written as EncodeCanonical writes a mesh's: the vertices ranked, the
// triangles sorted once by their new ids and hashed as they are written.
// It fails exactly when DecodeFrom would.
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
	d.readVertices()
	d.readTriangles()
	canon, digest = d.writeCanonical(s.buf[:])
	return canon, digest, nil
}

// EncodeCanonical returns the canonical encoding of the mesh and its
// CanonicalDigest: the bytes Canonicalize makes of what EncodeTo writes,
// and the same digest, without the intermediate encoding. The vertices are
// ranked from the mesh's own, the live triangles sorted by their new ids,
// and each hashed as it is written, so the digest costs no second pass. It
// fails exactly when decoding what EncodeTo writes would: on a coordinate
// that is not finite, or a count beyond what a decoder accepts.
func (m *Mesh) EncodeCanonical() (canon, digest []byte, err error) {
	if err := m.decodable(); err != nil {
		return nil, nil, err
	}
	s := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(s)
	d := &s.digest
	d.verts, d.sec.super = m.verts, m.super
	d.tris = slices.Grow(d.tris[:0], m.nAlive)[:m.nAlive]
	n := 0
	for i := range m.tris {
		if m.live(TriID(i)) {
			v := &m.tris[i].V
			d.tris[n] = digestTri{uint32(v[0]), uint32(v[1]), uint32(v[2])}
			n++
		}
	}
	d.sec.cons = d.sec.cons[:0]
	for k := range m.constrained {
		d.sec.cons = append(d.sec.cons, k)
	}
	canon, digest = d.writeCanonical(s.buf[:])
	d.verts = nil // the mesh's: the pooled scratch must not keep it
	return canon, digest, nil
}

// decodable fails as readSections would on what EncodeTo writes of the
// mesh: a count beyond maxDecodeElems or a coordinate that is not finite.
// readSections' range checks on vertex ids are not repeated: insertion and
// DecodeFrom keep every id of a mesh in range.
func (m *Mesh) decodable() error {
	switch {
	case len(m.verts) > maxDecodeElems:
		return fmt.Errorf("mesh: vertex count %d exceeds limit %d", len(m.verts), maxDecodeElems)
	case m.nAlive > maxDecodeElems:
		return fmt.Errorf("mesh: triangle count %d exceeds limit %d", m.nAlive, maxDecodeElems)
	case len(m.constrained) > maxDecodeElems:
		return fmt.Errorf("mesh: constraint count %d exceeds limit %d", len(m.constrained), maxDecodeElems)
	}
	for i, p := range m.verts {
		if !finite(math.Float64bits(p.X)) || !finite(math.Float64bits(p.Y)) {
			return fmt.Errorf("mesh: vertex %d has a coordinate that is not finite", i)
		}
	}
	return nil
}

// sum digests the encoding read, by the linear pass if it takes it and
// else by ranking and sorting. The hash is fed through buf.
func (d *digestScratch) sum(buf []byte) []byte {
	if d.pointsInOrder() {
		if digest, ok := d.hashInOrder(buf); ok {
			return digest
		}
	}
	d.readVertices()
	d.readTriangles()
	d.rankPoints()
	d.sortTriangles()
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

// triHasher feeds the digest its triangles, 48 bytes each — the bits of x
// and of y of the lowest, middle and highest vertex — through a buffer, a
// few hundred triangles at a time. The hash state is made at the first
// write, so that a pass that gives up early allocates nothing.
type triHasher struct {
	h   hash.Hash
	out []byte
	n   int
}

// next returns the buffer's room for the next triangle.
func (t *triHasher) next() *[48]byte {
	if t.n+48 > len(t.out) {
		t.write()
	}
	o := (*[48]byte)(t.out[t.n:])
	t.n += 48
	return o
}

func (t *triHasher) write() {
	if t.h == nil {
		t.h = sha256.New()
	}
	t.h.Write(t.out[:t.n])
	t.n = 0
}

func (t *triHasher) sum() []byte {
	t.write()
	return t.h.Sum(nil)
}

// hashVertices fills o with the records of vertices a, b and c of a vertex
// section, as they are encoded.
func hashVertices(o *[48]byte, verts []byte, a, b, c uint32) {
	*(*[16]byte)(o[:16]) = [16]byte(verts[16*a:])
	*(*[16]byte)(o[16:32]) = [16]byte(verts[16*b:])
	*(*[16]byte)(o[32:]) = [16]byte(verts[16*c:])
}

// hashInOrder digests an encoding pointsInOrder accepted in one pass over
// its triangles: each that touches no super vertex is hashed as it comes,
// as its lowest, middle and highest vertex. That is the digest if every
// triangle starts at its lowest id and follows the one before it by
// (lowest, middle, highest) id — so no two share their corners, and the
// list is the sorted one; at the first that does not, it gives up and
// reports false. The hash is fed through out.
func (d *digestScratch) hashInOrder(out []byte) ([]byte, bool) {
	verts := d.sec.vertData
	s0, s1, s2 := uint32(d.sec.super[0]), uint32(d.sec.super[1]), uint32(d.sec.super[2])
	th := triHasher{out: out}
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
		hashVertices(th.next(), verts, a, b, c)
	}
	return th.sum(), true
}

// hashRanked is the digest of the triangles sortTriangles sorted into
// d.keys, fed through out as hashInOrder feeds it.
func (d *digestScratch) hashRanked(out []byte) []byte {
	th := triHasher{out: out}
	for _, t := range d.keys {
		o := th.next()
		for i, r := range [3]uint32{t.a, t.b, t.c} {
			p := &d.pts[r]
			binary.LittleEndian.PutUint64(o[16*i:], p.x)
			binary.LittleEndian.PutUint64(o[16*i+8:], p.y)
		}
	}
	return th.sum()
}

// isSuper reports whether vertex v is one of the super vertices.
func isSuper(v uint32, super [3]VertexID) bool {
	return VertexID(v) == super[0] || VertexID(v) == super[1] || VertexID(v) == super[2]
}

// writeCanonical is the core of Canonicalize and EncodeCanonical: it ranks
// d.verts by the triangles in d.tris that touch no super vertex of
// d.sec.super, then writes the canonical encoding — the ranked vertices
// merged with the rest in point order, the triangles renumbered, rotated
// and sorted by their new ids, the constraints in d.sec.cons renumbered and
// sorted as EncodeTo sorts them — and returns it with its digest. The
// digest is taken as the triangles are written: in their sorted order, the
// order the digest hashes them in, unless two referenced vertices share
// their bits (their ranks tie where their ids do not, which no refiner
// writes); then it is taken from the encoding written, by ranking and
// sorting. The hash is fed through buf.
func (d *digestScratch) writeCanonical(buf []byte) (canon, digest []byte) {
	d.rankPoints()
	verts := d.verts
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
	for i, t := range d.tris {
		a, b, c := id[t.a], id[t.b], id[t.c]
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
	vertData := e.buf[12 : 12+16*len(verts)]
	th := triHasher{out: buf}
	s0, s1, s2 := uint32(super[0]), uint32(super[1]), uint32(super[2])
	for _, t := range d.keys {
		a, b, c := t.a, t.b, t.c>>1
		if t.c&1 == 0 {
			e.buf = appendTri(e.buf, a, b, c)
		} else {
			e.buf = appendTri(e.buf, a, c, b)
		}
		if d.tied || a == s0 || a == s1 || a == s2 || b == s0 || b == s1 || b == s2 || c == s0 || c == s1 || c == s2 {
			continue
		}
		hashVertices(th.next(), vertData, a, b, c)
	}
	e.constraints(cons)
	canon = e.buf
	if !d.tied {
		return canon, th.sum()
	}
	if err := readSections(&source{data: canon, buf: buf}, &d.sec, true); err != nil {
		panic(fmt.Sprintf("mesh: canonical encoding does not read back: %v", err))
	}
	return canon, d.sum(buf)
}

// readVertices decodes the vertex section read into d.sec.verts, the
// vertices to rank.
func (d *digestScratch) readVertices() {
	le := binary.LittleEndian
	d.sec.verts = slices.Grow(d.sec.verts[:0], len(d.sec.vertData)/16)
	for b := d.sec.vertData; len(b) >= 16; b = b[16:] {
		d.sec.verts = append(d.sec.verts, geom.Point{X: math.Float64frombits(le.Uint64(b)), Y: math.Float64frombits(le.Uint64(b[8:]))})
	}
	d.verts = d.sec.verts
}

// readTriangles lists the triangle section read in d.tris.
func (d *digestScratch) readTriangles() {
	d.tris = slices.Grow(d.tris[:0], len(d.sec.triData)/12)
	for t := d.sec.triData; len(t) >= 12; t = t[12:] {
		a, b, c := corners(t)
		d.tris = append(d.tris, digestTri{a, b, c})
	}
}

// markReferenced gives the vertices of the triangles in d.tris that touch
// no super vertex rank 0, and every other vertex noRank.
func (d *digestScratch) markReferenced() {
	nv, super := len(d.verts), d.sec.super
	d.rank = slices.Grow(d.rank[:0], nv)[:nv]
	for v := range d.rank {
		d.rank[v] = noRank
	}
	for _, t := range d.tris {
		if isSuper(t.a, super) || isSuper(t.b, super) || isSuper(t.c, super) {
			continue
		}
		d.rank[t.a], d.rank[t.b], d.rank[t.c] = 0, 0, 0
	}
}

// rankPoints puts the vertices the hashed triangles of d.tris reference
// (markReferenced) into d.pts in point order, sets d.rank of each to the
// index of the first point with its bits, and d.tied if two share them.
func (d *digestScratch) rankPoints() {
	d.markReferenced()
	d.tied = false
	verts := d.verts

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
		} else if run != i {
			d.tied = true
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
	verts := d.verts
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

// sortTriangles turns the triangles in d.tris that touch no super vertex
// into ascending rank triples and sorts them into d.keys.
func (d *digestScratch) sortTriangles() {
	n := 0
	for _, t := range d.tris {
		// A super vertex, which only super triangles touch, has no rank.
		// Ascending by min and max, which compile to conditional moves:
		// the order is as good as random, and branches on it would be
		// mispredicted half the time.
		a, b, c := d.rank[t.a], d.rank[t.b], d.rank[t.c]
		if a == noRank || b == noRank || c == noRank {
			continue
		}
		lo, hi := min(a, b), max(a, b)
		d.tris[n] = digestTri{min(lo, c), max(lo, min(hi, c)), max(hi, c)}
		n++
	}
	d.tris = d.tris[:n]
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
