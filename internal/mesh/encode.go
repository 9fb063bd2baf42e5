package mesh

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"mrts/internal/geom"
)

const (
	encodeMagic   = 0x4D525453 // "MRTS"
	encodeVersion = 1

	// maxDecodeElems bounds every untrusted count in the encoding (vertices,
	// triangles, constraints). A corrupted length prefix could otherwise
	// demand a multi-gigabyte allocation before the short read is noticed.
	maxDecodeElems = 1 << 24
)

// EncodedSize returns the exact number of bytes EncodeTo will write for the
// current mesh state. The out-of-core layer uses it for memory accounting.
func (m *Mesh) EncodedSize() int {
	return encodedSize(len(m.verts), m.nAlive, len(m.constrained))
}

// encodedSize is the length of an encoding of nv vertices, nt triangles and
// nc constraints.
func encodedSize(nv, nt, nc int) int {
	return 4 + 4 + // magic, version
		4 + 16*nv + // vertex count + coordinates
		12 + // super vertices
		4 + 12*nt + // triangle count + vertex triples
		4 + 8*nc // constraint count + pairs
}

// EncodeTo writes a compact binary encoding of the mesh to w. Triangle IDs
// are not preserved (dead slots are compacted); vertex IDs are preserved.
// Constraints are written in sorted (a, b) order, so the bytes are a function
// of the mesh state alone. Into a bytes.Buffer the encoding is written in
// place, the buffer grown once to its size; any other writer gets it in
// chunks of at most encodeChunk bytes from a pooled buffer.
func (m *Mesh) EncodeTo(w io.Writer) error {
	if bb, ok := w.(*bytes.Buffer); ok {
		bb.Grow(m.EncodedSize())
		enc := encoder{buf: bb.AvailableBuffer()}
		m.encode(&enc)
		_, err := bb.Write(enc.buf)
		return err
	}
	chunk := encodePool.Get().(*[encodeChunk]byte)
	defer encodePool.Put(chunk)
	enc := encoder{buf: chunk[:0], w: w}
	m.encode(&enc)
	enc.flush()
	return enc.err
}

// encodeChunk bounds what EncodeTo holds before it writes to a writer other
// than a bytes.Buffer.
const encodeChunk = 32 << 10

var encodePool = sync.Pool{New: func() any { return new([encodeChunk]byte) }}

// encoder appends an encoding to buf. With a writer set, it hands buf over
// whenever fewer than a record's bytes are left, and keeps the first error.
type encoder struct {
	buf []byte
	w   io.Writer
	err error
}

// room makes space for n more bytes, n at most encodeChunk.
func (e *encoder) room(n int) {
	if e.w != nil && len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
}

func (e *encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *encoder) u32(v uint32) {
	e.room(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// The format, section by section. Every writer of it writes through these,
// in this order: header, nv vertex records (appendVertex), triangles, nt
// triangle records (appendTri), constraints. The records are plain appends,
// which inline, with the writer making room for each.

// header starts an encoding of nv vertices.
func (e *encoder) header(nv int) {
	e.u32(encodeMagic)
	e.u32(encodeVersion)
	e.u32(uint32(nv))
}

// appendVertex appends one vertex record: the bits of x and of y.
func appendVertex(b []byte, p geom.Point) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.X))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Y))
}

// triangles ends the vertex section with the super vertices and starts a
// triangle section of nt records.
func (e *encoder) triangles(super [3]VertexID, nt int) {
	for _, s := range super {
		e.u32(uint32(s))
	}
	e.u32(uint32(nt))
}

// appendTri appends one triangle record, its corners in the order given.
func appendTri(b []byte, v0, v1, v2 uint32) []byte {
	b = binary.LittleEndian.AppendUint32(b, v0)
	b = binary.LittleEndian.AppendUint32(b, v1)
	return binary.LittleEndian.AppendUint32(b, v2)
}

// constraints writes the constraint section, edges in the order given.
func (e *encoder) constraints(edges []edgeKey) {
	e.u32(uint32(len(edges)))
	for _, k := range edges {
		e.u32(uint32(k.a))
		e.u32(uint32(k.b))
	}
}

// encode appends the mesh's encoding.
func (m *Mesh) encode(e *encoder) {
	e.header(len(m.verts))
	for _, p := range m.verts {
		e.room(16)
		e.buf = appendVertex(e.buf, p)
	}
	e.triangles(m.super, m.nAlive)
	for i := range m.tris {
		if !m.live(TriID(i)) {
			continue
		}
		v := m.tris[i].V
		e.room(12)
		e.buf = appendTri(e.buf, uint32(v[0]), uint32(v[1]), uint32(v[2]))
	}
	edges := make([]edgeKey, 0, len(m.constrained))
	for k := range m.constrained {
		edges = append(edges, k)
	}
	slices.SortFunc(edges, compareEdges)
	e.constraints(edges)
}

// compareEdges is the order constraints are written in: by (a, b).
func compareEdges(x, y edgeKey) int {
	return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
}

// halfEdge is one directed triangle edge, filed during decoding under its
// lower endpoint: the higher endpoint and where the edge sits.
type halfEdge struct {
	hi  VertexID
	ref uint32 // triangle index<<3 | edge index<<1 | 1 if the edge runs hi→lo
}

// decodeScratch is the working storage of one DecodeFrom, pooled because
// the out-of-core layers decode a mesh on every reload.
type decodeScratch struct {
	buf   [1 << 15]byte
	first []uint32   // bucket boundaries of half, per vertex
	half  []halfEdge // all directed edges, bucketed by lower endpoint
	cons  []edgeKey  // the constraints as read

	digest digestScratch
}

var decodePool = sync.Pool{New: func() any { return new(decodeScratch) }}

// source is where readSections takes an encoding from: a reader, copied a
// chunk at a time through the scratch buffer, or — when the caller holds the
// bytes — the slice itself, read in place.
type source struct {
	r    io.Reader // nil: data is the encoding
	data []byte    // what of the slice is still unread
	buf  []byte    // the scratch buffer a reader is read through
}

// take returns the next n bytes, n no more than len(src.buf), and fails as
// io.ReadFull does when fewer remain.
func (src *source) take(n int) ([]byte, error) {
	if src.r != nil {
		_, err := io.ReadFull(src.r, src.buf[:n])
		return src.buf[:n], err
	}
	if len(src.data) < n {
		if len(src.data) == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	b := src.data[:n:n]
	src.data = src.data[n:]
	return b, nil
}

// short reports whether fewer than n bytes are known to remain — of a slice,
// or of an in-memory reader that says how long it is — so that a corrupt
// count is refused before memory is sized by it, not after.
func (src *source) short(n int) bool {
	if src.r == nil {
		return len(src.data) < n
	}
	l, ok := src.r.(interface{ Len() int })
	return ok && l.Len() < n
}

// records returns the next whole records of size bytes each, as many of the
// n outstanding as fit the scratch buffer — from a slice too, so that a blob
// both cut short and malformed fails alike whichever way it is read.
func (src *source) records(n, size int) ([]byte, error) {
	return src.take(min(len(src.buf)/size, n) * size)
}

// sections is the content of one encoding, as read by readSections.
type sections struct {
	verts []geom.Point
	super [3]VertexID
	tris  []Tri     // vertex triples in encoding order; neighbors unset
	cons  []edgeKey // constraint endpoints in encoding order, as written

	// The vertex and triangle sections as encoded, when they are read in
	// place instead of into verts and tris.
	vertData, triData []byte
}

// readSections reads one encoding from src into sec — header, vertices, super
// vertices, triangles, constraints — applying every check the format has:
// magic and version, the count bounds, every coordinate finite, every
// vertex reference — super vertex, triangle corner, constraint endpoint — in
// range, and no section cut short. It is the only parser of the format:
// DecodeFrom, CanonicalDigest and Canonicalize all read through it, so a
// blob is accepted by all or by none. sec's slices are reused when large
// enough. It reads exactly the encoding's bytes from src. With inPlace set, the
// vertices and triangles are checked but not copied: src must then be a
// slice, and sec.vertData and sec.triData are the sections in it.
func readSections(src *source, sec *sections, inPlace bool) error {
	// Through le, not method values: those are called, not inlined.
	le := binary.LittleEndian

	b, err := src.take(8)
	if err != nil {
		return err
	}
	if magic := le.Uint32(b); magic != encodeMagic {
		return fmt.Errorf("mesh: bad magic %#x", magic)
	}
	if version := le.Uint32(b[4:]); version != encodeVersion {
		return fmt.Errorf("mesh: unsupported version %d", version)
	}
	if b, err = src.take(4); err != nil {
		return err
	}
	nv := le.Uint32(b)
	if nv > maxDecodeElems {
		return fmt.Errorf("mesh: vertex count %d exceeds limit %d (corrupt blob?)", nv, maxDecodeElems)
	}
	if src.short(int(nv) * 16) {
		return io.ErrUnexpectedEOF
	}
	var verts []geom.Point
	if inPlace {
		sec.vertData, src.data = src.data[:16*nv:16*nv], src.data[16*nv:]
		for i, b := 0, sec.vertData; len(b) >= 16; b, i = b[16:], i+1 {
			if !finite(le.Uint64(b)) || !finite(le.Uint64(b[8:])) {
				return fmt.Errorf("mesh: vertex %d has a coordinate that is not finite", i)
			}
		}
	} else {
		verts = slices.Grow(sec.verts[:0], int(nv))[:nv]
	}
	for i := 0; i < len(verts); {
		if b, err = src.records(len(verts)-i, 16); err != nil {
			return err
		}
		for ; len(b) >= 16; b, i = b[16:], i+1 {
			x, y := le.Uint64(b), le.Uint64(b[8:])
			if !finite(x) || !finite(y) {
				return fmt.Errorf("mesh: vertex %d has a coordinate that is not finite", i)
			}
			verts[i] = geom.Point{X: math.Float64frombits(x), Y: math.Float64frombits(y)}
		}
	}
	if b, err = src.take(16); err != nil {
		return err
	}
	for i := range sec.super {
		id := le.Uint32(b[4*i:])
		if id >= nv && VertexID(int32(id)) != NoVertex {
			return fmt.Errorf("mesh: super vertex %d out of range", int32(id))
		}
		sec.super[i] = VertexID(int32(id))
	}
	nt := le.Uint32(b[12:])
	if nt > maxDecodeElems {
		return fmt.Errorf("mesh: triangle count %d exceeds limit %d (corrupt blob?)", nt, maxDecodeElems)
	}
	if src.short(int(nt) * 12) {
		return io.ErrUnexpectedEOF
	}
	var tris []Tri
	if inPlace {
		sec.triData = src.data[: 12*nt : 12*nt]
	} else {
		tris = slices.Grow(sec.tris[:0], int(nt))[:nt]
	}
	for i := 0; i < int(nt); {
		if b, err = src.records(int(nt)-i, 12); err != nil {
			return err
		}
		for ; len(b) >= 12; b, i = b[12:], i+1 {
			// One unsigned comparison a reference: a negative id is a
			// large one, and nv is at most maxDecodeElems.
			v := [3]uint32{le.Uint32(b), le.Uint32(b[4:]), le.Uint32(b[8:])}
			if v[0] >= nv || v[1] >= nv || v[2] >= nv {
				id := v[0]
				for _, id = range v {
					if id >= nv {
						break
					}
				}
				return fmt.Errorf("mesh: triangle %d references vertex %d out of range", i, int32(id))
			}
			if !inPlace {
				tris[i] = Tri{V: [3]VertexID{VertexID(v[0]), VertexID(v[1]), VertexID(v[2])}, N: [3]TriID{NoTri, NoTri, NoTri}}
			}
		}
	}
	if b, err = src.take(4); err != nil {
		return err
	}
	nc := le.Uint32(b)
	if nc > maxDecodeElems {
		return fmt.Errorf("mesh: constraint count %d exceeds limit %d (corrupt blob?)", nc, maxDecodeElems)
	}
	if src.short(int(nc) * 8) {
		return io.ErrUnexpectedEOF
	}
	cons := slices.Grow(sec.cons[:0], int(nc))[:nc]
	for i := 0; i < len(cons); {
		if b, err = src.records(len(cons)-i, 8); err != nil {
			return err
		}
		for ; len(b) >= 8; b, i = b[8:], i+1 {
			a, c := le.Uint32(b), le.Uint32(b[4:])
			if a >= nv || c >= nv {
				return fmt.Errorf("mesh: constraint %d (%d,%d) references a vertex out of range", i, int32(a), int32(c))
			}
			cons[i] = edgeKey{VertexID(a), VertexID(c)}
		}
	}
	if !inPlace {
		sec.verts, sec.tris = verts, tris
	}
	sec.cons = cons
	return nil
}

// finite reports whether the float64 with the given bits is finite: its
// exponent is not all ones, as it is for ±Inf and every NaN.
func finite(bits uint64) bool { return bits>>52&0x7ff != 0x7ff }

// DecodeFrom reads a mesh previously written by EncodeTo and replaces the
// receiver's contents. Triangle adjacency is rebuilt from the vertex triples.
// It reads exactly the encoding's bytes from r and no more. A coordinate
// that is not finite is an error: no mesh generator's refinement makes one,
// and the predicates, whose exact signs the kernel relies on, are exact for
// finite coordinates only.
func (m *Mesh) DecodeFrom(r io.Reader) error {
	s := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(s)
	sec := sections{cons: s.cons}
	err := readSections(&source{r: r, buf: s.buf[:]}, &sec, false)
	s.cons = sec.cons
	if err != nil {
		return err
	}
	verts, super, tris := sec.verts, sec.super, sec.tris
	constrained := make(map[edgeKey]bool, len(sec.cons))
	for _, e := range sec.cons {
		constrained[mkEdge(e.a, e.b)] = true
	}

	flags := make([]triFlags, len(tris))
	vertTri := make([]TriID, len(verts))
	for i := range vertTri {
		vertTri[i] = NoTri
	}
	for i := range tris {
		flags[i] = flagAlive
		for _, v := range tris[i].V {
			vertTri[v] = TriID(i)
		}
	}
	s.bucketHalfEdges(tris, len(verts))
	s.linkNeighbors(tris)
	for e := range constrained {
		for _, h := range s.edgesOf(e) {
			flags[h.ref>>3] |= flagEdge0 << (h.ref >> 1 & 3)
		}
	}

	m.verts = verts
	m.tris = tris
	m.flags = flags
	m.vertTri = vertTri
	m.free = nil
	m.constrained = constrained
	m.super = super
	m.nAlive = len(tris)
	return nil
}

// bucketHalfEdges files the three directed edges of every triangle under
// their lower endpoint (a counting sort over nv vertices, in triangle
// order), then orders each bucket by higher endpoint, keeping triangle order
// among equals. Afterwards the two directions of an edge sit side by side.
func (s *decodeScratch) bucketHalfEdges(tris []Tri, nv int) {
	s.first = append(s.first[:0], make([]uint32, nv+1)...)
	for i := range tris {
		v := tris[i].V
		s.first[min(v[1], v[2])]++
		s.first[min(v[2], v[0])]++
		s.first[min(v[0], v[1])]++
	}
	sum := uint32(0)
	for v, n := range s.first {
		s.first[v] = sum
		sum += n
	}
	if cap(s.half) < 3*len(tris) {
		s.half = make([]halfEdge, 3*len(tris))
	}
	s.half = s.half[:3*len(tris)]
	file := func(a, b VertexID, ref uint32) {
		if a > b {
			a, b, ref = b, a, ref|1
		}
		s.half[s.first[a]] = halfEdge{hi: b, ref: ref}
		s.first[a]++
	}
	for i := range tris {
		v, ref := tris[i].V, uint32(i)<<3
		file(v[1], v[2], ref)
		file(v[2], v[0], ref|1<<1)
		file(v[0], v[1], ref|2<<1)
	}
	// Filling advanced first[v] to the end of bucket v; shift it back.
	copy(s.first[1:], s.first)
	s.first[0] = 0
	for v := 0; v < nv; v++ {
		sortByHi(s.half[s.first[v]:s.first[v+1]])
	}
}

// sortByHi sorts one vertex's half-edges by higher endpoint, stably. A
// bucket holds about six, so an insertion sort in place of a call per
// comparison is most of what bucketing costs; the library sort bounds the
// time on a malformed input that hangs every edge on one vertex.
func sortByHi(b []halfEdge) {
	if len(b) > 32 {
		slices.SortStableFunc(b, func(x, y halfEdge) int { return cmp.Compare(x.hi, y.hi) })
		return
	}
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && b[j].hi < b[j-1].hi; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}

// edgesOf returns the half-edges between e's endpoints.
func (s *decodeScratch) edgesOf(e edgeKey) []halfEdge {
	if e.a < 0 || int(e.a) >= len(s.first)-1 {
		return nil
	}
	bucket := s.half[s.first[e.a]:s.first[e.a+1]]
	lo, _ := slices.BinarySearchFunc(bucket, e.b, func(h halfEdge, b VertexID) int { return cmp.Compare(h.hi, b) })
	hi := lo
	for hi < len(bucket) && bucket[hi].hi == e.b {
		hi++
	}
	return bucket[lo:hi]
}

// linkNeighbors sets, for every half-edge, the neighbor across it: the
// triangle holding the same edge in the opposite direction — the last such
// triangle if a malformed input offers several.
func (s *decodeScratch) linkNeighbors(tris []Tri) {
	for v := 0; v+1 < len(s.first); v++ {
		bucket := s.half[s.first[v]:s.first[v+1]]
		for len(bucket) > 0 {
			n := 1
			for n < len(bucket) && bucket[n].hi == bucket[0].hi {
				n++
			}
			last := [2]TriID{NoTri, NoTri} // by direction
			for _, h := range bucket[:n] {
				last[h.ref&1] = TriID(h.ref >> 3)
			}
			for _, h := range bucket[:n] {
				tris[h.ref>>3].N[h.ref>>1&3] = last[h.ref&1^1]
			}
			bucket = bucket[n:]
		}
	}
}
