package meshgen

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

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

// comparePointsTotal is the digest's documented point order: x and then y as
// cmp.Compare orders floats, then the bits of x and of y.
func comparePointsTotal(p, q geom.Point) int {
	return cmp.Or(cmp.Compare(p.X, q.X), cmp.Compare(p.Y, q.Y),
		cmp.Compare(math.Float64bits(p.X), math.Float64bits(q.X)),
		cmp.Compare(math.Float64bits(p.Y), math.Float64bits(q.Y)))
}

// hashedTriangles decodes data in full and returns the corner points of its
// triangles that touch no super vertex, or false if it does not decode.
func hashedTriangles(data []byte) ([][3]geom.Point, bool) {
	m := mesh.New()
	if err := m.DecodeFrom(bytes.NewReader(data)); err != nil {
		return nil, false
	}
	tris := make([][3]geom.Point, 0, m.NumTriangles())
	m.ForEachTri(func(t mesh.TriID, _ mesh.Tri) {
		if !m.HasSuperVertex(t) {
			g := m.Triangle(t)
			tris = append(tris, [3]geom.Point{g.A, g.B, g.C})
		}
	})
	return tris, true
}

// totalOrderOracle is the digest as its doc comment defines it, computed the
// slow way: every triangle's corners sorted by comparePointsTotal, the list
// sorted by the same order corner by corner, and the coordinates' bits hashed.
// Unlike oracleHashMesh it is defined on every input, tied points included.
func totalOrderOracle(data []byte) []byte {
	tris, ok := hashedTriangles(data)
	if !ok {
		return undecodable(data)
	}
	for i := range tris {
		slices.SortFunc(tris[i][:], comparePointsTotal)
	}
	slices.SortFunc(tris, func(a, b [3]geom.Point) int {
		return slices.CompareFunc(a[:], b[:], comparePointsTotal)
	})
	var buf []byte
	for _, tr := range tris {
		for _, p := range tr {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
		}
	}
	h := sha256.Sum256(buf)
	return h[:]
}

// undecodable is what hashMesh makes of a blob DecodeFrom rejects.
func undecodable(data []byte) []byte {
	h := sha256.Sum256(append([]byte("undecodable:"), data...))
	return h[:]
}

// tieFree reports whether oracleHashMesh is defined on data: none of the
// points it hashes has a NaN coordinate, which its plain float comparisons
// leave wherever the encoding put it, and no two of them compare equal yet
// differ in bits (-0 against +0), which its sort orders as it finds them.
func tieFree(data []byte) bool {
	tris, _ := hashedTriangles(data)
	seen := map[geom.Point]geom.Point{} // by value, -0 folded into +0
	for _, tr := range tris {
		for _, p := range tr {
			if p.X != p.X || p.Y != p.Y {
				return false
			}
			key := geom.Pt(p.X+0, p.Y+0)
			if q, ok := seen[key]; ok && comparePointsTotal(p, q) != 0 {
				return false
			}
			seen[key] = p
		}
	}
	return true
}

// sameDigest requires hashMesh to equal the total-order oracle, and the old
// oracle too wherever that one is defined; it reports whether it was.
func sameDigest(t testing.TB, what string, data []byte) (tieFreeInput bool) {
	t.Helper()
	got := hashMesh(data)
	if want := totalOrderOracle(data); !bytes.Equal(got, want) {
		t.Fatalf("%s: hashMesh = %x, total-order oracle %x", what, got, want)
	}
	if !tieFree(data) {
		return false
	}
	if want := oracleHashMesh(data); !bytes.Equal(got, want) {
		t.Fatalf("%s: hashMesh = %x, oracle %x", what, got, want)
	}
	return true
}

// rawMesh is a mesh as rawEncoding takes it.
type rawMesh struct {
	verts []geom.Point
	super [3]int32
	tris  [][3]int32
	cons  [][2]int32
}

func (r rawMesh) encoding() []byte { return rawEncoding(r.verts, r.super, r.tris, r.cons) }

// rawOf takes an encoded mesh apart again.
func rawOf(t testing.TB, data []byte) rawMesh {
	t.Helper()
	m := mesh.New()
	if err := m.DecodeFrom(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var r rawMesh
	for v := 0; v < m.NumVertices(); v++ {
		r.verts = append(r.verts, m.Vertex(mesh.VertexID(v)))
	}
	// Decoding keeps no public record of the super vertex ids; they follow
	// the points on the wire.
	off := 12 + 16*m.NumVertices()
	for i := range r.super {
		r.super[i] = int32(binary.LittleEndian.Uint32(data[off+4*i:]))
	}
	m.ForEachTri(func(_ mesh.TriID, tr mesh.Tri) {
		r.tris = append(r.tris, [3]int32{int32(tr.V[0]), int32(tr.V[1]), int32(tr.V[2])})
	})
	m.ForEachConstrained(func(a, b mesh.VertexID) { r.cons = append(r.cons, [2]int32{int32(a), int32(b)}) })
	slices.SortFunc(r.cons, func(x, y [2]int32) int { return slices.Compare(x[:], y[:]) })
	return r
}

// permuted is r renumbered: its vertices in a random order (NoVertex, which
// a super vertex may carry, stays), its triangles shuffled and each
// rotated.
func (r rawMesh) permuted(rng *rand.Rand) rawMesh {
	out := r.renumbered(rng.Perm(len(r.verts)))
	tris := out.tris
	out.tris = nil
	for _, i := range rng.Perm(len(tris)) {
		tr, k := tris[i], rng.Intn(3)
		out.tris = append(out.tris, [3]int32{tr[k], tr[(k+1)%3], tr[(k+2)%3]})
	}
	return out
}

// renumbered is r with vertex v numbered perm[v] (NoVertex, which a super
// vertex may carry, stays), its triangles and constraints following in
// their order.
func (r rawMesh) renumbered(perm []int) rawMesh {
	id := func(v int32) int32 {
		if v < 0 || int(v) >= len(perm) {
			return v
		}
		return int32(perm[v])
	}
	out := rawMesh{verts: make([]geom.Point, len(r.verts))}
	for v, p := range r.verts {
		out.verts[perm[v]] = p
	}
	for i, s := range r.super {
		out.super[i] = id(s)
	}
	for _, tr := range r.tris {
		out.tris = append(out.tris, [3]int32{id(tr[0]), id(tr[1]), id(tr[2])})
	}
	for _, c := range r.cons {
		out.cons = append(out.cons, [2]int32{id(c[0]), id(c[1])})
	}
	return out
}

// adversarialMesh draws a small encoding no Mesh would produce: coordinates
// from a handful of values so that equal points and -0 against +0 meet in
// one triangle list, super vertex ids absent or real. Every id and every
// coordinate is one the decoder accepts; the "rejected blobs" cases put ids
// out of range and coordinates that are not finite.
func adversarialMesh(rng *rand.Rand) rawMesh {
	coords := []float64{0, math.Copysign(0, -1), 1, -1, 0.5}
	nv := 1 + rng.Intn(12)
	r := rawMesh{verts: make([]geom.Point, nv)}
	for i := range r.verts {
		r.verts[i] = geom.Pt(coords[rng.Intn(len(coords))], coords[rng.Intn(len(coords))])
	}
	for i := range r.super {
		r.super[i] = int32(rng.Intn(nv+1)) - 1 // NoVertex … nv-1
	}
	r.tris = make([][3]int32, rng.Intn(40))
	for i := range r.tris {
		for k := range r.tris[i] {
			r.tris[i][k] = int32(rng.Intn(nv))
		}
	}
	r.cons = make([][2]int32, rng.Intn(4))
	for i := range r.cons {
		r.cons[i] = [2]int32{int32(rng.Intn(nv)), int32(rng.Intn(nv))}
	}
	return r
}

// refinedBlock is the encoding of one refined block of spacing h.
func refinedBlock(t testing.TB, r geom.Rect, h float64) []byte {
	t.Helper()
	bm, err := meshBlock(r, h, math.Sqrt2)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := bm.mesh.EncodeTo(&enc); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// wellFormed is a two-triangle encoding with one constraint, the stock the
// rejected blobs are cut from.
func wellFormed() []byte {
	return rawEncoding(
		[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 1)},
		[3]int32{-1, -1, -1}, [][3]int32{{0, 1, 2}, {1, 3, 2}}, [][2]int32{{0, 1}})
}

// TestHashMeshMatchesOracle requires the digest to equal the total-order
// oracle everywhere and the full-decode reference it replaced wherever that
// is defined: on refined blocks, on adversarial encodings and on blobs all
// three must reject.
func TestHashMeshMatchesOracle(t *testing.T) {
	t.Run("refined blocks", func(t *testing.T) {
		for _, h := range []float64{0.2, 0.07, 0.03} {
			enc := refinedBlock(t, geom.NewRect(geom.Pt(0.25, 0.5), geom.Pt(0.5, 0.75)), h)
			if !sameDigest(t, "refined block", enc) {
				t.Fatal("a refined block has tied points")
			}
			// The encoding may be followed by other data; both read only
			// their own bytes.
			sameDigest(t, "trailing bytes", append(enc, "tail"...))
		}
	})

	t.Run("adversarial encodings", func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		free := 0
		for trial := 0; trial < 300; trial++ {
			if sameDigest(t, "adversarial encoding", adversarialMesh(rng).encoding()) {
				free++
			}
		}
		if free < 50 {
			t.Fatalf("only %d of 300 encodings are tie-free: the old oracle checks too little", free)
		}
	})

	t.Run("rejected blobs", func(t *testing.T) {
		good := wellFormed()
		sameDigest(t, "well-formed", good)
		// Every truncation loses part of a section DecodeFrom reads — the
		// constraint section, which the digest ignores, included.
		for n := 0; n < len(good); n++ {
			sameDigest(t, "truncated", good[:n])
			if !bytes.Equal(hashMesh(good[:n]), undecodable(good[:n])) {
				t.Fatalf("blob truncated to %d of %d bytes was digested as a mesh", n, len(good))
			}
		}
		// Every u32 in turn blown up: bad magic, bad version, counts over
		// the bound or past the data, vertex references out of range, a
		// coordinate turned NaN.
		for off := 0; off+4 <= len(good); off += 4 {
			mut := bytes.Clone(good)
			binary.LittleEndian.PutUint32(mut[off:], 0xFFFFFFF0)
			sameDigest(t, "corrupted", mut)
		}
		// Every coordinate in turn made infinite or NaN: no reader takes it.
		for off := 12; off < 12+16*4; off += 8 {
			for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
				mut := bytes.Clone(good)
				binary.LittleEndian.PutUint64(mut[off:], math.Float64bits(x))
				sameDigest(t, "not finite", mut)
				if !bytes.Equal(hashMesh(mut), undecodable(mut)) {
					t.Fatalf("a coordinate %v at byte %d was digested as a mesh", x, off)
				}
			}
		}
	})
}

// TestHashMeshPermutationInvariant renumbers vertices, shuffles triangles and
// rotates each: the digest must not move. On tied points — the adversarial
// encodings are full of them — it did before the order on points was total.
func TestHashMeshPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	check := func(what string, r rawMesh) {
		t.Helper()
		want := hashMesh(r.encoding())
		for i := 0; i < 4; i++ {
			if got := hashMesh(r.permuted(rng).encoding()); !bytes.Equal(got, want) {
				t.Fatalf("%s: digest %x, renumbered %x", what, want, got)
			}
		}
	}
	check("refined block", rawOf(t, refinedBlock(t, geom.NewRect(geom.Pt(0.25, 0.5), geom.Pt(0.5, 0.75)), 0.03)))
	// The case of the issue: two triangles apart only in the sign of a zero.
	check("signed zeros", rawMesh{
		verts: []geom.Point{geom.Pt(0, 0), geom.Pt(math.Copysign(0, -1), 0), geom.Pt(1, 0), geom.Pt(0, 1)},
		super: [3]int32{-1, -1, -1}, tris: [][3]int32{{0, 2, 3}, {1, 2, 3}}})
	for trial := 0; trial < 300; trial++ {
		check("adversarial encoding", adversarialMesh(rng))
	}
}

// TestHashMeshWorstCaseShapes digests inputs built to defeat each bucketing
// — every point in one bucket, every triangle in one bucket, a range that
// outliers stretch or that overflows — and the empty ones. Each must
// match the oracles and cost, a triangle, no more than a generous multiple
// of what a refined block costs: a fallback that went quadratic would
// overshoot it by orders of magnitude.
func TestHashMeshWorstCaseShapes(t *testing.T) {
	noSuper := [3]int32{-1, -1, -1}
	block := refinedBlock(t, geom.NewRect(geom.Pt(0, 0), geom.Pt(1.0/16, 1.0/16)), 0.0015)
	perTriangle := func(data []byte, ntris int) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			hashSink = hashMesh(data)
			best = min(best, time.Since(t0))
		}
		return best / time.Duration(ntris)
	}
	base := max(perTriangle(block, len(rawOf(t, block).tris)), 50*time.Nanosecond)

	size := 1 << 18
	if testing.Short() {
		size = 1 << 12
	}
	strip := func(n int) [][3]int32 { // triangles (i, i+1, i+2)
		tris := make([][3]int32, n-2)
		for i := range tris {
			tris[i] = [3]int32{int32(i), int32(i + 1), int32(i + 2)}
		}
		return tris
	}
	column := rawMesh{super: noSuper, verts: make([]geom.Point, size), tris: strip(size)}
	for i := range column.verts {
		column.verts[i] = geom.Pt(0.5, float64((i*7919)%size))
	}
	star := rawMesh{super: noSuper, verts: make([]geom.Point, size+2), tris: make([][3]int32, size)}
	for i := range star.verts {
		star.verts[i] = geom.Pt(float64(i), float64(i%3))
	}
	for i := range star.tris { // all on vertex 0, the lowest, and in descending order
		star.tris[i] = [3]int32{int32(size - i), 0, int32(size - i + 1)}
	}
	equal := rawMesh{super: noSuper, verts: make([]geom.Point, size), tris: strip(size)}
	for i := range equal.verts {
		equal.verts[i] = geom.Pt(1, 1)
	}
	withOutliers := func(outliers ...float64) rawMesh {
		r := rawOf(t, block)
		for i, x := range outliers {
			r.verts = append(r.verts, geom.Pt(x, 0.01))
			r.tris = append(r.tris, [3]int32{int32(len(r.verts) - 1), int32(3 + i), int32(4 + i)})
		}
		return r
	}
	allSuper := rawMesh{super: [3]int32{0, 1, 2}, verts: column.verts[:64], tris: strip(64)}
	for i := range allSuper.tris {
		allSuper.tris[i][i%3] = int32(i % 3)
	}

	for _, c := range []struct {
		name      string
		mesh      rawMesh
		oldOracle bool // defined on it: no tied points
	}{
		{"one column", column, true},
		{"star", star, true},
		{"all points equal", equal, true},
		{"outliers 1e300", withOutliers(1e300, -1e300), true},
		{"outliers overflowing the range", withOutliers(1e300, math.MaxFloat64, -math.MaxFloat64), true},
		{"no triangles", rawMesh{super: noSuper, verts: column.verts[:64]}, true},
		{"no vertices", rawMesh{super: noSuper}, true},
		{"every triangle on a super vertex", allSuper, true},
	} {
		data := c.mesh.encoding()
		if got := sameDigest(t, c.name, data); got != c.oldOracle {
			t.Errorf("%s: tie-free = %v, want %v", c.name, got, c.oldOracle)
		}
		if n := len(c.mesh.tris); n > 0 {
			if per := perTriangle(data, n); per > 100*base {
				t.Errorf("%s: %v a triangle, over 100 times the refined block's %v", c.name, per, base)
			}
		}
	}
}

// canonical is data's canonical encoding.
func canonical(t testing.TB, data []byte) []byte {
	t.Helper()
	canon, _, err := mesh.Canonicalize(data)
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

// canonicalSeeds are canonical encodings — a refined block, a pair of
// triangles apart only in the sign of a zero, a mesh whose super triangles
// sort among the others — and near-canonical mutants of the block that the
// digest's linear pass must refuse: two vertices swapped, a point
// duplicated, a triangle that does not start at its lowest id, two
// triangles out of order.
func canonicalSeeds(t testing.TB) map[string][]byte {
	block := canonical(t, refinedBlock(t, geom.NewRect(geom.Pt(0.25, 0.5), geom.Pt(0.5, 0.75)), 0.2))
	r := rawOf(t, block)
	swap := make([]int, len(r.verts)) // vertices 3 and 4 trade places
	for v := range swap {
		swap[v] = v
	}
	swap[3], swap[4] = 4, 3
	dup := rawOf(t, block)
	dup.verts[1] = dup.verts[0]
	rotated := rawOf(t, block)
	tr := rotated.tris[2]
	rotated.tris[2] = [3]int32{tr[1], tr[2], tr[0]}
	swapped := rawOf(t, block)
	swapped.tris[2], swapped.tris[3] = swapped.tris[3], swapped.tris[2]

	m := mesh.New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
	for _, p := range []geom.Point{geom.Pt(0.2, 0.3), geom.Pt(0.7, 0.4), geom.Pt(0.5, 0.8), geom.Pt(0.4, 0.5)} {
		if _, err := m.InsertPoint(p, mesh.NoTri); err != nil {
			t.Fatal(err)
		}
	}
	var withSuper bytes.Buffer
	if err := m.EncodeTo(&withSuper); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"canonical-block": block,
		"canonical-signed-zeros": canonical(t, rawMesh{
			verts: []geom.Point{geom.Pt(math.Copysign(0, -1), 0), geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)},
			super: [3]int32{-1, -1, -1}, tris: [][3]int32{{0, 2, 3}, {1, 2, 3}}}.encoding()),
		"canonical-super-triangles": canonical(t, withSuper.Bytes()),
		"vertices-swapped":          r.renumbered(swap).encoding(),
		"point-duplicated":          dup.encoding(),
		"triangle-rotated":          rotated.encoding(),
		"triangles-swapped":         swapped.encoding(),
	}
}

// TestCanonicalSeeds checks that the seeds are what they claim: the
// canonical ones take the digest's linear pass (mesh.Canonicalize returns
// them as they are), the mutants do not, and each holds the properties.
func TestCanonicalSeeds(t *testing.T) {
	for name, data := range canonicalSeeds(t) {
		canon := canonical(t, data)
		if got := len(canon) > 0 && &canon[0] == &data[0]; got != strings.HasPrefix(name, "canonical-") {
			t.Errorf("%s: taken as canonical = %v", name, got)
		}
		sameDigest(t, name, data)
		canonicalProperties(t, name, data)
	}
}

// distinctCorners reports whether no two vertices of data share their bits,
// no triangle repeats a vertex and no two triangles share their corners:
// what the digest's linear pass needs beyond the order.
func distinctCorners(t testing.TB, data []byte) bool {
	r := rawOf(t, data)
	points := map[[2]uint64]bool{}
	for _, p := range r.verts {
		k := [2]uint64{math.Float64bits(p.X), math.Float64bits(p.Y)}
		if points[k] {
			return false
		}
		points[k] = true
	}
	tris := map[[3]int32]bool{}
	for _, tr := range r.tris {
		slices.Sort(tr[:])
		if tr[0] == tr[1] || tr[1] == tr[2] || tris[tr] {
			return false
		}
		tris[tr] = true
	}
	return true
}

// canonicalProperties holds mesh.Canonicalize to its contract on data: it
// fails exactly when decoding does; otherwise its output decodes to as many
// vertices and triangles, passes Validate if data does, digests as data
// does (and as it says), canonicalizes to itself, and — when no two
// vertices share their bits and no two triangles their corners — takes the
// linear pass and is what any renumbering of data canonicalizes to.
func canonicalProperties(t testing.TB, what string, data []byte) {
	t.Helper()
	canon, digest, err := mesh.Canonicalize(data)
	m := mesh.New()
	if derr := m.DecodeFrom(bytes.NewReader(data)); (err == nil) != (derr == nil) {
		t.Fatalf("%s: Canonicalize: %v, DecodeFrom: %v", what, err, derr)
	}
	if err != nil {
		return
	}
	if want := hashMesh(data); !bytes.Equal(digest, want) {
		t.Fatalf("%s: Canonicalize digest %x, hashMesh %x", what, digest, want)
	}
	if got := hashMesh(canon); !bytes.Equal(got, digest) {
		t.Fatalf("%s: canonical encoding digests %x, the input %x", what, got, digest)
	}
	c := mesh.New()
	if err := c.DecodeFrom(bytes.NewReader(canon)); err != nil {
		t.Fatalf("%s: canonical encoding does not decode: %v", what, err)
	}
	if c.NumVertices() != m.NumVertices() || c.NumTriangles() != m.NumTriangles() {
		t.Fatalf("%s: canonical mesh has %d vertices and %d triangles, the input %d and %d",
			what, c.NumVertices(), c.NumTriangles(), m.NumVertices(), m.NumTriangles())
	}
	if m.Validate() == nil {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: canonical mesh fails Validate: %v", what, err)
		}
	}
	again, _, err := mesh.Canonicalize(canon)
	if err != nil || !bytes.Equal(again, canon) {
		t.Fatalf("%s: canonicalizing the canonical encoding changed it (err %v)", what, err)
	}
	if !distinctCorners(t, canon) {
		return
	}
	if &again[0] != &canon[0] {
		t.Fatalf("%s: the canonical encoding did not take the linear pass", what)
	}
	renumbered := rawOf(t, data).permuted(rand.New(rand.NewSource(int64(len(data)))))
	if got := canonical(t, renumbered.encoding()); !bytes.Equal(got, canon) {
		t.Fatalf("%s: a renumbering canonicalizes differently", what)
	}
}

// encodeCanonicalMatches holds m.EncodeCanonical to mesh.Canonicalize of
// what m.EncodeTo writes — the same bytes and digest, or both an error —
// and the handler's canonicalOf to canonicalMesh of that encoding.
func encodeCanonicalMatches(t testing.TB, what string, m *mesh.Mesh) {
	t.Helper()
	var enc bytes.Buffer
	if err := m.EncodeTo(&enc); err != nil {
		t.Fatal(err)
	}
	want, wantDigest, werr := mesh.Canonicalize(enc.Bytes())
	got, digest, err := m.EncodeCanonical()
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: EncodeCanonical: %v, Canonicalize of the encoding: %v", what, err, werr)
	}
	if err == nil && (!bytes.Equal(got, want) || !bytes.Equal(digest, wantDigest)) {
		t.Fatalf("%s: EncodeCanonical wrote %d bytes digesting %x, Canonicalize %d bytes digesting %x",
			what, len(got), digest, len(want), wantDigest)
	}
	got, digest = canonicalOf(m)
	want, wantDigest = canonicalMesh(enc.Bytes())
	if !bytes.Equal(got, want) || !bytes.Equal(digest, wantDigest) {
		t.Fatalf("%s: canonicalOf gives %d bytes digesting %x, canonicalMesh %d bytes digesting %x",
			what, len(got), digest, len(want), wantDigest)
	}
}

// TestEncodeCanonicalMatchesCanonicalize writes the meshes the methods
// store straight to canonical form and checks them against canonicalizing
// their encoding: a refined OUPDR block, a graded ONUPDR leaf, a PCDM
// subdomain with the super vertices its carving left, a mesh with its super
// triangles, meshes whose vertices share their bits or whose triangles share
// their corners (the digest's rank-and-sort fallback), and a mesh with a
// coordinate that is not finite, which keeps its raw encoding and the
// undecodable digest.
func TestEncodeCanonicalMatchesCanonicalize(t *testing.T) {
	bm, err := meshBlock(geom.NewRect(geom.Pt(0, 0), geom.Pt(1.0/16, 1.0/16)), 0.0015, math.Sqrt2)
	if err != nil {
		t.Fatal(err)
	}
	encodeCanonicalMatches(t, "block", bm.mesh)

	size := gradedSizeFor(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)), 6, 200000)
	leaf, _, err := meshLeaf(geom.NewRect(geom.Pt(0.5, 0.5), geom.Pt(0.625, 0.625)), &size, math.Sqrt2, nil)
	if err != nil {
		t.Fatal(err)
	}
	encodeCanonicalMatches(t, "graded leaf", leaf)

	r := geom.NewRect(geom.Pt(0.25, 0), geom.Pt(0.5, 0.25))
	sub, err := newSubdomainMesh(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := refineSubdomain(sub, r, []geom.Point{geom.Pt(0.25, 0.125), geom.Pt(0.375, 0.25)}, 0, 1e-4, math.Sqrt2, [4]bool{}); err != nil {
		t.Fatal(err)
	}
	if sub.IncidentTri(0) != mesh.NoTri {
		t.Fatal("the subdomain's first vertex, a super vertex, is still in a triangle")
	}
	encodeCanonicalMatches(t, "PCDM subdomain", sub)

	withSuper := mesh.New()
	withSuper.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		if _, err := withSuper.InsertPoint(geom.Pt(rng.Float64(), rng.Float64()), mesh.NoTri); err != nil {
			t.Fatal(err)
		}
	}
	withSuper.SetConstrained(3, 4, true)
	encodeCanonicalMatches(t, "super triangles", withSuper)

	ties := 0
	for name, data := range canonicalSeeds(t) {
		m := mesh.New()
		if err := m.DecodeFrom(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		encodeCanonicalMatches(t, name, m)
	}
	for i := 0; i < 200; i++ {
		data := adversarialMesh(rng).encoding()
		m := mesh.New()
		if m.DecodeFrom(bytes.NewReader(data)) != nil {
			continue
		}
		if !distinctCorners(t, data) {
			ties++
		}
		encodeCanonicalMatches(t, fmt.Sprintf("adversarial %d", i), m)
	}
	if ties == 0 {
		t.Error("no adversarial mesh shared a vertex's bits or a triangle's corners")
	}

	// An overflowing super triangle: coordinates that are not finite.
	inf := mesh.New()
	inf.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(math.MaxFloat64, 1)))
	if _, _, err := inf.EncodeCanonical(); err == nil {
		t.Fatal("a mesh with coordinates that are not finite was written canonical")
	}
	encodeCanonicalMatches(t, "not finite", inf)
	var raw bytes.Buffer
	if err := inf.EncodeTo(&raw); err != nil {
		t.Fatal(err)
	}
	if canon, digest := canonicalOf(inf); !bytes.Equal(canon, raw.Bytes()) || !bytes.Equal(digest, undecodableDigest(raw.Bytes())) {
		t.Fatal("a mesh that does not decode did not keep its raw encoding and the undecodable digest")
	}
}

// FuzzHashMeshMatchesOracle feeds the digest whatever bytes the fuzzer finds,
// starting from the adversarial encodings, the rejected blobs, and canonical
// encodings with near-canonical mutants of them (canonicalSeeds, checked in
// under testdata/fuzz): it must agree with the total-order oracle, and with
// the old one where that is defined, a renumbering of anything that decodes
// must digest alike, mesh.Canonicalize must hold canonicalProperties, and
// the mesh anything decodes to must write itself canonical as Canonicalize
// writes its encoding (encodeCanonicalMatches).
func FuzzHashMeshMatchesOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 24; i++ {
		f.Add(adversarialMesh(rng).encoding())
	}
	good := wellFormed()
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(good[:20])
	f.Add(append(bytes.Clone(good), "tail"...))
	f.Add([]byte("not a mesh"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameDigest(t, "fuzzed", data)
		canonicalProperties(t, "fuzzed", data)
		if m := mesh.New(); m.DecodeFrom(bytes.NewReader(data)) == nil {
			encodeCanonicalMatches(t, "fuzzed", m)
		}
		if _, ok := hashedTriangles(data); ok {
			r := rawOf(t, data)
			want := hashMesh(r.encoding())
			if got := hashMesh(r.permuted(rand.New(rand.NewSource(int64(len(data))))).encoding()); !bytes.Equal(got, want) {
				t.Fatalf("digest %x, renumbered %x", want, got)
			}
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
// (about 6 000 triangles, 120 KB encoded) in two encodings of it: as the
// mesh writes it (pre-canonical: the ranking and sorting) and as an OUPDR
// block stores it (canonical: the linear pass).
func BenchmarkHashMesh(b *testing.B) {
	bm, err := meshBlock(geom.NewRect(geom.Pt(0, 0), geom.Pt(1.0/16, 1.0/16)), 0.0015, math.Sqrt2)
	if err != nil {
		b.Fatal(err)
	}
	var enc bytes.Buffer
	if err := bm.mesh.EncodeTo(&enc); err != nil {
		b.Fatal(err)
	}
	canon, _, err := mesh.Canonicalize(enc.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{{"pre-canonical", enc.Bytes()}, {"canonical", canon}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			for i := 0; i < b.N; i++ {
				hashSink = hashMesh(c.data)
			}
			b.ReportMetric(float64(bm.mesh.NumTriangles()), "triangles")
		})
	}
}
