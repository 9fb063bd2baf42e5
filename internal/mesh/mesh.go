// Package mesh implements the 2-D triangular mesh data structure shared by
// all mesh generation methods in this repository: an incremental
// Bowyer–Watson Delaunay kernel with exact predicates, constrained edges
// (constrained Delaunay triangulation), point location by walking, exterior
// carving and a compact binary serialization used by the out-of-core layers.
package mesh

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"mrts/internal/geom"
)

// VertexID identifies a vertex within a Mesh. Vertex IDs are dense and
// stable: vertices are never removed.
type VertexID int32

// TriID identifies a triangle within a Mesh. Triangle IDs are recycled when
// triangles die during cavity retriangulation; they are not stable across
// serialization.
type TriID int32

// NoTri is the nil triangle ID (no neighbor across an edge, i.e. a boundary).
const NoTri TriID = -1

// NoVertex is the nil vertex ID.
const NoVertex VertexID = -1

// Tri is a single triangle. V holds the corner vertices in counter-clockwise
// order. N[i] is the neighbor sharing the edge opposite V[i] (the edge
// (V[i+1], V[i+2])), or NoTri if that edge has no neighbor.
type Tri struct {
	V [3]VertexID
	N [3]TriID
}

// Errors returned by mesh mutation operations.
var (
	ErrDuplicate      = errors.New("mesh: point coincides with an existing vertex")
	ErrOutside        = errors.New("mesh: point lies outside the triangulation")
	ErrCrossConstrain = errors.New("mesh: segment crosses a constrained edge")
	ErrNoPath         = errors.New("mesh: cannot recover segment")
)

type edgeKey struct{ a, b VertexID }

func mkEdge(a, b VertexID) edgeKey {
	if a > b {
		a, b = b, a
	}
	return edgeKey{a, b}
}

// triFlags is the per-slot state of a triangle: whether the slot is live and
// which of its three edges are constrained.
type triFlags uint8

const (
	flagAlive triFlags = 1 << iota
	flagEdge0          // edge k is constrained when flagEdge0<<k is set
)

// Mesh is a mutable 2-D triangulation.
//
// A Mesh is not safe for concurrent mutation; the parallel mesh generation
// methods give every processing element its own Mesh (one per subdomain),
// matching the mobile-object decomposition of the paper.
type Mesh struct {
	verts []geom.Point
	tris  []Tri
	flags []triFlags
	free  []TriID

	// vertTri[v] is some triangle incident to v, used as a location hint
	// and to start incident-triangle walks.
	vertTri []TriID

	// constrained is the set of constrained edges by vertex pair. It is the
	// truth: an edge may be marked before it exists in the triangulation.
	// The edge bits of flags cache it for the edges that do exist, and
	// Validate checks the two against each other.
	constrained map[edgeKey]bool

	// scr is the working storage of the mutating operations; nil on a mesh
	// that has not been mutated since ReleaseScratch.
	scr *scratch

	// splitHook, when set, observes every constrained-edge split (see
	// SetSplitHook). It is not serialized.
	splitHook func(a, b, mid geom.Point)

	// super holds the three synthetic bounding vertices created by
	// InitSuper, or NoVertex if the mesh has no super triangle.
	super [3]VertexID

	nAlive int

	// store is the record New took the slices' storage from, for Recycle
	// to give it back in.
	store *storage
}

// storage is the backing arrays of a mesh's slices, kept between meshes by
// storagePool. The drivers make and drop a mesh per block or leaf, each of
// which would otherwise grow its slices from nothing, by doubling, and leave
// every array it outgrew to the collector.
type storage struct {
	verts   []geom.Point
	tris    []Tri
	flags   []triFlags
	free    []TriID
	vertTri []TriID
}

var storagePool = sync.Pool{New: func() any { return new(storage) }}

// New returns an empty mesh. Its slices start empty, on storage a recycled
// mesh gave back when there is some: capacity changes no triangle ID and no
// insertion order, so the mesh built is the same either way.
func New() *Mesh {
	s := storagePool.Get().(*storage)
	m := &Mesh{
		verts:       s.verts[:0],
		tris:        s.tris[:0],
		flags:       s.flags[:0],
		free:        s.free[:0],
		vertTri:     s.vertTri[:0],
		constrained: make(map[edgeKey]bool),
		super:       [3]VertexID{NoVertex, NoVertex, NoVertex},
		store:       s,
	}
	*s = storage{} // the mesh holds the arrays now, and DecodeFrom may drop them
	return m
}

// Recycle gives the mesh's storage back for New to reuse, hands back its
// scratch, and zeroes the mesh, so that any later use finds nothing instead
// of another mesh's data. Only the mesh's owner may call it, once it is done
// with the mesh: nothing may read or mutate it afterwards, and nothing read
// from it may alias its storage (HullPoints, EncodeTo and the counts copy).
func (m *Mesh) Recycle() {
	m.ReleaseScratch()
	s := m.store
	if s == nil { // a decoded mesh: its slices were made by DecodeFrom
		s = new(storage)
	}
	*s = storage{verts: m.verts[:0], tris: m.tris[:0], flags: m.flags[:0], free: m.free[:0], vertTri: m.vertTri[:0]}
	*m = Mesh{}
	storagePool.Put(s)
}

// NumVertices returns the number of vertices, including super vertices.
func (m *Mesh) NumVertices() int { return len(m.verts) }

// NumTriangles returns the number of live triangles.
func (m *Mesh) NumTriangles() int { return m.nAlive }

// Vertex returns the position of v.
func (m *Mesh) Vertex(v VertexID) geom.Point { return m.verts[v] }

// Tri returns the triangle record for t. The caller must not retain the
// returned value across mutations.
func (m *Mesh) Tri(t TriID) Tri { return m.tris[t] }

// live reports whether slot t, which must be in range, holds a triangle.
func (m *Mesh) live(t TriID) bool { return m.flags[t]&flagAlive != 0 }

// Alive reports whether triangle t is live.
func (m *Mesh) Alive(t TriID) bool {
	return t >= 0 && int(t) < len(m.tris) && m.live(t)
}

// IsSuper reports whether v is one of the synthetic bounding vertices.
func (m *Mesh) IsSuper(v VertexID) bool {
	return v == m.super[0] || v == m.super[1] || v == m.super[2]
}

// HasSuperVertex reports whether triangle t touches a super vertex.
func (m *Mesh) HasSuperVertex(t TriID) bool {
	tr := m.tris[t]
	return m.IsSuper(tr.V[0]) || m.IsSuper(tr.V[1]) || m.IsSuper(tr.V[2])
}

// Triangle returns the geometric triangle for t.
func (m *Mesh) Triangle(t TriID) geom.Triangle {
	tr := m.tris[t]
	return geom.Triangle{A: m.verts[tr.V[0]], B: m.verts[tr.V[1]], C: m.verts[tr.V[2]]}
}

// ForEachTri calls f for every live triangle. f must not mutate the mesh.
func (m *Mesh) ForEachTri(f func(TriID, Tri)) {
	for i := range m.tris {
		if m.live(TriID(i)) {
			f(TriID(i), m.tris[i])
		}
	}
}

// room returns s with space for one more element, doubling a full slice.
// append alone grows a large slice by a quarter, which copies a mesh that
// refinement grows from a few triangles to thousands five times over;
// doubling copies it twice.
func room[T any](s []T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 16))
	}
	return s
}

// addVertex appends a vertex without any triangulation bookkeeping.
func (m *Mesh) addVertex(p geom.Point) VertexID {
	m.verts = append(room(m.verts), p)
	m.vertTri = append(room(m.vertTri), NoTri)
	return VertexID(len(m.verts) - 1)
}

// newTri allocates a triangle (recycling dead slots) with the given CCW
// vertices, no neighbors and no constrained edge.
func (m *Mesh) newTri(a, b, c VertexID) TriID {
	var id TriID
	if n := len(m.free); n > 0 {
		id = m.free[n-1]
		m.free = m.free[:n-1]
		m.tris[id] = Tri{V: [3]VertexID{a, b, c}, N: [3]TriID{NoTri, NoTri, NoTri}}
		m.flags[id] = flagAlive
	} else {
		m.tris = append(room(m.tris), Tri{V: [3]VertexID{a, b, c}, N: [3]TriID{NoTri, NoTri, NoTri}})
		m.flags = append(room(m.flags), flagAlive)
		id = TriID(len(m.tris) - 1)
	}
	m.nAlive++
	m.vertTri[a] = id
	m.vertTri[b] = id
	m.vertTri[c] = id
	return id
}

func (m *Mesh) killTri(t TriID) {
	if !m.live(t) {
		return
	}
	m.flags[t] = 0
	m.free = append(m.free, t)
	m.nAlive--
}

// link makes u the neighbor of t across t's edge i and fixes the backlink in
// u. u may be NoTri.
func (m *Mesh) link(t TriID, i int, u TriID) {
	m.tris[t].N[i] = u
	if u == NoTri {
		return
	}
	// Find the edge of u that matches (t.v[i+1], t.v[i+2]) reversed.
	a := m.tris[t].V[(i+1)%3]
	b := m.tris[t].V[(i+2)%3]
	for j := 0; j < 3; j++ {
		ua := m.tris[u].V[(j+1)%3]
		ub := m.tris[u].V[(j+2)%3]
		if ua == b && ub == a {
			m.tris[u].N[j] = t
			return
		}
	}
	panic("mesh: link: triangles do not share the edge")
}

// vertIndex returns the index of v within triangle t, or -1.
func (m *Mesh) vertIndex(t TriID, v VertexID) int {
	for i := 0; i < 3; i++ {
		if m.tris[t].V[i] == v {
			return i
		}
	}
	return -1
}

// edgeIndex returns the index i such that triangle t's edge i is (a, b) in
// either direction, or -1.
func (m *Mesh) edgeIndex(t TriID, a, b VertexID) int {
	for i := 0; i < 3; i++ {
		ea := m.tris[t].V[(i+1)%3]
		eb := m.tris[t].V[(i+2)%3]
		if (ea == a && eb == b) || (ea == b && eb == a) {
			return i
		}
	}
	return -1
}

// InitSuper initializes the triangulation with a huge super triangle
// enclosing r. All real points inserted later must lie within r.
func (m *Mesh) InitSuper(r geom.Rect) {
	if len(m.verts) != 0 {
		panic("mesh: InitSuper on non-empty mesh")
	}
	c := r.Center()
	d := r.W() + r.H() + 1
	// A triangle large enough that the circumcircles of all real triangles
	// stay well inside. 64x margin keeps walking robust.
	const k = 64.0
	s0 := m.addVertex(geom.Pt(c.X-2*k*d, c.Y-k*d))
	s1 := m.addVertex(geom.Pt(c.X+2*k*d, c.Y-k*d))
	s2 := m.addVertex(geom.Pt(c.X, c.Y+2*k*d))
	m.super = [3]VertexID{s0, s1, s2}
	m.newTri(s0, s1, s2)
}

// SetConstrained marks or unmarks the edge (a, b) as constrained. The edge is
// not required to be present in the triangulation (PCDM marks subdomain
// boundary segments before recovery).
func (m *Mesh) SetConstrained(a, b VertexID, c bool) {
	k := mkEdge(a, b)
	if c {
		m.constrained[k] = true
	} else {
		delete(m.constrained, k)
	}
	if t := m.findEdge(a, b); t != NoTri {
		m.flagEdge(t, m.edgeIndex(t, a, b), c)
	}
}

// flagEdge sets or clears the constrained bit of t's edge i, and of the same
// edge in the neighbor across it.
func (m *Mesh) flagEdge(t TriID, i int, c bool) {
	set := func(x TriID, k int) {
		if c {
			m.flags[x] |= flagEdge0 << k
		} else {
			m.flags[x] &^= flagEdge0 << k
		}
	}
	set(t, i)
	if n := m.tris[t].N[i]; n != NoTri {
		tr := m.tris[t]
		set(n, m.edgeIndex(n, tr.V[(i+1)%3], tr.V[(i+2)%3]))
	}
}

// IsConstrained reports whether edge (a, b) is constrained.
func (m *Mesh) IsConstrained(a, b VertexID) bool {
	return m.constrained[mkEdge(a, b)]
}

// EdgeConstrained reports whether edge i of live triangle t (the edge
// opposite V[i]) is constrained, without hashing the vertex pair.
func (m *Mesh) EdgeConstrained(t TriID, i int) bool {
	return m.flags[t]&(flagEdge0<<i) != 0
}

// SetSplitHook installs (or clears, with nil) a callback invoked whenever a
// constrained edge is split by a point insertion, with the original
// endpoints and the inserted point. PCDM propagates interface splits to
// neighbor subdomains through it.
func (m *Mesh) SetSplitHook(hook func(a, b, mid geom.Point)) { m.splitHook = hook }

// ForEachConstrained calls f for every constrained edge.
func (m *Mesh) ForEachConstrained(f func(a, b VertexID)) {
	for k := range m.constrained {
		f(k.a, k.b)
	}
}

// IncidentTri returns some live triangle incident to v, or NoTri.
func (m *Mesh) IncidentTri(v VertexID) TriID {
	t := m.vertTri[v]
	if t != NoTri && m.live(t) && m.vertIndex(t, v) >= 0 {
		return t
	}
	// Hint is stale: scan (rare; hints are refreshed on every newTri).
	for i := range m.tris {
		if m.live(TriID(i)) && m.vertIndex(TriID(i), v) >= 0 {
			m.vertTri[v] = TriID(i)
			return TriID(i)
		}
	}
	return NoTri
}

// String implements fmt.Stringer with a short summary.
func (m *Mesh) String() string {
	return fmt.Sprintf("mesh{verts: %d, tris: %d, constrained: %d}",
		len(m.verts), m.nAlive, len(m.constrained))
}
