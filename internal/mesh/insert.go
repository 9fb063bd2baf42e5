package mesh

import "mrts/internal/geom"

// InsertPoint inserts p into the triangulation using the Bowyer–Watson
// cavity algorithm and returns the new vertex ID. hint is a triangle to
// start point location from (NoTri is allowed).
//
// If p coincides with an existing vertex, that vertex is returned together
// with ErrDuplicate. If p falls on a constrained edge, the edge is split:
// both halves are marked constrained.
//
// The cavity search never crosses constrained edges, so inserting a point
// strictly inside a region bounded by constrained segments only retriangulates
// that region — the property the subdomain-local refinement of UPDR/NUPDR and
// PCDM relies on.
func (m *Mesh) InsertPoint(p geom.Point, hint TriID) (VertexID, error) {
	return m.insertAt(p, m.Locate(p, hint))
}

// SplitEdge inserts the midpoint of the existing edge (a, b) by a purely
// topological seed (no point location), which is robust even when the
// floating-point midpoint falls a few ulps off the segment — the common case
// for boundary segments of non-axis-aligned domains. If the edge is
// constrained both halves end up constrained.
func (m *Mesh) SplitEdge(a, b VertexID) (VertexID, error) {
	t := m.findEdge(a, b)
	if t == NoTri {
		return NoVertex, ErrNoPath
	}
	mid := m.verts[a].Mid(m.verts[b])
	if mid.Eq(m.verts[a]) || mid.Eq(m.verts[b]) {
		return NoVertex, ErrDuplicate // edge too short to split in float64
	}
	i := m.edgeIndex(t, a, b)
	return m.insertAt(mid, Location{Kind: LocateOnEdge, Tri: t, Edge: i})
}

func (m *Mesh) insertAt(p geom.Point, loc Location) (VertexID, error) {
	switch loc.Kind {
	case LocateFailed:
		return NoVertex, ErrOutside
	case LocateOnVert:
		return loc.Vert, ErrDuplicate
	}
	m.GrowCavity(p, loc)
	return m.CommitCavity(), nil
}

// GrowCavity finds, without changing the mesh, the cavity that inserting p
// at loc retriangulates: the triangles whose circumcircle strictly contains
// p, reached from loc without crossing a constrained edge. loc must be
// LocateInside or LocateOnEdge. The result stays valid until the next
// mutation and is consumed by CommitCavity or simply dropped.
//
// The cavity is an ordered list, seeded with loc.Tri (then, for a point on
// an edge, the neighbor across it) and grown depth-first with a LIFO stack,
// edge index 0→2. Triangle IDs follow from this order, and through them the
// order of everything downstream, so it is part of the kernel's contract.
func (m *Mesh) GrowCavity(p geom.Point, loc Location) {
	s := m.scratch()
	s.begin(len(m.tris))
	s.p = p
	s.splitA, s.splitB = NoVertex, NoVertex
	s.cavity = append(s.cavity[:0], loc.Tri)
	s.mark[loc.Tri] = s.epoch
	if loc.Kind == LocateOnEdge {
		tr := m.tris[loc.Tri]
		if m.EdgeConstrained(loc.Tri, loc.Edge) {
			// p splits a constrained segment: the cavity spans both sides
			// (both are seeds, so the walk never asks to cross it), and the
			// commit marks the halves.
			s.splitA, s.splitB = tr.V[(loc.Edge+1)%3], tr.V[(loc.Edge+2)%3]
		}
		if n := tr.N[loc.Edge]; n != NoTri {
			s.cavity = append(s.cavity, n)
			s.mark[n] = s.epoch
		}
	}
	s.stack = append(s.stack[:0], s.cavity...)
	s.segs = s.segs[:0]
	for len(s.stack) > 0 {
		t := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		tr := m.tris[t]
		corners := [3]geom.Point{m.verts[tr.V[0]], m.verts[tr.V[1]], m.verts[tr.V[2]]}
		for i := 0; i < 3; i++ {
			if m.EdgeConstrained(t, i) {
				s.segs = append(s.segs, [2]VertexID{tr.V[(i+1)%3], tr.V[(i+2)%3]})
				continue
			}
			n := tr.N[i]
			if n == NoTri || s.mark[n] == s.epoch {
				continue
			}
			if m.inCircleAcross(n, t, tr.V[(i+1)%3], tr.V[(i+2)%3], corners[(i+1)%3], corners[(i+2)%3], p) {
				s.mark[n] = s.epoch
				s.cavity = append(s.cavity, n)
				s.stack = append(s.stack, n)
			}
		}
	}

	// The edge being split (if any) is left out of the boundary: p lies on
	// it, so it contributes the two hull edges (a,p), (p,b) instead of a
	// degenerate fan triangle.
	s.boundary = s.boundary[:0]
	for _, t := range s.cavity {
		tr := m.tris[t]
		for i := 0; i < 3; i++ {
			n := tr.N[i]
			if n != NoTri && s.mark[n] == s.epoch {
				continue
			}
			a, b := tr.V[(i+1)%3], tr.V[(i+2)%3]
			if s.splitA != NoVertex && mkEdge(a, b) == mkEdge(s.splitA, s.splitB) {
				continue
			}
			back := int8(-1)
			if n != NoTri {
				back = int8(m.backEdge(n, t, a, b))
			}
			s.boundary = append(s.boundary, bedge{a, b, n, back, m.EdgeConstrained(t, i)})
		}
	}
}

// inCircleAcross reports whether p lies strictly inside the circumcircle of
// n, the neighbour of t across t's edge from a to b (vertices av and bv). n
// runs (apex, b, a) counter-clockwise from its corner whose edge links back
// to t, so only the apex is loaded: InCircle is exact, and an exact sign
// does not change when a triangle's corners are rotated. A neighbour whose
// link back is not that edge, which no consistent mesh has, is tested whole.
func (m *Mesh) inCircleAcross(n, t TriID, av, bv VertexID, a, b, p geom.Point) bool {
	j := m.backEdge(n, t, av, bv)
	if j < 0 {
		return m.Triangle(n).CircumcircleContains(p)
	}
	return geom.InCircle(m.verts[m.tris[n].V[j]], b, a, p) == geom.Positive
}

// backEdge returns the index of n's edge that links back to its neighbour t,
// found by that link, if the edge runs from b to a as it must; otherwise -1,
// which no consistent mesh gives. Where it returns an index, that is the
// edge link's search by vertex pair would find.
func (m *Mesh) backEdge(n, t TriID, a, b VertexID) int {
	nt := &m.tris[n]
	for j := 0; j < 3; j++ {
		if nt.N[j] == t {
			if nt.V[(j+1)%3] == b && nt.V[(j+2)%3] == a {
				return j
			}
			break
		}
	}
	return -1
}

// CavitySegments returns the constrained edges of the triangles of the
// cavity GrowCavity found, in the order its walk met them. These are the
// segments the new point could encroach. An edge constrained on both sides
// of the cavity appears twice. The slice is overwritten by the next
// GrowCavity.
func (m *Mesh) CavitySegments() [][2]VertexID { return m.scr.segs }

// CommitCavity inserts the point of the preceding GrowCavity, which must not
// have been followed by any other mutation: it kills the cavity and
// retriangulates it as a fan around the new vertex, which it returns.
func (m *Mesh) CommitCavity() VertexID {
	s := m.scr
	v := m.addVertex(s.p)
	for _, t := range s.cavity {
		m.killTri(t)
	}
	s.created = s.created[:0]
	for _, e := range s.boundary {
		s.created = append(s.created, m.newTri(v, e.a, e.b))
	}
	// Fan triangle (v, a, b) keeps the boundary edge's neighbor and
	// constraint across edge 0. Across (b, v) lies the triangle whose first
	// base vertex is b, across (v, a) the one whose second base vertex is
	// a; where a pinched cavity offers two, the later one wins.
	s.ends = extended(s.ends, len(m.verts))
	for i, e := range s.boundary {
		s.end(e.a).from = int32(i)
		s.end(e.b).into = int32(i)
	}
	for i, e := range s.boundary {
		t := s.created[i]
		if e.constrained {
			m.flags[t] |= flagEdge0
		}
		if e.back >= 0 {
			m.tris[t].N[0] = e.out
			m.tris[e.out].N[e.back] = t
		} else if e.out != NoTri {
			m.link(t, 0, e.out)
		}
		if j := s.end(e.b).from; j >= 0 {
			m.tris[t].N[1] = s.created[j]
		}
		if j := s.end(e.a).into; j >= 0 {
			m.tris[t].N[2] = s.created[j]
		}
	}

	if s.splitA != NoVertex {
		delete(m.constrained, mkEdge(s.splitA, s.splitB))
		m.constrained[mkEdge(s.splitA, v)] = true
		m.constrained[mkEdge(v, s.splitB)] = true
		for i, e := range s.boundary {
			if e.b == s.splitA || e.b == s.splitB {
				m.flags[s.created[i]] |= flagEdge0 << 1 // edge (b, v)
			}
			if e.a == s.splitA || e.a == s.splitB {
				m.flags[s.created[i]] |= flagEdge0 << 2 // edge (v, a)
			}
		}
		if m.splitHook != nil {
			m.splitHook(m.verts[s.splitA], m.verts[s.splitB], s.p)
		}
	}
	return v
}
