package mesh

import (
	"fmt"

	"mrts/internal/geom"
)

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
//
// The walk keeps what it learns of each edge: the neighbour was already in
// the cavity or joined it, or it stays outside, with its link back. A
// neighbour left outside never joins later — the exact in-circle sign does
// not depend on the edge it is tested from — so the boundary pass reads the
// walk's verdicts instead of looking every neighbour up again. A
// constrained edge, which the walk does not test, is decided there.
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
	s.backs = extended(s.backs[:0], len(s.cavity))
	s.walk = s.walk[:0]
	for k := range s.cavity {
		s.walk = append(s.walk, int32(k))
	}
	s.segs = s.segs[:0]
	for len(s.walk) > 0 {
		k := s.walk[len(s.walk)-1]
		s.walk = s.walk[:len(s.walk)-1]
		t := s.cavity[k]
		tr := m.tris[t]
		f := m.flags[t]
		corners := [3]geom.Point{m.verts[tr.V[0]], m.verts[tr.V[1]], m.verts[tr.V[2]]}
		var backs [3]int8
		// i1, i2 are (i+1)%3 and (i+2)%3, rotated instead of divided.
		for i, i1, i2 := 0, 1, 2; i < 3; i, i1, i2 = i+1, i2, i {
			a, b := tr.V[i1], tr.V[i2]
			n := tr.N[i]
			constrained := f&(flagEdge0<<i) != 0
			if constrained {
				s.segs = append(s.segs, [2]VertexID{a, b})
			}
			switch {
			case n == NoTri:
				backs[i] = -1
			case constrained: // not crossed: decided after the walk
				backs[i] = int8(m.backEdge(n, t, a, b))
			case s.mark[n] == s.epoch:
				backs[i] = edgeInside
			default:
				// n runs (apex, b, a) counter-clockwise from its corner j
				// whose edge links back to t, so only the apex is loaded:
				// InCircle is exact, and an exact sign does not change
				// when a triangle's corners are rotated. A neighbour whose
				// link back is not that edge, which no consistent mesh
				// has, is tested whole.
				j := m.backEdge(n, t, a, b)
				var inside bool
				if j < 0 {
					inside = m.Triangle(n).CircumcircleContains(p)
				} else {
					inside = geom.InCircle(m.verts[m.tris[n].V[j]], corners[i2], corners[i1], p) == geom.Positive
				}
				backs[i] = int8(j)
				if inside {
					backs[i] = edgeInside
					s.mark[n] = s.epoch
					s.walk = append(s.walk, int32(len(s.cavity)))
					s.cavity = append(s.cavity, n)
					s.backs = append(s.backs, [3]int8{})
				}
			}
		}
		s.backs[k] = backs
	}

	// The edge being split (if any) is left out of the boundary: p lies on
	// it, so it contributes the two hull edges (a,p), (p,b) instead of a
	// degenerate fan triangle.
	//
	// No other constrained edge has the cavity on both sides unless p lies
	// on it, and that is checked. In a constrained Delaunay triangulation
	// every triangle the walk reaches — its circumcircle holds p, and it is
	// reached without crossing a constrained edge — is visible from p: no
	// constrained edge cuts the open segment from p to a point inside it
	// (the lemma constrained Bowyer–Watson insertion rests on). Take the
	// two triangles of a constrained edge (a, b) and p off the line ab,
	// on one side of it: the segment from p to a point of the far-side
	// triangle close enough to the middle of ab crosses ab between a and b,
	// so that triangle is not visible. And p on the line but off the closed
	// segment is in neither circumcircle, which meets the line in [a, b]
	// alone. So p is on the segment: the split edge above, or the
	// refiner's probe of a circumcenter that lies on a segment, grown from
	// one side only, whose cavity is never committed (the point encroaches
	// the segment, which is split instead). Dropping the test changes no
	// mesh and no test's outcome; a failure of the check is a triangulation
	// that is not constrained Delaunay.
	s.boundary = s.boundary[:0]
	for k, t := range s.cavity {
		tr := &m.tris[t]
		f := m.flags[t]
		for i, i1, i2 := 0, 1, 2; i < 3; i, i1, i2 = i+1, i2, i {
			back := s.backs[k][i]
			if back == edgeInside {
				continue
			}
			a, b := tr.V[i1], tr.V[i2]
			if s.splitA != NoVertex && mkEdge(a, b) == mkEdge(s.splitA, s.splitB) {
				continue
			}
			n := tr.N[i]
			constrained := f&(flagEdge0<<i) != 0
			if constrained && n != NoTri && s.mark[n] == s.epoch {
				if geom.Orient2D(m.verts[a], m.verts[b], s.p) != geom.Zero {
					panic(fmt.Sprintf("mesh: the cavity of %v holds both sides of segment %v-%v: not a constrained Delaunay triangulation",
						s.p, m.verts[a], m.verts[b]))
				}
				continue
			}
			s.boundary = append(s.boundary, bedge{a, b, n, back, constrained})
		}
	}
}

// edgeInside is the walk's verdict on an edge whose neighbour is in the
// cavity; any other is the link back of the neighbour outside, or -1.
const edgeInside int8 = -2

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
//
// The fan takes its slots from the free list as newTri hands them out, the
// cavity's own first, then writes each triangle once, in boundary order:
// its corners, all three neighbours, its flags and the vertTri hints.
func (m *Mesh) CommitCavity() VertexID {
	s := m.scr
	v := m.addVertex(s.p)
	for _, t := range s.cavity {
		m.killTri(t)
	}
	s.created = s.created[:0]
	for range s.boundary {
		if n := len(m.free); n > 0 {
			s.created = append(s.created, m.free[n-1])
			m.free = m.free[:n-1]
		} else {
			m.tris = append(room(m.tris), Tri{})
			m.flags = append(room(m.flags), 0)
			s.created = append(s.created, TriID(len(m.tris)-1))
		}
	}
	m.nAlive += len(s.boundary)
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
		across := [3]TriID{e.out, NoTri, NoTri}
		if j := s.end(e.b).from; j >= 0 {
			across[1] = s.created[j]
		}
		if j := s.end(e.a).into; j >= 0 {
			across[2] = s.created[j]
		}
		f := flagAlive
		if e.constrained {
			f |= flagEdge0
		}
		// A split segment's halves are the fan edges (b, v) and (v, a) at
		// its ends. With no split, splitA and splitB are NoVertex, which
		// matches no vertex.
		if e.b == s.splitA || e.b == s.splitB {
			f |= flagEdge0 << 1
		}
		if e.a == s.splitA || e.a == s.splitB {
			f |= flagEdge0 << 2
		}
		m.tris[t] = Tri{V: [3]VertexID{v, e.a, e.b}, N: across}
		m.flags[t] = f
		m.vertTri[v], m.vertTri[e.a], m.vertTri[e.b] = t, t, t
		if e.back >= 0 {
			m.tris[e.out].N[e.back] = t
		} else if e.out != NoTri {
			m.link(t, 0, e.out)
		}
	}

	if s.splitA != NoVertex {
		delete(m.constrained, mkEdge(s.splitA, s.splitB))
		m.constrained[mkEdge(s.splitA, v)] = true
		m.constrained[mkEdge(v, s.splitB)] = true
		if m.splitHook != nil {
			m.splitHook(m.verts[s.splitA], m.verts[s.splitB], s.p)
		}
	}
	return v
}
