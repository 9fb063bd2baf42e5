package mesh

import (
	"fmt"

	"mrts/internal/geom"
)

// Validate checks the structural invariants of the triangulation: CCW
// orientation of every live triangle, neighbor symmetry, shared-edge
// consistency, every edge's constrained flag agreeing with the constrained
// set, and constrained edges being actual edges. It returns the first
// violation found, or nil. Intended for tests and debug assertions.
func (m *Mesh) Validate() error {
	for i := range m.tris {
		if !m.live(TriID(i)) {
			continue
		}
		t := TriID(i)
		tr := m.tris[i]
		a, b, c := m.verts[tr.V[0]], m.verts[tr.V[1]], m.verts[tr.V[2]]
		if geom.Orient2D(a, b, c) != geom.Positive {
			return fmt.Errorf("triangle %d not CCW: %v %v %v", t, a, b, c)
		}
		for k := 0; k < 3; k++ {
			ea := tr.V[(k+1)%3]
			eb := tr.V[(k+2)%3]
			if flag, set := m.EdgeConstrained(t, k), m.IsConstrained(ea, eb); flag != set {
				return fmt.Errorf("triangle %d edge %d (%d,%d): constrained flag %v, constrained set %v", t, k, ea, eb, flag, set)
			}
			n := tr.N[k]
			if n == NoTri {
				continue
			}
			if int(n) >= len(m.tris) || !m.live(n) {
				return fmt.Errorf("triangle %d neighbor %d dead or out of range", t, n)
			}
			// The neighbor must hold the same edge reversed and point back.
			back := false
			for j := 0; j < 3; j++ {
				na := m.tris[n].V[(j+1)%3]
				nb := m.tris[n].V[(j+2)%3]
				if na == eb && nb == ea {
					if m.tris[n].N[j] != t {
						return fmt.Errorf("triangle %d edge %d: neighbor %d does not point back", t, k, n)
					}
					back = true
				}
			}
			if !back {
				return fmt.Errorf("triangle %d edge %d: neighbor %d does not share edge (%d,%d)", t, k, n, ea, eb)
			}
		}
	}
	for e := range m.constrained {
		if m.findEdge(e.a, e.b) == NoTri {
			return fmt.Errorf("constrained edge (%d,%d) is not an edge of the triangulation", e.a, e.b)
		}
	}
	return nil
}

// CheckDelaunay verifies the (constrained) Delaunay property: for every
// non-constrained interior edge, the vertex opposite in the adjacent triangle
// is not strictly inside the circumcircle. Returns the first violation.
func (m *Mesh) CheckDelaunay() error {
	for i := range m.tris {
		if !m.live(TriID(i)) {
			continue
		}
		t := TriID(i)
		tr := m.tris[i]
		for k := 0; k < 3; k++ {
			n := tr.N[k]
			if n == NoTri || n < t {
				continue // visit each edge once
			}
			ea := tr.V[(k+1)%3]
			eb := tr.V[(k+2)%3]
			if m.EdgeConstrained(t, k) {
				continue
			}
			// Vertex of n opposite the shared edge.
			var w VertexID = NoVertex
			for j := 0; j < 3; j++ {
				if m.tris[n].N[j] == t {
					w = m.tris[n].V[j]
				}
			}
			if w == NoVertex {
				return fmt.Errorf("edge (%d,%d): backlink missing", ea, eb)
			}
			if m.Triangle(t).CircumcircleContains(m.verts[w]) {
				return fmt.Errorf("edge (%d,%d) of triangle %d violates Delaunay (opposite vertex %d inside circumcircle)", ea, eb, t, w)
			}
		}
	}
	return nil
}
