package mesh

import (
	"fmt"

	"mrts/internal/geom"
)

// HullPoints returns the hull cycle through hull vertex start,
// counter-clockwise from start. It walks the boundary: from each hull vertex
// it rotates through the neighbour links to the hull edge leaving it, so it
// takes time proportional to the hull vertices' degrees, not to the mesh.
// The hull through start must be one simple cycle, as a carved CDT of a
// simple polygon's is. It is an error if start has no triangle or no hull
// edge, or if the links do not lead back to start.
func (m *Mesh) HullPoints(start VertexID) ([]geom.Point, error) {
	if start < 0 || int(start) >= len(m.verts) {
		return nil, fmt.Errorf("mesh: hull walk from vertex %d: out of range (%d vertices)", start, len(m.verts))
	}
	t := m.IncidentTri(start)
	if t == NoTri {
		return nil, fmt.Errorf("mesh: hull walk from vertex %d: no triangle", start)
	}
	var out []geom.Point
	// A simple hull passes each triangle at most once per corner.
	steps := 3 * m.nAlive
	for v := start; ; {
		i := m.vertIndex(t, v)
		// The edge leaving v counter-clockwise in t is (V[i], V[i+1]),
		// opposite V[i+2]; across it lies the next triangle about v.
		for i >= 0 && m.tris[t].N[(i+2)%3] != NoTri {
			if steps--; steps < 0 {
				return nil, fmt.Errorf("mesh: hull walk from vertex %d: vertex %d has no hull edge", start, v)
			}
			t = m.tris[t].N[(i+2)%3]
			i = m.vertIndex(t, v)
		}
		if i < 0 {
			return nil, fmt.Errorf("mesh: hull walk from vertex %d: triangle %d lost vertex %d", start, t, v)
		}
		out = append(out, m.verts[v])
		if v = m.tris[t].V[(i+1)%3]; v == start {
			return out, nil
		}
		if len(out) > m.nAlive+2 { // more than a triangulation's hull can hold
			return nil, fmt.Errorf("mesh: hull walk from vertex %d does not close", start)
		}
	}
}

// AppendIncidentTriangles appends to dst all live triangles incident to v,
// in ring order (open fans at the hull are still fully covered). It appends
// nothing if v has no incident triangle.
func (m *Mesh) AppendIncidentTriangles(dst []TriID, v VertexID) []TriID {
	start := m.IncidentTri(v)
	if start == NoTri {
		return dst
	}
	ring, err := m.appendRing(dst, v, start)
	if err != nil {
		return dst
	}
	return ring
}

// AppendEdgeTriangles appends to dst the one or two live triangles having
// edge (a, b). It appends nothing if (a, b) is not an edge of the
// triangulation.
func (m *Mesh) AppendEdgeTriangles(dst []TriID, a, b VertexID) []TriID {
	t := m.findEdge(a, b)
	if t == NoTri {
		return dst
	}
	dst = append(dst, t)
	if i := m.edgeIndex(t, a, b); i >= 0 {
		if n := m.tris[t].N[i]; n != NoTri {
			dst = append(dst, n)
		}
	}
	return dst
}
