package mesh

// IncidentTriangles returns all live triangles incident to v, in ring order
// (open fans at the hull are still fully covered). Returns nil if v has no
// incident triangle.
func (m *Mesh) IncidentTriangles(v VertexID) []TriID {
	return m.AppendIncidentTriangles(nil, v)
}

// AppendIncidentTriangles appends to dst what IncidentTriangles(v) returns.
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

// EdgeTriangles returns the one or two live triangles having edge (a, b).
// Returns nil if (a, b) is not an edge of the triangulation.
func (m *Mesh) EdgeTriangles(a, b VertexID) []TriID {
	return m.AppendEdgeTriangles(nil, a, b)
}

// AppendEdgeTriangles appends to dst what EdgeTriangles(a, b) returns.
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

// VertexDegree returns the number of triangles incident to v.
func (m *Mesh) VertexDegree(v VertexID) int {
	var buf [ringBuf]TriID
	return len(m.AppendIncidentTriangles(buf[:0], v))
}
