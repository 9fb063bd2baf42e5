package mesh

import "mrts/internal/geom"

// LocateKind classifies the result of point location.
type LocateKind int

// Location result kinds.
const (
	LocateInside LocateKind = iota // strictly inside triangle Tri
	LocateOnEdge                   // on edge Edge of triangle Tri
	LocateOnVert                   // coincides with vertex Vert
	LocateFailed                   // outside the triangulation
)

// Location is the result of Locate.
type Location struct {
	Kind LocateKind
	Tri  TriID
	Edge int      // edge index within Tri, valid for LocateOnEdge
	Vert VertexID // valid for LocateOnVert
}

// Locate finds the triangle containing p by a remembering stochastic walk
// starting from hint (or from an arbitrary live triangle when hint is
// invalid). The mesh must contain at least one live triangle.
func (m *Mesh) Locate(p geom.Point, hint TriID) Location {
	t := hint
	if t == NoTri || int(t) >= len(m.tris) || !m.live(t) {
		t = m.anyTri()
		if t == NoTri {
			return Location{Kind: LocateFailed}
		}
	}

	// Walk: at each triangle, find an edge with p strictly on its outer
	// side and move to that neighbor. Bounded by a generous step count to
	// guard against cycles on degenerate input.
	maxSteps := 4*len(m.tris) + 64
	prev := NoTri
	for step := 0; step < maxSteps; step++ {
		tr := m.tris[t]
		corners := [3]geom.Point{m.verts[tr.V[0]], m.verts[tr.V[1]], m.verts[tr.V[2]]}
		// Check vertices first.
		for i := 0; i < 3; i++ {
			if corners[i].Eq(p) {
				return Location{Kind: LocateOnVert, Tri: t, Vert: tr.V[i]}
			}
		}
		var signs [3]geom.Sign
		moved := false
		// Deterministic but rotation-varied edge order avoids pathological
		// cycling on cocircular configurations.
		start := int(t) % 3
		for k := 0; k < 3; k++ {
			i := (start + k) % 3
			s := geom.Orient2D(corners[(i+1)%3], corners[(i+2)%3], p)
			signs[i] = s
			if s == geom.Negative {
				n := tr.N[i]
				if n == NoTri {
					return Location{Kind: LocateFailed}
				}
				if n == prev {
					// Prefer not to immediately backtrack; try other
					// edges first, fall back if none work.
					continue
				}
				prev, t = t, n
				moved = true
				break
			}
		}
		if moved {
			continue
		}
		// Either p is inside/on this triangle, or the only way out is
		// backtracking (numerically possible); handle both.
		for i := 0; i < 3; i++ {
			if signs[i] == geom.Negative {
				prev, t = t, tr.N[i]
				moved = true
				break
			}
		}
		if moved {
			continue
		}
		// All signs >= 0: inside or on an edge.
		for i := 0; i < 3; i++ {
			if signs[i] == geom.Zero {
				return Location{Kind: LocateOnEdge, Tri: t, Edge: i}
			}
		}
		return Location{Kind: LocateInside, Tri: t}
	}
	return m.locateExhaustive(p)
}

// locateExhaustive is the O(n) fallback when walking fails to converge.
func (m *Mesh) locateExhaustive(p geom.Point) Location {
	for i := range m.tris {
		if !m.live(TriID(i)) {
			continue
		}
		t := TriID(i)
		tr := m.tris[i]
		for j := 0; j < 3; j++ {
			if m.verts[tr.V[j]].Eq(p) {
				return Location{Kind: LocateOnVert, Tri: t, Vert: tr.V[j]}
			}
		}
		inside := true
		onEdge := -1
		for j := 0; j < 3; j++ {
			a := m.verts[tr.V[(j+1)%3]]
			b := m.verts[tr.V[(j+2)%3]]
			switch geom.Orient2D(a, b, p) {
			case geom.Negative:
				inside = false
			case geom.Zero:
				onEdge = j
			}
			if !inside {
				break
			}
		}
		if inside {
			if onEdge >= 0 {
				return Location{Kind: LocateOnEdge, Tri: t, Edge: onEdge}
			}
			return Location{Kind: LocateInside, Tri: t}
		}
	}
	return Location{Kind: LocateFailed}
}

func (m *Mesh) anyTri() TriID {
	for i := range m.tris {
		if m.live(TriID(i)) {
			return TriID(i)
		}
	}
	return NoTri
}
