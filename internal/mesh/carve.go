package mesh

// Carve removes the exterior of the domain: every triangle reachable from a
// super-triangle vertex without crossing a constrained edge is deleted, and
// the super vertices are forgotten. After Carve the triangulation is bounded
// by constrained segments only (its hull edges are exactly the domain
// boundary), which is the invariant the refinement engine relies on.
//
// Domains with holes are handled by CarveFrom with interior hole seeds.
func (m *Mesh) Carve() {
	var seeds []TriID
	for i := range m.tris {
		if m.live(TriID(i)) && m.HasSuperVertex(TriID(i)) {
			seeds = append(seeds, TriID(i))
		}
	}
	m.CarveFrom(seeds)
	m.super = [3]VertexID{NoVertex, NoVertex, NoVertex}
}

// CarveFrom deletes every triangle reachable from the seed triangles without
// crossing a constrained edge.
func (m *Mesh) CarveFrom(seeds []TriID) {
	s := m.scratch()
	s.begin(len(m.tris))
	kill := s.cavity[:0] // in discovery order, so the freed slots are too
	for _, t := range seeds {
		if t != NoTri && m.live(t) && s.mark[t] != s.epoch {
			s.mark[t] = s.epoch
			kill = append(kill, t)
		}
	}
	s.stack = append(s.stack[:0], kill...)
	for len(s.stack) > 0 {
		t := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for i, n := range m.tris[t].N {
			if n == NoTri || s.mark[n] == s.epoch || m.EdgeConstrained(t, i) {
				continue
			}
			s.mark[n] = s.epoch
			kill = append(kill, n)
			s.stack = append(s.stack, n)
		}
	}
	// Unlink neighbors pointing into the killed region, then delete.
	for _, t := range kill {
		for _, n := range m.tris[t].N {
			if n == NoTri || s.mark[n] == s.epoch {
				continue
			}
			for j := 0; j < 3; j++ {
				if m.tris[n].N[j] == t {
					m.tris[n].N[j] = NoTri
				}
			}
		}
	}
	for _, t := range kill {
		m.killTri(t)
	}
	s.cavity = kill
}
