package mesh

import "mrts/internal/geom"

// Flip flips the edge (a, b) shared by triangle t and its neighbor, replacing
// it with the opposite diagonal of the quadrilateral. The quadrilateral must
// be strictly convex; the caller is responsible for checking. Flip panics on
// inconsistent topology.
func (m *Mesh) Flip(t TriID, i int) (TriID, TriID) {
	u := m.tris[t].N[i]
	if u == NoTri {
		panic("mesh: Flip on boundary edge")
	}
	p := m.tris[t].V[i]
	a := m.tris[t].V[(i+1)%3]
	b := m.tris[t].V[(i+2)%3]
	j := -1
	for k := 0; k < 3; k++ {
		if m.tris[u].N[k] == t {
			j = k
			break
		}
	}
	if j < 0 {
		panic("mesh: Flip: neighbor backlink missing")
	}
	q := m.tris[u].V[j]

	// External neighbors before rewiring.
	tPA := m.tris[t].N[(i+2)%3] // across (p, a), opposite b
	tBP := m.tris[t].N[(i+1)%3] // across (b, p), opposite a
	uAQ := m.tris[u].N[(j+1)%3] // across (a, q), opposite b
	uQB := m.tris[u].N[(j+2)%3] // across (q, b), opposite a

	// The labels above assume u = (q, b, a) rotation: u.V[j+1] = b,
	// u.V[j+2] = a. Verify and swap if the orientation is mirrored.
	if m.tris[u].V[(j+1)%3] != b || m.tris[u].V[(j+2)%3] != a {
		panic("mesh: Flip: shared edge mismatch")
	}

	// The four outer edges carry their constraint bits along; the new
	// diagonal may have been marked before it existed.
	edgeBit := func(x TriID, k, to int) triFlags {
		return ((m.flags[x] >> k) & flagEdge0) << to
	}
	tf := flagAlive | edgeBit(u, (j+1)%3, 0) | edgeBit(t, (i+2)%3, 2)
	uf := flagAlive | edgeBit(u, (j+2)%3, 0) | edgeBit(t, (i+1)%3, 1)
	if m.constrained[mkEdge(p, q)] {
		tf |= flagEdge0 << 1
		uf |= flagEdge0 << 2
	}
	m.flags[t], m.flags[u] = tf, uf

	// New triangles: t' = (p, a, q), u' = (p, q, b).
	m.tris[t].V = [3]VertexID{p, a, q}
	m.tris[u].V = [3]VertexID{p, q, b}

	// t' edges: opp p = (a, q) -> uAQ; opp a = (q, p) -> u'; opp q = (p, a) -> tPA.
	m.tris[t].N = [3]TriID{NoTri, u, NoTri}
	if uAQ != NoTri {
		m.link(t, 0, uAQ)
	}
	if tPA != NoTri {
		m.link(t, 2, tPA)
	}
	// u' edges: opp p = (q, b) -> uQB; opp q = (b, p) -> tBP; opp b = (p, q) -> t'.
	m.tris[u].N = [3]TriID{NoTri, NoTri, t}
	if uQB != NoTri {
		m.link(u, 0, uQB)
	}
	if tBP != NoTri {
		m.link(u, 1, tBP)
	}

	for _, vv := range []VertexID{p, a, q} {
		m.vertTri[vv] = t
	}
	for _, vv := range []VertexID{p, q, b} {
		m.vertTri[vv] = u
	}
	return t, u
}

// InsertSegment forces the edge (a, b) into the triangulation (recovering it
// with edge flips, Sloan's algorithm) and marks it constrained. Both vertices
// must already be part of the triangulation. It fails with ErrCrossConstrain
// if the segment properly crosses an existing constrained edge, and with
// ErrNoPath if recovery does not converge (e.g. a vertex lies exactly on the
// open segment).
func (m *Mesh) InsertSegment(a, b VertexID) error {
	if a == b {
		return nil
	}
	if m.findEdge(a, b) != NoTri {
		m.SetConstrained(a, b, true)
		return nil
	}
	pa, pb := m.verts[a], m.verts[b]

	// Collect edges crossing segment (a, b) by walking from a.
	crossing, err := m.crossingEdges(a, b)
	if err != nil {
		return err
	}

	// Flip crossing edges until the segment appears. Non-convex quads are
	// postponed; Sloan shows this terminates for valid input.
	guard := (len(crossing) + 8) * (len(crossing) + 8) * 4
	for len(crossing) > 0 {
		if guard--; guard < 0 {
			return ErrNoPath
		}
		e := crossing[0]
		crossing = crossing[1:]
		t := m.findEdge(e.a, e.b)
		if t == NoTri {
			continue // already flipped away
		}
		i := m.edgeIndex(t, e.a, e.b)
		u := m.tris[t].N[i]
		if u == NoTri {
			return ErrNoPath
		}
		p := m.verts[m.tris[t].V[i]]
		ea := m.verts[m.tris[t].V[(i+1)%3]]
		eb := m.verts[m.tris[t].V[(i+2)%3]]
		var q geom.Point
		for k := 0; k < 3; k++ {
			if m.tris[u].N[k] == t {
				q = m.verts[m.tris[u].V[k]]
				break
			}
		}
		// Flip only if the quadrilateral (p, ea, q, eb), which is in CCW
		// order by construction, is strictly convex.
		if geom.Orient2D(p, ea, q) <= 0 || geom.Orient2D(ea, q, eb) <= 0 ||
			geom.Orient2D(q, eb, p) <= 0 || geom.Orient2D(eb, p, ea) <= 0 {
			crossing = append(crossing, e)
			continue
		}
		nt, _ := m.Flip(t, i)
		// The new diagonal is (p, q) = (t.V[i], opposite). Does it still
		// cross segment (a,b)?
		d0 := m.tris[nt].V[0]
		d1 := m.tris[nt].V[2] // t' = (p, a, q): diagonal is (p, q) = V[0], V[2]
		if d0 != a && d0 != b && d1 != a && d1 != b &&
			geom.SegmentsProperlyIntersect(pa, pb, m.verts[d0], m.verts[d1]) {
			crossing = append(crossing, edgeKey{d0, d1})
		}
	}

	if m.findEdge(a, b) == NoTri {
		return ErrNoPath
	}
	m.SetConstrained(a, b, true)
	return nil
}

// crossingEdges returns the edges properly crossed by segment (a, b),
// starting the walk at a.
func (m *Mesh) crossingEdges(a, b VertexID) ([]edgeKey, error) {
	pa, pb := m.verts[a], m.verts[b]
	start := m.IncidentTri(a)
	if start == NoTri {
		return nil, ErrNoPath
	}
	// Find the triangle incident to a whose opposite edge crosses (a, b).
	t := start
	var first edgeKey
	found := false
	// Iterate over all triangles around a.
	var buf [ringBuf]TriID
	ring, err := m.appendRing(buf[:0], a, start)
	if err != nil {
		return nil, err
	}
	for _, rt := range ring {
		i := m.vertIndex(rt, a)
		va := m.tris[rt].V[(i+1)%3]
		vb := m.tris[rt].V[(i+2)%3]
		if va == b || vb == b {
			return nil, nil // edge already exists
		}
		if geom.SegmentsProperlyIntersect(pa, pb, m.verts[va], m.verts[vb]) {
			t = rt
			first = edgeKey{va, vb}
			found = true
			break
		}
	}
	if !found {
		return nil, ErrNoPath
	}
	var out []edgeKey
	cur := first
	for {
		i := m.edgeIndex(t, cur.a, cur.b)
		if m.EdgeConstrained(t, i) {
			return nil, ErrCrossConstrain
		}
		out = append(out, cur)
		u := m.tris[t].N[i]
		if u == NoTri {
			return nil, ErrNoPath
		}
		// Vertex of u opposite the shared edge.
		var w VertexID
		for k := 0; k < 3; k++ {
			if m.tris[u].N[k] == t {
				w = m.tris[u].V[k]
				break
			}
		}
		if w == b {
			return out, nil
		}
		// Continue through whichever edge of u crosses the segment.
		pw := m.verts[w]
		if geom.Orient2D(pa, pb, pw) == geom.Zero {
			return nil, ErrNoPath // vertex exactly on segment
		}
		var next edgeKey
		if geom.SegmentsProperlyIntersect(pa, pb, m.verts[cur.a], pw) {
			next = edgeKey{cur.a, w}
		} else {
			next = edgeKey{cur.b, w}
		}
		t, cur = u, next
		if len(out) > len(m.tris)*3+16 {
			return nil, ErrNoPath
		}
	}
}

// ringBuf is the size of the stack buffers that vertex-ring walks start
// with; a ring longer than this (rare: the mean degree is 6) spills to the
// heap.
const ringBuf = 32

// appendRing appends to ring the triangles around vertex v in order,
// starting from triangle start (which must be incident to v). It handles
// open fans at the hull by walking both directions.
func (m *Mesh) appendRing(ring []TriID, v VertexID, start TriID) ([]TriID, error) {
	// A ring visits no triangle twice, so more steps than there are
	// triangles means the topology is corrupt.
	limit := len(ring) + len(m.tris)
	// Walk counter-clockwise.
	t := start
	for {
		ring = append(ring, t)
		i := m.vertIndex(t, v)
		if i < 0 || len(ring) > limit {
			return nil, ErrNoPath
		}
		// Next CCW triangle is across edge (v, V[i+1]) = edge opposite V[i+2].
		t = m.tris[t].N[(i+2)%3]
		if t == start {
			return ring, nil // closed ring
		}
		if t == NoTri {
			break
		}
	}
	// Open fan: also walk clockwise from start.
	t = m.tris[start].N[(m.vertIndex(start, v)+1)%3]
	for t != NoTri {
		ring = append(ring, t)
		i := m.vertIndex(t, v)
		if i < 0 || len(ring) > limit {
			return nil, ErrNoPath
		}
		t = m.tris[t].N[(i+1)%3]
	}
	return ring, nil
}

// findEdge returns a triangle having edge (a, b), or NoTri.
func (m *Mesh) findEdge(a, b VertexID) TriID {
	start := m.IncidentTri(a)
	if start == NoTri {
		return NoTri
	}
	var buf [ringBuf]TriID
	ring, err := m.appendRing(buf[:0], a, start)
	if err != nil {
		return NoTri
	}
	for _, t := range ring {
		if m.vertIndex(t, b) >= 0 {
			return t
		}
	}
	return NoTri
}
