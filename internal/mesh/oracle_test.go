package mesh

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mrts/internal/geom"
)

// oracleGrowCavity is GrowCavity as it was before its walk recorded each
// tested edge's verdict: the walk, then a boundary pass that looks every
// cavity edge's neighbour up again — its mark and its link back. It is the
// oracle of TestCommitMatchesOracle and uses the scratch's stack, cavity,
// boundary and segment lists as it did.
func (m *Mesh) oracleGrowCavity(p geom.Point, loc Location) {
	s := m.scratch()
	s.begin(len(m.tris))
	s.p = p
	s.splitA, s.splitB = NoVertex, NoVertex
	s.cavity = append(s.cavity[:0], loc.Tri)
	s.mark[loc.Tri] = s.epoch
	if loc.Kind == LocateOnEdge {
		tr := m.tris[loc.Tri]
		if m.EdgeConstrained(loc.Tri, loc.Edge) {
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
			if m.oracleInCircleAcross(n, t, tr.V[(i+1)%3], tr.V[(i+2)%3], corners[(i+1)%3], corners[(i+2)%3], p) {
				s.mark[n] = s.epoch
				s.cavity = append(s.cavity, n)
				s.stack = append(s.stack, n)
			}
		}
	}

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

// oracleInCircleAcross is the walk's neighbour test as a function of its own.
func (m *Mesh) oracleInCircleAcross(n, t TriID, av, bv VertexID, a, b, p geom.Point) bool {
	j := m.backEdge(n, t, av, bv)
	if j < 0 {
		return m.Triangle(n).CircumcircleContains(p)
	}
	return geom.InCircle(m.verts[m.tris[n].V[j]], b, a, p) == geom.Positive
}

// oracleCommitCavity is CommitCavity as it was before it wrote each fan
// triangle once: newTri for every boundary edge, with no neighbours, then
// the links patched in a second pass and the split halves' flags in a
// third.
func (m *Mesh) oracleCommitCavity() VertexID {
	s := m.scr
	v := m.addVertex(s.p)
	for _, t := range s.cavity {
		m.killTri(t)
	}
	s.created = s.created[:0]
	for _, e := range s.boundary {
		s.created = append(s.created, m.newTri(v, e.a, e.b))
	}
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
				m.flags[s.created[i]] |= flagEdge0 << 1
			}
			if e.a == s.splitA || e.a == s.splitB {
				m.flags[s.created[i]] |= flagEdge0 << 2
			}
		}
		if m.splitHook != nil {
			m.splitHook(m.verts[s.splitA], m.verts[s.splitB], s.p)
		}
	}
	return v
}

// twin is one mesh built twice: every insertion goes into old through the
// oracle and into cur through the kernel, and every other operation into
// both alike.
type twin struct {
	old, cur *Mesh

	// What the insertions so far covered.
	inserted, onEdge, splits, pinched int
}

func newTwin() *twin { return &twin{old: New(), cur: New()} }

// both applies an operation that is not under test to the two meshes.
func (w *twin) both(f func(m *Mesh)) {
	f(w.old)
	f(w.cur)
}

// insert inserts p at loc into both meshes and checks that the cavity, its
// boundary and segments, the vertex returned and then the whole mesh state
// are the same.
func (w *twin) insert(t *testing.T, p geom.Point, loc Location) VertexID {
	t.Helper()
	w.old.oracleGrowCavity(p, loc)
	w.cur.GrowCavity(p, loc)
	so, sc := w.old.scr, w.cur.scr
	if !slices.Equal(so.cavity, sc.cavity) || !slices.Equal(so.boundary, sc.boundary) {
		t.Fatalf("insertion %d at %v: cavity %v boundary %+v, the oracle's %v and %+v",
			w.inserted, p, sc.cavity, sc.boundary, so.cavity, so.boundary)
	}
	if !slices.Equal(w.old.CavitySegments(), w.cur.CavitySegments()) {
		t.Fatalf("insertion %d at %v: segments %v, the oracle's %v", w.inserted, p, w.cur.CavitySegments(), w.old.CavitySegments())
	}
	if loc.Kind == LocateOnEdge {
		w.onEdge++
	}
	if sc.splitA != NoVertex {
		w.splits++
	}
	if pinchedBoundary(sc.boundary) {
		w.pinched++
	}
	vo, vc := w.old.oracleCommitCavity(), w.cur.CommitCavity()
	if vo != vc {
		t.Fatalf("insertion %d: vertex %d, the oracle's %d", w.inserted, vc, vo)
	}
	w.same(t)
	w.inserted++
	return vc
}

// same fails unless the two meshes hold the same state, slot for slot.
func (w *twin) same(t *testing.T) {
	t.Helper()
	o, c := w.old, w.cur
	switch {
	case !slices.Equal(o.verts, c.verts):
		t.Fatalf("after insertion %d: vertices differ", w.inserted)
	case !slices.Equal(o.tris, c.tris):
		i := 0
		for i < min(len(o.tris), len(c.tris)) && o.tris[i] == c.tris[i] {
			i++
		}
		t.Fatalf("after insertion %d: %d triangle slots, the oracle %d; first difference at %d", w.inserted, len(c.tris), len(o.tris), i)
	case !slices.Equal(o.flags, c.flags):
		t.Fatalf("after insertion %d: flags differ", w.inserted)
	case !slices.Equal(o.free, c.free):
		t.Fatalf("after insertion %d: free list %v, the oracle's %v", w.inserted, c.free, o.free)
	case !slices.Equal(o.vertTri, c.vertTri):
		t.Fatalf("after insertion %d: vertTri differs", w.inserted)
	case !maps.Equal(o.constrained, c.constrained):
		t.Fatalf("after insertion %d: constrained edges differ", w.inserted)
	case o.nAlive != c.nAlive || o.super != c.super:
		t.Fatalf("after insertion %d: %d live triangles and super %v, the oracle %d and %v", w.inserted, c.nAlive, c.super, o.nAlive, o.super)
	}
}

// pinchedBoundary reports whether a cavity boundary passes through one
// vertex twice.
func pinchedBoundary(boundary []bedge) bool {
	seen := map[VertexID]bool{}
	for _, e := range boundary {
		if seen[e.a] {
			return true
		}
		seen[e.a] = true
	}
	return false
}

// buildCDT builds into both meshes the CDT of a square of side points at
// spacing h, inserted in order as BuildCDT inserts a PSLG's points — each
// located from the triangle of the one before, so that a side is inserted
// as a run of neighbours — with a star of dangling segments and a closed
// square loop inside, then recovers the segments and carves.
func (w *twin) buildCDT(t *testing.T, n int) {
	w.both(func(m *Mesh) { m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))) })
	var pts []geom.Point
	corners := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	for s, a := range corners {
		b := corners[(s+1)%4]
		for k := 0; k < n; k++ {
			f := float64(k) / float64(n)
			pts = append(pts, geom.Pt(a.X+(b.X-a.X)*f, a.Y+(b.Y-a.Y)*f))
		}
	}
	var segs [][2]int
	for i := range pts {
		segs = append(segs, [2]int{i, (i + 1) % len(pts)})
	}
	// A star: dangling spokes from one centre, each cut in three.
	centre := len(pts)
	pts = append(pts, geom.Pt(0.3, 0.6))
	for _, d := range []geom.Point{geom.Pt(0.15, 0.02), geom.Pt(-0.05, 0.16), geom.Pt(-0.1, -0.12), geom.Pt(0.12, -0.1)} {
		prev := centre
		for k := 1; k <= 3; k++ {
			pts = append(pts, geom.Pt(0.3+d.X*float64(k)/3, 0.6+d.Y*float64(k)/3))
			segs = append(segs, [2]int{prev, len(pts) - 1})
			prev = len(pts) - 1
		}
	}
	// A closed loop.
	loop := len(pts)
	for _, p := range []geom.Point{geom.Pt(0.6, 0.2), geom.Pt(0.8, 0.2), geom.Pt(0.8, 0.35), geom.Pt(0.6, 0.35)} {
		pts = append(pts, p)
	}
	for i := 0; i < 4; i++ {
		segs = append(segs, [2]int{loop + i, loop + (i+1)%4})
	}

	ids := make([]VertexID, len(pts))
	hint := NoTri
	for i, p := range pts {
		loc := w.cur.Locate(p, hint)
		if loc.Kind != LocateInside && loc.Kind != LocateOnEdge {
			t.Fatalf("point %d %v located as %v", i, p, loc.Kind)
		}
		ids[i] = w.insert(t, p, loc)
		hint = w.cur.IncidentTri(ids[i])
		w.old.IncidentTri(ids[i]) // it may refresh a hint: keep the twins alike
	}
	for _, s := range segs {
		w.both(func(m *Mesh) {
			if err := m.InsertSegment(ids[s[0]], ids[s[1]]); err != nil {
				t.Fatal(err)
			}
		})
	}
	w.both(func(m *Mesh) { m.Carve() })
	w.same(t)
}

// TestCommitMatchesOracle drives random insertion sequences through the
// kernel and through the oracle — GrowCavity's boundary pass and
// CommitCavity as they were — and requires the same cavities and, after
// every insertion, the same mesh state slot for slot. The sequences build a
// CDT side by side along its boundary, then insert random points, points
// on edges (the midpoints of random edges, constrained ones among them,
// which splits them) and points around dangling segments, whose cavities
// reach both of their sides.
func TestCommitMatchesOracle(t *testing.T) {
	var total twin
	for seed := int64(1); seed <= 4; seed++ {
		w := newTwin()
		w.buildCDT(t, 24)
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 1500; step++ {
			var p geom.Point
			var loc Location
			switch r := rng.Intn(10); {
			case r < 3: // the midpoint of a random edge, as SplitEdge seeds it
				ids := liveTris(w.cur)
				id := ids[rng.Intn(len(ids))]
				e := rng.Intn(3)
				tr := w.cur.tris[id]
				a, b := w.cur.verts[tr.V[(e+1)%3]], w.cur.verts[tr.V[(e+2)%3]]
				if p = a.Mid(b); p.Eq(a) || p.Eq(b) {
					continue
				}
				loc = Location{Kind: LocateOnEdge, Tri: id, Edge: e}
			case r < 5: // near the star's spokes
				p = geom.Pt(0.3+0.4*(rng.Float64()-0.5), 0.6+0.4*(rng.Float64()-0.5))
				loc = w.cur.Locate(p, NoTri)
			default:
				p = geom.Pt(rng.Float64(), rng.Float64())
				loc = w.cur.Locate(p, NoTri)
			}
			if loc.Kind != LocateInside && loc.Kind != LocateOnEdge {
				continue
			}
			w.insert(t, p, loc)
		}
		if err := w.cur.Validate(); err != nil {
			t.Fatal(err)
		}
		total.inserted += w.inserted
		total.onEdge += w.onEdge
		total.splits += w.splits
		total.pinched += w.pinched
	}
	t.Logf("%d insertions: %d on an edge, %d constrained splits, %d pinched boundaries",
		total.inserted, total.onEdge, total.splits, total.pinched)
	if total.onEdge == 0 || total.splits == 0 {
		t.Errorf("the sequences inserted %d points on edges and split %d segments; want both", total.onEdge, total.splits)
	}
}

// TestCommitMatchesOraclePinched commits, through the kernel and through
// the oracle, a cavity whose boundary passes through one vertex twice (two
// triangles that share only w), with a constrained edge at each pinch.
func TestCommitMatchesOraclePinched(t *testing.T) {
	w := newTwin()
	w.both(func(m *Mesh) {
		wv := m.addVertex(geom.Pt(0, 0))
		a, b := m.addVertex(geom.Pt(1, -1)), m.addVertex(geom.Pt(1, 1))
		c, d := m.addVertex(geom.Pt(-1, 1)), m.addVertex(geom.Pt(-1, -1))
		t1, t2 := m.newTri(wv, a, b), m.newTri(wv, c, d)
		s := m.scratch()
		s.begin(len(m.tris))
		s.p = geom.Pt(0.5, 0)
		s.splitA, s.splitB = NoVertex, NoVertex
		s.cavity = append(s.cavity[:0], t1, t2)
		s.boundary = append(s.boundary[:0],
			bedge{a, b, NoTri, -1, false}, bedge{b, wv, NoTri, -1, false}, bedge{wv, a, NoTri, -1, true},
			bedge{c, d, NoTri, -1, false}, bedge{d, wv, NoTri, -1, true}, bedge{wv, c, NoTri, -1, false})
	})
	if !pinchedBoundary(w.cur.scr.boundary) {
		t.Fatal("the boundary is not pinched")
	}
	if vo, vc := w.old.oracleCommitCavity(), w.cur.CommitCavity(); vo != vc {
		t.Fatalf("vertex %d, the oracle's %d", vc, vo)
	}
	w.same(t)
}
