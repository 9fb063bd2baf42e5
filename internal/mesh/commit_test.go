package mesh

import (
	"math/rand"
	"slices"
	"testing"

	"mrts/internal/geom"
)

// fanNeighborsByScan is how CommitCavity wired the fan before it kept
// per-vertex marks, kept here as the oracle: for the fan triangle over
// boundary edge i, the triangle across (b, v) is the one over the last edge
// that starts at b, the triangle across (v, a) the one over the last edge
// that ends at a, and NoTri where there is none.
func fanNeighborsByScan(boundary []bedge, created []TriID, i int) (acrossBV, acrossVA TriID) {
	acrossBV, acrossVA = NoTri, NoTri
	for j := len(boundary) - 1; j >= 0; j-- {
		if boundary[j].a == boundary[i].b {
			acrossBV = created[j]
			break
		}
	}
	for j := len(boundary) - 1; j >= 0; j-- {
		if boundary[j].b == boundary[i].a {
			acrossVA = created[j]
			break
		}
	}
	return acrossBV, acrossVA
}

// commitAndCheckWiring commits the cavity in m's scratch and compares the
// fan's internal links with the oracle's.
func commitAndCheckWiring(t *testing.T, m *Mesh) {
	t.Helper()
	boundary := slices.Clone(m.scr.boundary)
	m.CommitCavity()
	for i := range boundary {
		wantBV, wantVA := fanNeighborsByScan(boundary, m.scr.created, i)
		tr := m.tris[m.scr.created[i]]
		if tr.N[1] != wantBV || tr.N[2] != wantVA {
			t.Fatalf("fan triangle %d of %d over %+v: neighbors (%d, %d), the scan gives (%d, %d)",
				i, len(boundary), boundary[i], tr.N[1], tr.N[2], wantBV, wantVA)
		}
	}
}

// TestCommitCavityWiringMatchesScan checks the linear wiring against the
// scan on the cavities of random insertions and edge splits in a mesh with
// constrained edges, open ones (a split hull edge) included.
func TestCommitCavityWiringMatchesScan(t *testing.T) {
	m := carveSquare(t, 300, 5)
	rng := rand.New(rand.NewSource(6))
	for step := 0; step < 3000; step++ {
		var p geom.Point
		var loc Location
		if step%5 == 4 {
			ids := liveTris(m)
			id := ids[rng.Intn(len(ids))]
			e := rng.Intn(3)
			tr := m.tris[id]
			a, b := m.verts[tr.V[(e+1)%3]], m.verts[tr.V[(e+2)%3]]
			if p = a.Mid(b); p.Eq(a) || p.Eq(b) {
				continue
			}
			loc = Location{Kind: LocateOnEdge, Tri: id, Edge: e}
		} else {
			p = geom.Pt(rng.Float64(), rng.Float64())
			loc = m.Locate(p, NoTri)
			if loc.Kind != LocateInside && loc.Kind != LocateOnEdge {
				continue
			}
		}
		m.GrowCavity(p, loc)
		commitAndCheckWiring(t, m)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitCavityPinchedBoundary hands CommitCavity a cavity whose boundary
// passes through one vertex twice — two triangles that share only w — where
// "the last edge starting at w" and "the first" are different edges.
func TestCommitCavityPinchedBoundary(t *testing.T) {
	m := New()
	w := m.addVertex(geom.Pt(0, 0))
	a, b := m.addVertex(geom.Pt(1, -1)), m.addVertex(geom.Pt(1, 1))
	c, d := m.addVertex(geom.Pt(-1, 1)), m.addVertex(geom.Pt(-1, -1))
	t1, t2 := m.newTri(w, a, b), m.newTri(w, c, d)

	s := m.scratch()
	s.begin(len(m.tris))
	s.p = geom.Pt(0.5, 0)
	s.splitA, s.splitB = NoVertex, NoVertex
	s.cavity = append(s.cavity[:0], t1, t2)
	s.boundary = append(s.boundary[:0],
		bedge{a, b, NoTri, -1, false}, bedge{b, w, NoTri, -1, false}, bedge{w, a, NoTri, -1, true},
		bedge{c, d, NoTri, -1, false}, bedge{d, w, NoTri, -1, true}, bedge{w, c, NoTri, -1, false})
	commitAndCheckWiring(t, m)

	// Not vacuous: across (w, v) from the fan over (b, w) lies the fan over
	// (w, c), the later of the two edges that start at w, and the fans over
	// the constrained edges carry the flag on edge 0 only.
	fan := s.created
	if got := m.tris[fan[1]].N[1]; got != fan[5] {
		t.Errorf("fan over (b, w) meets triangle %d across (w, v), want %d, the fan over (w, c)", got, fan[5])
	}
	if got := m.tris[fan[2]].N[2]; got != fan[4] {
		t.Errorf("fan over (w, a) meets triangle %d across (v, w), want %d, the fan over (d, w)", got, fan[4])
	}
	for i, f := range fan {
		want := flagAlive
		if s.boundary[i].constrained {
			want |= flagEdge0
		}
		if m.flags[f] != want {
			t.Errorf("fan %d has flags %03b, want %03b", i, m.flags[f], want)
		}
	}
}
