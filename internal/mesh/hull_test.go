package mesh

import (
	"bytes"
	"math/rand"
	"testing"

	"mrts/internal/geom"
)

// hullByScan is the oracle for HullPoints: every endpoint of an edge
// without a neighbour, found by judging every triangle.
func hullByScan(m *Mesh) map[geom.Point]bool {
	out := map[geom.Point]bool{}
	m.ForEachTri(func(_ TriID, tr Tri) {
		for k := 0; k < 3; k++ {
			if tr.N[k] == NoTri {
				out[m.verts[tr.V[(k+1)%3]]] = true
				out[m.verts[tr.V[(k+2)%3]]] = true
			}
		}
	})
	return out
}

// splitHull splits n random hull edges at their midpoints, so that the hull
// carries many collinear points, as a refined subdomain's does.
func splitHull(t *testing.T, m *Mesh, n int, rng *rand.Rand) {
	t.Helper()
	for k := 0; k < n; k++ {
		var edges [][2]VertexID
		m.ForEachTri(func(_ TriID, tr Tri) {
			for i := 0; i < 3; i++ {
				if tr.N[i] == NoTri {
					edges = append(edges, [2]VertexID{tr.V[(i+1)%3], tr.V[(i+2)%3]})
				}
			}
		})
		e := edges[rng.Intn(len(edges))]
		if _, err := m.SplitEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// checkHull compares the walk from corner (0,0) — vertex 3 of carveSquare —
// with the scan: the same points, each once, starting at the corner and
// going counter-clockwise round the unit square.
func checkHull(t *testing.T, m *Mesh) {
	t.Helper()
	got, err := m.HullPoints(3)
	if err != nil {
		t.Fatal(err)
	}
	want := hullByScan(m)
	seen := map[geom.Point]bool{}
	for _, p := range got {
		if !want[p] || seen[p] {
			t.Fatalf("walk gives %v, not a hull point or a repeat (%d walked, %d on the hull)", p, len(got), len(want))
		}
		seen[p] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("walk gives %d of %d hull points", len(seen), len(want))
	}
	if got[0] != geom.Pt(0, 0) {
		t.Fatalf("walk starts at %v, want the corner", got[0])
	}
	var area float64 // shoelace: +1 for a counter-clockwise unit square
	for i, p := range got {
		q := got[(i+1)%len(got)]
		area += p.X*q.Y - q.X*p.Y
	}
	if area /= 2; area < 0.999 || area > 1.001 {
		t.Fatalf("walk encloses signed area %v, want 1", area)
	}
}

func TestHullPointsMatchesScan(t *testing.T) {
	for _, interior := range []int{0, 3, 100, 800} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := carveSquare(t, interior, seed)
			checkHull(t, m)
			splitHull(t, m, 40, rng)
			checkHull(t, m)
			var buf bytes.Buffer
			if err := m.EncodeTo(&buf); err != nil {
				t.Fatal(err)
			}
			d := New()
			if err := d.DecodeFrom(&buf); err != nil {
				t.Fatal(err)
			}
			checkHull(t, d) // triangle IDs renumbered
		}
	}
}

func TestHullPointsRejectsNonHullStart(t *testing.T) {
	m := carveSquare(t, 50, 1)
	// Vertex 0 is a carved-away super vertex; vertex 7 the first interior
	// point, inserted after the four corners.
	for _, v := range []VertexID{-1, VertexID(m.NumVertices()), 0, 7} {
		if pts, err := m.HullPoints(v); err == nil {
			t.Errorf("walk from vertex %d gave %d points, want an error", v, len(pts))
		}
	}
}
