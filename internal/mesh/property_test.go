package mesh

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"mrts/internal/geom"
)

// TestPropertyRandomInsertionsKeepInvariants drives the kernel with random
// point sets and checks the full invariant set after every build: structural
// validity, the Delaunay property, and Euler's relation.
func TestPropertyRandomInsertionsKeepInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%120) + 3
		rng := rand.New(rand.NewSource(seed))
		m := New()
		m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
		inserted := 3 // super vertices
		for i := 0; i < n; i++ {
			p := geom.Pt(rng.Float64(), rng.Float64())
			if _, err := m.InsertPoint(p, NoTri); err == nil {
				inserted++
			} else if err != ErrDuplicate {
				return false
			}
		}
		if err := m.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		if err := m.CheckDelaunay(); err != nil {
			t.Logf("delaunay: %v", err)
			return false
		}
		// Euler: triangles = 2V - 2 - hull; hull is the super triangle (3).
		return m.NumTriangles() == 2*inserted-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyClusteredPoints stresses near-degenerate input: many points
// packed into a tiny region plus cocircular rings.
func TestPropertyClusteredPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
	// Tight cluster.
	for i := 0; i < 100; i++ {
		p := geom.Pt(0.5+rng.Float64()*1e-6, 0.5+rng.Float64()*1e-6)
		if _, err := m.InsertPoint(p, NoTri); err != nil && err != ErrDuplicate {
			t.Fatal(err)
		}
	}
	// Cocircular ring (grid-snapped angles generate exact duplicates of
	// coordinates and many cocircular quadruples).
	for i := 0; i < 64; i++ {
		x := 0.5 + 0.25*cos64(i)
		y := 0.5 + 0.25*sin64(i)
		if _, err := m.InsertPoint(geom.Pt(x, y), NoTri); err != nil && err != ErrDuplicate {
			t.Fatal(err)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Fatal(err)
	}
}

func cos64(i int) float64 {
	table := [4]float64{1, 0, -1, 0}
	return table[i%4] * (1 + float64(i/4)*0.01)
}

func sin64(i int) float64 {
	table := [4]float64{0, 1, 0, -1}
	return table[i%4] * (1 + float64(i/4)*0.01)
}

// TestPropertySplitEdgeConsistency splits random constrained edges and
// verifies constraint bookkeeping stays exact.
func TestPropertySplitEdgeConsistency(t *testing.T) {
	m := carveSquare(t, 40, 21)
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 30; round++ {
		// Pick a random constrained edge.
		type e struct{ a, b VertexID }
		var edges []e
		m.ForEachConstrained(func(a, b VertexID) { edges = append(edges, e{a, b}) })
		if len(edges) == 0 {
			t.Fatal("no constrained edges")
		}
		pick := edges[rng.Intn(len(edges))]
		before := m.NumConstrained()
		v, err := m.SplitEdge(pick.a, pick.b)
		if err == ErrDuplicate {
			continue // too short to split
		}
		if err != nil {
			t.Fatalf("split: %v", err)
		}
		if m.IsConstrained(pick.a, pick.b) {
			t.Fatal("parent segment still constrained")
		}
		if !m.IsConstrained(pick.a, v) || !m.IsConstrained(v, pick.b) {
			t.Fatal("halves not constrained")
		}
		if m.NumConstrained() != before+1 {
			t.Fatalf("constraint count %d -> %d", before, m.NumConstrained())
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPropertyRandomOpsKeepInvariants drives one mesh, a constrained square
// frame inside the super triangle, through a random sequence of every
// mutation — point insertion, edge splits, segment recovery (flips), marking
// a segment before it exists, a decode round trip and finally carving — and
// validates after each step. Points go in before segments, as in BuildCDT:
// segment recovery leaves non-Delaunay triangles behind, on which cavity
// insertion is not defined. Validate includes the
// agreement of every triangle's constrained-edge flags with the constrained
// set, which each of these operations has to maintain in its own way.
func TestPropertyRandomOpsKeepInvariants(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
		var frame [4]VertexID
		for i, p := range []geom.Point{geom.Pt(0.05, 0.05), geom.Pt(0.95, 0.05), geom.Pt(0.95, 0.95), geom.Pt(0.05, 0.95)} {
			v, err := m.InsertPoint(p, NoTri)
			if err != nil {
				t.Fatal(err)
			}
			frame[i] = v
		}
		for i := range frame {
			if err := m.InsertSegment(frame[i], frame[(i+1)%4]); err != nil {
				t.Fatal(err)
			}
		}
		inside := func() geom.Point { return geom.Pt(0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64()) }
		realVertex := func() VertexID { return VertexID(3 + rng.Intn(m.NumVertices()-3)) }
		for step := 0; step < 150; step++ {
			ops := []string{"insert", "insert", "insert", "split", "decode"}
			if step >= 100 {
				ops = []string{"segment", "segment", "segment", "premarked segment", "decode"}
			}
			op := ops[rng.Intn(len(ops))]
			switch op {
			case "insert":
				p := inside()
				if _, err := m.InsertPoint(p, NoTri); err != nil && err != ErrDuplicate {
					t.Fatalf("seed %d step %d: insert %v: %v", seed, step, p, err)
				}
			case "split":
				// Any edge between real vertices, constrained or not.
				ids := liveTris(m)
				tr := m.Tri(ids[rng.Intn(len(ids))])
				e := rng.Intn(3)
				a, b := tr.V[e], tr.V[(e+1)%3]
				if m.IsSuper(a) || m.IsSuper(b) {
					continue
				}
				if _, err := m.SplitEdge(a, b); err != nil && err != ErrDuplicate {
					t.Fatalf("seed %d step %d: split: %v", seed, step, err)
				}
			case "segment":
				// A crossing or blocked segment is refused; the flips made
				// before the refusal must still leave a valid mesh.
				_ = m.InsertSegment(realVertex(), realVertex())
			case "premarked segment":
				a, b := realVertex(), realVertex()
				if a == b || m.IsConstrained(a, b) {
					continue
				}
				m.SetConstrained(a, b, true)
				if m.InsertSegment(a, b) != nil {
					m.SetConstrained(a, b, false)
				}
			case "decode":
				var buf bytes.Buffer
				if err := m.EncodeTo(&buf); err != nil {
					t.Fatal(err)
				}
				m = New()
				if err := m.DecodeFrom(&buf); err != nil {
					t.Fatalf("seed %d step %d: decode: %v", seed, step, err)
				}
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("seed %d step %d after %s: %v", seed, step, op, err)
			}
		}
		m.Carve()
		if err := m.Validate(); err != nil {
			t.Fatalf("seed %d after carve: %v", seed, err)
		}
		if m.NumTriangles() == 0 {
			t.Fatalf("seed %d: carving removed the framed interior", seed)
		}
	}
}

// TestPropertyEncodingCanonical checks that the encoding is a function of
// the mesh state: encoding twice gives the same bytes, and decode→encode
// reproduces its input exactly.
func TestPropertyEncodingCanonical(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		m := carveSquare(t, 80, seed)
		// More constraints than the four sides, so that their order matters.
		for round := 0; round < 20; round++ {
			var a, b VertexID
			m.ForEachConstrained(func(x, y VertexID) { a, b = x, y })
			if _, err := m.SplitEdge(a, b); err != nil && err != ErrDuplicate {
				t.Fatal(err)
			}
		}
		var b1, b2, b3 bytes.Buffer
		if err := m.EncodeTo(&b1); err != nil {
			t.Fatal(err)
		}
		if err := m.EncodeTo(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("seed %d: two encodings of one mesh differ", seed)
		}
		var m2 Mesh
		if err := m2.DecodeFrom(&b2); err != nil {
			t.Fatal(err)
		}
		if err := m2.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := m2.EncodeTo(&b3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
			t.Fatalf("seed %d: decode then encode is not a fixed point", seed)
		}
	}
}

// TestInsertPointSteadyStateAllocatesNothing pins the kernel's allocation
// behaviour: on a mesh with room in its arrays, an insertion takes its
// working storage from the mesh's scratch and allocates nothing.
func TestInsertPointSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	m := New()
	m.verts = make([]geom.Point, 0, 4096)
	m.vertTri = make([]TriID, 0, 4096)
	m.tris = make([]Tri, 0, 8192)
	m.flags = make([]triFlags, 0, 8192)
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
	rng := rand.New(rand.NewSource(7))
	hint := NoTri
	insert := func() {
		v, err := m.InsertPoint(geom.Pt(rng.Float64(), rng.Float64()), hint)
		if err != nil {
			t.Fatal(err)
		}
		hint = m.IncidentTri(v)
	}
	for i := 0; i < 1000; i++ {
		insert()
	}
	if avg := testing.AllocsPerRun(1000, insert); avg != 0 {
		t.Errorf("InsertPoint allocates %v times per call on a warmed mesh, want 0", avg)
	}
}

// liveTris returns the IDs of all live triangles.
func liveTris(m *Mesh) []TriID {
	var out []TriID
	m.ForEachTri(func(t TriID, _ Tri) { out = append(out, t) })
	return out
}

// bytesBuffer is a minimal io.ReadWriter for the round-trip test.
type bytesBuffer struct{ b []byte }

func (w *bytesBuffer) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *bytesBuffer) Read(p []byte) (int, error) {
	if len(w.b) == 0 {
		return 0, errEOF
	}
	n := copy(p, w.b)
	w.b = w.b[n:]
	return n, nil
}

var errEOF = io.EOF
