package delaunay_test

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/workload"
)

// decodedCopy returns m encoded and decoded: the same mesh, with none of the
// in-memory state a run might leave behind.
func decodedCopy(t *testing.T, m *mesh.Mesh) *mesh.Mesh {
	t.Helper()
	var buf bytes.Buffer
	if err := m.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	c := mesh.New()
	if err := c.DecodeFrom(&buf); err != nil {
		t.Fatal(err)
	}
	return c
}

func encoded(t *testing.T, m *mesh.Mesh) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// liveBad counts the live triangles the oracle finds bad.
func liveBad(m *mesh.Mesh, o delaunay.Options) int {
	n := 0
	m.ForEachTri(func(id mesh.TriID, _ mesh.Tri) {
		if isBadOracle(m.Triangle(id), o) {
			n++
		}
	})
	return n
}

// hullMidpoints returns the midpoints of k constrained edges drawn at random,
// as a neighbour's interface splits of the shared sides would arrive.
func hullMidpoints(m *mesh.Mesh, rng *rand.Rand, k int) []geom.Point {
	var segs [][2]mesh.VertexID
	m.ForEachConstrained(func(a, b mesh.VertexID) { segs = append(segs, [2]mesh.VertexID{a, b}) })
	slices.SortFunc(segs, func(x, y [2]mesh.VertexID) int { return slices.Compare(x[:], y[:]) })
	out := make([]geom.Point, k)
	for i := range out {
		s := segs[rng.Intn(len(segs))]
		out[i] = m.Vertex(s[0]).Mid(m.Vertex(s[1]))
	}
	return out
}

// TestRefineFromMatchesRefine refines a rectangle, then inserts batch after
// batch of boundary midpoints and interior points into it. After each batch
// Refine runs on a decoded copy and RefineFrom on the original from where
// the last clean run left it: the seed lists, the stats, the segment splits
// reported and the encodings must all be identical, and Clean must say what
// the oracle says about the mesh.
func TestRefineFromMatchesRefine(t *testing.T) {
	centre := geom.Pt(1, 0.5)
	cases := []struct {
		name string
		opts delaunay.Options
	}{
		{"area", delaunay.Options{MaxArea: workload.UniformAreaFor(1500, 2)}},
		{"area-beta", delaunay.Options{QualityBound: 1.25, MaxArea: workload.UniformAreaFor(1000, 2)}},
		{"graded", delaunay.Options{SizeFunc: func(p geom.Point) float64 { return 0.02 + 0.08*p.Dist(centre) }}},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m, _, err := delaunay.BuildCDT(workload.Rectangle(2, 1))
			if err != nil {
				t.Fatal(err)
			}
			st, err := delaunay.Refine(m, c.opts)
			if err != nil || !st.Clean {
				t.Fatalf("%s: initial refine: %+v, %v", c.name, st, err)
			}
			since, incremental, seeded, steiner := m.NumVertices(), 0, 0, 0
			for batch := 0; batch < 8; batch++ {
				pts := hullMidpoints(m, rng, 2+rng.Intn(6))
				for k := rng.Intn(4); k > 0; k-- {
					pts = append(pts, geom.Pt(2*rng.Float64(), rng.Float64()))
				}
				for _, p := range pts {
					if _, err := m.InsertPoint(p, mesh.NoTri); err != nil && err != mesh.ErrDuplicate {
						t.Fatalf("%s: insert %v: %v", c.name, p, err)
					}
				}

				var splitsFull, splitsFrom []geom.Point
				full, from := c.opts, c.opts
				full.OnSegmentSplit = func(_, _, mid geom.Point) { splitsFull = append(splitsFull, mid) }
				from.OnSegmentSplit = func(_, _, mid geom.Point) { splitsFrom = append(splitsFrom, mid) }

				ref := decodedCopy(t, m)
				stFull, err := delaunay.Refine(ref, full)
				if err != nil {
					t.Fatal(err)
				}
				stFrom, seeds, scan, err := delaunay.RefineFromSeeds(m, from, since)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(seeds, scan) {
					t.Fatalf("%s seed %d batch %d: seeded %v, a full scan seeds %v", c.name, seed, batch, seeds, scan)
				}
				if stFrom != stFull {
					t.Fatalf("%s seed %d batch %d: stats %+v, Refine %+v", c.name, seed, batch, stFrom, stFull)
				}
				if !slices.Equal(splitsFrom, splitsFull) {
					t.Fatalf("%s seed %d batch %d: split %v, Refine split %v", c.name, seed, batch, splitsFrom, splitsFull)
				}
				if !bytes.Equal(encoded(t, m), encoded(t, ref)) {
					t.Fatalf("%s seed %d batch %d: meshes differ", c.name, seed, batch)
				}
				if bad := liveBad(m, c.opts); stFrom.Clean != (bad == 0) {
					t.Fatalf("%s seed %d batch %d: Clean = %v with %d bad triangles", c.name, seed, batch, stFrom.Clean, bad)
				}
				if since > 0 {
					incremental++
				}
				seeded += len(seeds)
				steiner += stFrom.SteinerPoints + stFrom.SegmentSplits
				since = 0
				if stFrom.Clean {
					since = m.NumVertices()
				}
			}
			if incremental < 4 || seeded == 0 || steiner == 0 {
				t.Errorf("%s seed %d: %d of 8 batches incremental, %d seeds, %d points: the case shows nothing",
					c.name, seed, incremental, seeded, steiner)
			}
			t.Logf("%s seed %d: %d triangles, %d of 8 batches incremental, %d seeds, %d points inserted",
				c.name, seed, m.NumTriangles(), incremental, seeded, steiner)
		}
	}
}

// TestRefineFromAfterUncleanRun takes TestRefineNoSegmentSplitSkips's setup,
// whose frozen segments leave bad triangles behind: the run must say it is
// not clean, seeding from its vertex count must miss those triangles, and the
// full scan the caller falls back to must match Refine.
func TestRefineFromAfterUncleanRun(t *testing.T) {
	p := &delaunay.PSLG{
		Points: []geom.Point{
			geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1),
			geom.Pt(0.5, 0.02),
		},
		Segments: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	opts := delaunay.Options{QualityBound: math.Sqrt2, NoSegmentSplit: true}
	m, _, err := delaunay.BuildCDT(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := delaunay.Refine(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped == 0 || st.Clean || liveBad(m, opts) == 0 {
		t.Fatalf("setup: %+v with %d bad triangles, want skips and not Clean", st, liveBad(m, opts))
	}
	stale := m.NumVertices()
	if _, err := m.InsertPoint(geom.Pt(0.5, 0.9), mesh.NoTri); err != nil {
		t.Fatal(err)
	}

	_, seeds, scan, err := delaunay.RefineFromSeeds(decodedCopy(t, m), opts, stale)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) >= len(scan) {
		t.Fatalf("seeding from the unclean run's %d vertices found %v, the full scan %v: the case shows nothing",
			stale, seeds, scan)
	}

	ref := decodedCopy(t, m)
	stFull, err := delaunay.Refine(ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	stFrom, seeds, scan, err := delaunay.RefineFromSeeds(m, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seeds, scan) || stFrom != stFull || !bytes.Equal(encoded(t, m), encoded(t, ref)) {
		t.Fatalf("RefineFrom(0) differs from Refine: %+v vs %+v", stFrom, stFull)
	}
}
