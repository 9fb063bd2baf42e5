package delaunay_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/workload"
)

// subdividedSquare is the unit square with every side cut into n segments,
// the shape of a block whose interfaces its neighbours have already fixed.
func subdividedSquare(n int) *delaunay.PSLG {
	p := &delaunay.PSLG{}
	corners := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	for s, a := range corners {
		b := corners[(s+1)%4]
		for k := 0; k < n; k++ {
			f := float64(k) / float64(n)
			p.Points = append(p.Points, geom.Pt(a.X+(b.X-a.X)*f, a.Y+(b.Y-a.Y)*f))
		}
	}
	for i := range p.Points {
		p.Segments = append(p.Segments, [2]int{i, (i + 1) % len(p.Points)})
	}
	return p
}

// meshDigest hashes everything about a mesh except which slot each triangle
// sits in: vertex positions in ID order, every live triangle as its vertex
// IDs rotated smallest-first (orientation kept) in sorted order, and the
// sorted constraints. Vertex IDs follow insertion order, so the digest pins
// the whole refinement sequence.
func meshDigest(m *mesh.Mesh) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := 0; i < m.NumVertices(); i++ {
		p := m.Vertex(mesh.VertexID(i))
		put(math.Float64bits(p.X))
		put(math.Float64bits(p.Y))
	}
	var tris [][3]mesh.VertexID
	m.ForEachTri(func(_ mesh.TriID, t mesh.Tri) {
		k := 0
		for i := 1; i < 3; i++ {
			if t.V[i] < t.V[k] {
				k = i
			}
		}
		tris = append(tris, [3]mesh.VertexID{t.V[k], t.V[(k+1)%3], t.V[(k+2)%3]})
	})
	slices.SortFunc(tris, func(x, y [3]mesh.VertexID) int { return slices.Compare(x[:], y[:]) })
	for _, t := range tris {
		for _, v := range t {
			put(uint64(v))
		}
	}
	var cons [][2]mesh.VertexID
	m.ForEachConstrained(func(a, b mesh.VertexID) { cons = append(cons, [2]mesh.VertexID{a, b}) })
	slices.SortFunc(cons, func(x, y [2]mesh.VertexID) int { return slices.Compare(x[:], y[:]) })
	for _, c := range cons {
		put(uint64(c[0]))
		put(uint64(c[1]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenRefinement pins the exact output of single-threaded
// BuildCDT+Refine. The digests were recorded at the commit before the
// grow/commit kernel, with its map-based insertion, so a kernel change that
// alters any triangle, or the order in which points go in, fails here. Raw
// EncodeTo bytes could not be pinned there: that kernel freed carved slots in
// map order, so triangle slot numbers differed from run to run, which is the
// one thing meshDigest leaves out. TestRefinementEncodingIsReproducible
// covers the bytes.
func TestGoldenRefinement(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			m := c.build(t)
			if got := meshDigest(m); got != c.want {
				t.Errorf("%d triangles, %d vertices:\n got %s\nwant %s",
					m.NumTriangles(), m.NumVertices(), got, c.want)
			}
		})
	}
}

// TestRefinementEncodingIsReproducible builds every golden case twice and
// compares the encodings byte for byte: triangle slots and constraint order
// are functions of the input alone.
func TestRefinementEncodingIsReproducible(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			var enc [2]bytes.Buffer
			for i := range enc {
				if err := c.build(t).EncodeTo(&enc[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(enc[0].Bytes(), enc[1].Bytes()) {
				t.Error("two builds of one input encode differently")
			}
		})
	}
}

type goldenCase struct {
	name string
	pslg *delaunay.PSLG
	opts delaunay.Options
	want string
}

func (c goldenCase) build(t *testing.T) *mesh.Mesh {
	t.Helper()
	m, _, err := delaunay.BuildCDT(c.pslg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := delaunay.Refine(m, c.opts); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func goldenCases() []goldenCase {
	centre := geom.Pt(0.5, 0.5)
	return []goldenCase{
		{"unit-square", workload.UnitSquare(),
			delaunay.Options{MaxArea: workload.UniformAreaFor(4000, 1)},
			"34ceebf2cdf37bb3b822e3a3b2ac0756217779a3ac2ee820bfae4216eae649f6"},
		{"pipe", workload.Pipe(48, 0.5, 0.2, centre),
			delaunay.Options{MaxArea: workload.UniformAreaFor(3000, 0.66)},
			"9274e511aceabeea0dfd69e5b19759ec6b63ee60631c99e87b229fc017dbb418"},
		{"pipe-graded", workload.Pipe(32, 0.5, 0.2, centre),
			delaunay.Options{Size: workload.GradedAnnular(centre, 0.2, 0.01, 0.25)},
			"4bb0bd69e2d8d8430820f0e4b03ba68596edc78ddf5b5ab4eba437f7ce0d6de5"},
		{"holes", workload.SquareWithHoles(3),
			delaunay.Options{MaxArea: workload.UniformAreaFor(3000, 1)},
			"dd945be4c1857faec169697afd5a7481a4fad376f02ea602234c539539b08b92"},
		{"square-frozen-segments", subdividedSquare(24),
			delaunay.Options{NoSegmentSplit: true, MaxArea: workload.UniformAreaFor(2000, 1)},
			"f174d8f4f1b5a95eb7a37c9d82e00212459088b2a5dfdd9c2bb31bf39b59960d"},
	}
}
