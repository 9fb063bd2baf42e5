package delaunay_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"slices"
	"testing"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/meshgen"
	"mrts/internal/workload"
)

// squareWithHoles is the unit square with k small square holes in a
// diagonal arrangement.
func squareWithHoles(k int) *delaunay.PSLG {
	p := workload.UnitSquare()
	for i := 0; i < k; i++ {
		f := (float64(i) + 0.5) / float64(k)
		cx, cy := f, f
		r := 0.03 / float64(k) * 4
		base := len(p.Points)
		p.Points = append(p.Points,
			geom.Pt(cx-r, cy-r), geom.Pt(cx+r, cy-r), geom.Pt(cx+r, cy+r), geom.Pt(cx-r, cy+r))
		p.Segments = append(p.Segments,
			[2]int{base, base + 1}, [2]int{base + 1, base + 2},
			[2]int{base + 2, base + 3}, [2]int{base + 3, base})
		p.Holes = append(p.Holes, geom.Pt(cx, cy))
	}
	return p
}

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

var regolden = flag.Bool("regolden", false,
	"rewrite testdata/golden.json from this run and print the old and new reports side by side (make regolden)")

// goldenPin is what testdata/golden.json keeps of one case: the mesh's
// digest and its quality report.
type goldenPin struct {
	Digest string           `json:"digest"`
	Report *meshgen.Quality `json:"report"`
}

const goldenFile = "testdata/golden.json"

// TestGoldenRefinement pins the exact output of single-threaded
// BuildCDT+Refine, by meshDigest and by the quality report, both in
// testdata/golden.json, which make regolden rewrites (DESIGN.md "When a
// mesh may change"). The digest pins every triangle and the order in which
// points go in; the report says whether a changed digest is a reordered
// mesh or a worse one. Raw EncodeTo bytes are not pinned here: the
// map-based kernel the first digests were recorded with freed carved slots
// in map order, so triangle slot numbers differed from run to run, which is
// the one thing meshDigest leaves out. TestRefinementEncodingIsReproducible
// covers the bytes.
func TestGoldenRefinement(t *testing.T) {
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]goldenPin{}
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	got := map[string]goldenPin{}
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			m := c.build(t)
			q := meshgen.NewQuality(c.opts.QualityBound)
			q.Add(m, c.target())
			pin := goldenPin{Digest: meshDigest(m), Report: q.Close(c.name, true, "")}
			old := pins[c.name]
			if old.Report == nil {
				old.Report = &meshgen.Quality{}
			}
			a, _ := json.Marshal(old)
			b, err := json.Marshal(pin)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case *regolden:
				got[c.name] = pin
				if !bytes.Equal(a, b) {
					t.Logf("re-pinned: digest %s -> %s, old | new:\n%s", old.Digest, pin.Digest,
						meshgen.QualityDiff(old.Report, pin.Report))
				}
			case !bytes.Equal(a, b):
				t.Errorf("digest %s, pinned %s (make regolden re-pins), old | new:\n%s", pin.Digest, old.Digest,
					meshgen.QualityDiff(old.Report, pin.Report))
			}
		})
	}
	if *regolden && !t.Failed() {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
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
}

// target is the case's target edge length for the quality report: its size
// function, or the side of the equilateral triangle of its area bound.
func (c goldenCase) target() func(geom.Point) float64 {
	if f, ok := c.opts.Size.(delaunay.SizeFunc); ok {
		return f
	}
	h := math.Sqrt(4 * c.opts.MaxArea / math.Sqrt(3))
	return func(geom.Point) float64 { return h }
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
			delaunay.Options{MaxArea: workload.UniformAreaFor(4000, 1)}},
		{"pipe", workload.Pipe(48, 0.5, 0.2, centre),
			delaunay.Options{MaxArea: workload.UniformAreaFor(3000, 0.66)}},
		{"pipe-graded", workload.Pipe(32, 0.5, 0.2, centre),
			delaunay.Options{Size: workload.GradedAnnular(centre, 0.2, 0.01, 0.25)}},
		{"holes", squareWithHoles(3),
			delaunay.Options{MaxArea: workload.UniformAreaFor(3000, 1)}},
		{"square-frozen-segments", subdividedSquare(24),
			delaunay.Options{NoSegmentSplit: true, MaxArea: workload.UniformAreaFor(2000, 1)}},
	}
}
