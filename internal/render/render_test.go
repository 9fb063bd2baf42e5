package render

import (
	"bytes"
	"strings"
	"testing"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/workload"
)

func refinedSquare(t *testing.T) *mesh.Mesh {
	t.Helper()
	m, _, err := delaunay.BuildCDT(workload.UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := delaunay.Refine(m, delaunay.Options{MaxArea: 0.02}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWriteSVG(t *testing.T) {
	m := refinedSquare(t)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, m, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") {
		t.Fatal("missing svg root")
	}
	if got := strings.Count(out, "<polygon"); got != m.NumTriangles() {
		t.Fatalf("polygons = %d, triangles = %d", got, m.NumTriangles())
	}
	if !strings.Contains(out, "</svg>") {
		t.Fatal("unterminated svg")
	}
}

func TestWriteSVGQualityAndConstrained(t *testing.T) {
	m := refinedSquare(t)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, m, Options{FillByQuality: true, Constrained: true, WidthPx: 400}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "<line"); got != numConstrained(m) {
		t.Fatalf("lines = %d, constrained = %d", got, numConstrained(m))
	}
	if !strings.Contains(out, `width="400"`) {
		t.Fatal("width option ignored")
	}
}

func TestWriteSVGEmptyMesh(t *testing.T) {
	if err := WriteSVG(&bytes.Buffer{}, mesh.New(), Options{}); err == nil {
		t.Fatal("empty mesh should error")
	}
}

func TestQualityColorRange(t *testing.T) {
	for _, q := range []float64{0, 0.577, 1.0, 1.4142, 10} {
		c := qualityColor(q)
		if len(c) != 7 || c[0] != '#' {
			t.Fatalf("bad color %q for q=%v", c, q)
		}
	}
	if qualityColor(0.577) == qualityColor(5) {
		t.Fatal("good and bad triangles should differ in color")
	}
	_ = geom.Pt(0, 0)
}

// numConstrained counts m's constrained edges.
func numConstrained(m *mesh.Mesh) int {
	n := 0
	m.ForEachConstrained(func(_, _ mesh.VertexID) { n++ })
	return n
}
