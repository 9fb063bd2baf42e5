// Package workload generates the input domains (PSLGs) and sizing functions
// used by the evaluation: the unit square of the UPDR experiments, the pipe
// cross-section of the NUPDR/Table VII experiments, squares with holes, and
// gear-like shapes for additional stress tests — and, for whatever carries
// mesh payloads, one refined block in its encoded form.
package workload

import (
	"bytes"
	"math"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
)

// UnitSquare returns the [0,1]² square.
func UnitSquare() *delaunay.PSLG { return Rectangle(1, 1) }

// Rectangle returns a w×h rectangle anchored at the origin.
func Rectangle(w, h float64) *delaunay.PSLG {
	return &delaunay.PSLG{
		Points: []geom.Point{
			geom.Pt(0, 0), geom.Pt(w, 0), geom.Pt(w, h), geom.Pt(0, h),
		},
		Segments: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
}

// Pipe returns a pipe cross-section: an outer circle with a concentric
// circular hole, both approximated by n-gons. This is the geometry used for
// all NUPDR/ONUPDR experiments in the paper (Table VII: "a pipe
// cross-section geometry was used for all experiments").
func Pipe(n int, outer, inner float64, c geom.Point) *delaunay.PSLG {
	if n < 8 {
		n = 8
	}
	p := &delaunay.PSLG{}
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		p.Points = append(p.Points, geom.Pt(c.X+outer*math.Cos(a), c.Y+outer*math.Sin(a)))
	}
	for i := 0; i < n; i++ {
		p.Segments = append(p.Segments, [2]int{i, (i + 1) % n})
	}
	base := n
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		p.Points = append(p.Points, geom.Pt(c.X+inner*math.Cos(a), c.Y+inner*math.Sin(a)))
	}
	for i := 0; i < n; i++ {
		p.Segments = append(p.Segments, [2]int{base + i, base + (i+1)%n})
	}
	p.Holes = []geom.Point{c}
	return p
}

// SizeFunc is a target-edge-length field over the domain. It is the
// refiner's delaunay.SizeFunc, so it serves as Options.Size as it is.
type SizeFunc = delaunay.SizeFunc

// GradedRadial returns a sizing function that is h0 at center and grows
// linearly with distance (slope per unit distance) — the graded sizing of
// the NUPDR experiments.
func GradedRadial(center geom.Point, h0, slope float64) SizeFunc {
	return func(p geom.Point) float64 {
		return h0 + slope*p.Dist(center)
	}
}

// GradedAnnular grades around a ring of the given radius: fine near the ring
// (h0), coarser away from it — the typical sizing for a pipe cross-section
// with a boundary layer at the inner wall.
func GradedAnnular(center geom.Point, ringRadius, h0, slope float64) SizeFunc {
	return func(p geom.Point) float64 {
		return h0 + slope*math.Abs(p.Dist(center)-ringRadius)
	}
}

// UniformAreaFor returns the MaxArea refinement bound that yields roughly
// target elements over a domain of the given total area: a quality-refined
// uniform mesh averages about 60% of the maximum triangle area.
func UniformAreaFor(target int, domainArea float64) float64 {
	if target <= 0 {
		return 0
	}
	return domainArea / (0.6 * float64(target))
}

// UniformSizeFor returns the target edge length h that yields roughly target
// elements over a domain of the given area (equilateral triangles of side h
// have area √3/4·h², and sized refinement typically lands near 70% of h).
func UniformSizeFor(target int, domainArea float64) float64 {
	if target <= 0 {
		return 0
	}
	aTri := domainArea / float64(target)
	h := math.Sqrt(aTri * 4 / math.Sqrt(3))
	return h / 0.82
}

// RefinedBlock returns the encoding of the unit square refined to roughly
// target elements: the payload the swap tier and the mesh store carry, for
// tests and experiments that need a real block without running a cluster.
func RefinedBlock(target int) ([]byte, error) {
	m, _, err := delaunay.BuildCDT(UnitSquare())
	if err != nil {
		return nil, err
	}
	if _, err := delaunay.Refine(m, delaunay.Options{MaxArea: UniformAreaFor(target, 1)}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.EncodeTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
