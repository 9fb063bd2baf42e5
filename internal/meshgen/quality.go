package meshgen

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
)

// Quality is the report a changed mesh is judged by (DESIGN.md "When a mesh
// may change"): what a run made, how good its elements are against the
// radius-edge bound, how closely they follow the size they were refined to,
// and whether every piece is a valid, Delaunay, conforming mesh. A run
// fills one when its config asks (UPDRConfig.Quality and its siblings), one
// piece at a time as each is meshed; the goldens pin it beside their hash.
//
// Every figure is a function of the set of pieces, not of the order they
// were added in: counts, extremes and order statistics only, no float sums.
type Quality struct {
	Method   string `json:"method"`
	Pieces   int    `json:"pieces"`
	Elements int    `json:"elements"`
	Vertices int    `json:"vertices"`

	// Beta is the radius-edge bound the run refined to, and BoundDeg the
	// minimum angle it guarantees, asin(1/(2β)): 20.7048° for β = √2.
	Beta     float64 `json:"beta"`
	BoundDeg float64 `json:"bound_deg"`
	// MinAngleDeg is the smallest angle of any element, and BelowBound the
	// elements whose smallest angle is under BoundDeg.
	MinAngleDeg float64 `json:"min_angle_deg"`
	BelowBound  int     `json:"below_bound"`
	// WorstRadiusEdge is the largest circumradius-to-shortest-edge ratio.
	WorstRadiusEdge float64 `json:"worst_radius_edge"`
	// AngleEdgesDeg are the edges of the histogram of each element's
	// smallest angle, the bound among them; AngleHist[k] counts the
	// elements in [AngleEdgesDeg[k], AngleEdgesDeg[k+1]).
	AngleEdgesDeg []float64 `json:"angle_edges_deg"`
	AngleHist     []int     `json:"angle_hist"`

	// SizeP50 and SizeP99 are the median and 99th percentile of an
	// element's longest edge over the target length at its centroid: at
	// most 1 where the refiner enforced the target, 0 where a piece had
	// none.
	SizeP50 float64 `json:"size_p50"`
	SizeP99 float64 `json:"size_p99"`

	// Valid and Delaunay count the pieces that pass mesh.Validate and
	// mesh.CheckDelaunay; a good run has both equal to Pieces.
	Valid      int  `json:"valid"`
	Delaunay   int  `json:"delaunay"`
	Conforming bool `json:"conforming"`
	// MeshHash is the run's digest where the method has one (OUPDR).
	MeshHash string `json:"mesh_hash,omitempty"`

	mu    sync.Mutex
	sizes []float64 // every element's longest edge over target, unsorted
}

// NewQuality starts an empty report for a run refined to radius-edge bound
// beta (0: the default √2).
func NewQuality(beta float64) *Quality {
	if beta == 0 {
		beta = delaunay.DefaultQualityBound
	}
	bound := math.Asin(1/(2*beta)) * 180 / math.Pi
	edges := []float64{0, 10, 15, bound, 25, 30, 35, 40, 45, 50, 55, 60}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	return &Quality{Beta: beta, BoundDeg: bound, MinAngleDeg: 60, AngleEdgesDeg: edges,
		AngleHist: make([]int, len(edges)-1)}
}

// newQualityIf is NewQuality(beta) when asked is true, and nil — a report
// that adds nothing — otherwise.
func newQualityIf(asked bool, beta float64) *Quality {
	if !asked {
		return nil
	}
	return NewQuality(beta)
}

// constTarget is a target edge length of h everywhere. A block is refined to
// the area of the equilateral triangle of side h, its boundary spacing.
func constTarget(h float64) func(geom.Point) float64 {
	return func(geom.Point) float64 { return h }
}

// uniformTarget is the target edge length of a run refined to maxArea: the
// side of the equilateral triangle of that area.
func uniformTarget(maxArea float64) func(geom.Point) float64 {
	return constTarget(math.Sqrt(4 * maxArea / math.Sqrt(3)))
}

// Add reports one finished piece: m's elements, judged against target, the
// target edge length at a point (nil: the piece has none). Safe for
// concurrent use; q nil adds nothing, so a run that was not asked for a
// report calls it unconditionally.
func (q *Quality) Add(m *mesh.Mesh, target func(geom.Point) float64) {
	if q == nil {
		return
	}
	p := Quality{MinAngleDeg: 60, AngleHist: make([]int, len(q.AngleHist))}
	m.ForEachTri(func(t mesh.TriID, _ mesh.Tri) {
		if m.HasSuperVertex(t) {
			return
		}
		tr := m.Triangle(t)
		ab, bc, ca := tr.EdgeLengths2()
		short, long := math.Sqrt(min(ab, bc, ca)), math.Sqrt(max(ab, bc, ca))
		// R = abc/(4·area), so R/ℓmin = ℓa·ℓb·ℓc/(4·area·ℓmin), and the
		// smallest angle, opposite the shortest edge, is asin(ℓmin/(2R)).
		area := math.Abs(tr.B.Sub(tr.A).Cross(tr.C.Sub(tr.A))) / 2
		ratio := 1e9 // a degenerate element; JSON has no infinity
		if area > 0 {
			ratio = math.Sqrt(ab*bc*ca) / (4 * area * short)
		}
		angle := math.Asin(min(1, 1/(2*ratio))) * 180 / math.Pi
		p.WorstRadiusEdge = max(p.WorstRadiusEdge, ratio)
		p.MinAngleDeg = min(p.MinAngleDeg, angle)
		if angle < q.BoundDeg {
			p.BelowBound++
		}
		k, _ := slices.BinarySearch(q.AngleEdgesDeg, angle)
		if k == len(q.AngleEdgesDeg) || q.AngleEdgesDeg[k] != angle {
			k--
		}
		p.AngleHist[min(max(k, 0), len(p.AngleHist)-1)]++
		if target != nil {
			if h := target(tr.Centroid()); h > 0 {
				p.sizes = append(p.sizes, long/h)
			}
		}
	})
	valid, delaunayOK := m.Validate() == nil, m.CheckDelaunay() == nil

	q.mu.Lock()
	defer q.mu.Unlock()
	q.Pieces++
	q.Elements += m.NumTriangles()
	q.Vertices += m.NumVertices()
	q.WorstRadiusEdge = max(q.WorstRadiusEdge, p.WorstRadiusEdge)
	q.MinAngleDeg = min(q.MinAngleDeg, p.MinAngleDeg)
	q.BelowBound += p.BelowBound
	for k, n := range p.AngleHist {
		q.AngleHist[k] += n
	}
	q.sizes = append(q.sizes, p.sizes...)
	if valid {
		q.Valid++
	}
	if delaunayOK {
		q.Delaunay++
	}
}

// Close finishes the report with what only the run knows, and returns q:
// the method's name, whether its interfaces conform, and its MeshHash.
// Floats are rounded to six significant digits so that a pinned report
// reads the same on every platform Go computes them identically on.
func (q *Quality) Close(method string, conforming bool, meshHash string) *Quality {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.Method, q.Conforming, q.MeshHash = method, conforming, meshHash
	slices.Sort(q.sizes)
	q.SizeP50, q.SizeP99 = percentile(q.sizes, 0.50), percentile(q.sizes, 0.99)
	q.sizes = nil
	for _, f := range []*float64{&q.Beta, &q.BoundDeg, &q.MinAngleDeg, &q.WorstRadiusEdge, &q.SizeP50, &q.SizeP99} {
		*f = round6(*f)
	}
	for k := range q.AngleEdgesDeg {
		q.AngleEdgesDeg[k] = round6(q.AngleEdgesDeg[k])
	}
	return q
}

// percentile is the nearest-rank percentile of sorted, 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(int(math.Ceil(p*float64(len(sorted))))-1, 0)]
}

func round6(x float64) float64 {
	if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return x
	}
	scale := math.Pow(10, 5-math.Floor(math.Log10(math.Abs(x))))
	return math.Round(x*scale) / scale
}

// tableKeyWidth is the width of Table's first column.
const tableKeyWidth = 22

// Table renders the report, one figure a line, for people and for a
// side-by-side diff of two reports.
func (q *Quality) Table() string {
	var b strings.Builder
	line := func(k, format string, a ...any) {
		fmt.Fprintf(&b, "%-*s "+format+"\n", append([]any{tableKeyWidth, k}, a...)...)
	}
	line("method", "%s", q.Method)
	line("pieces", "%d", q.Pieces)
	line("elements", "%d", q.Elements)
	line("vertices", "%d", q.Vertices)
	line("min angle (deg)", "%.4f (bound %.4f)", q.MinAngleDeg, q.BoundDeg)
	line("below bound", "%d", q.BelowBound)
	line("worst radius-edge", "%.4f (bound %.4f)", q.WorstRadiusEdge, q.Beta)
	for k, n := range q.AngleHist {
		line(fmt.Sprintf("angle [%.1f, %.1f)", q.AngleEdgesDeg[k], q.AngleEdgesDeg[k+1]), "%d", n)
	}
	line("size p50 / p99", "%.4f / %.4f", q.SizeP50, q.SizeP99)
	line("valid / delaunay", "%d / %d of %d", q.Valid, q.Delaunay, q.Pieces)
	line("conforming", "%v", q.Conforming)
	if q.MeshHash != "" {
		line("mesh hash", "%s", q.MeshHash)
	}
	return b.String()
}

// QualityDiff renders two reports side by side, old on the left, each line
// that differs marked with a '*': what a re-pinned golden or a changed mesh
// puts in front of its reviewer.
func QualityDiff(old, new *Quality) string {
	a := strings.Split(strings.TrimSuffix(old.Table(), "\n"), "\n")
	b := strings.Split(strings.TrimSuffix(new.Table(), "\n"), "\n")
	width := 0
	for _, l := range a {
		width = max(width, len(l))
	}
	var out strings.Builder
	for k := range max(len(a), len(b)) {
		var l, r string
		if k < len(a) {
			l = a[k]
		}
		if k < len(b) {
			r = b[k]
		}
		mark := ' '
		if l != r {
			mark = '*'
		}
		fmt.Fprintf(&out, "%c %-*s | %s\n", mark, width, l, r[min(len(r), tableKeyWidth+1):])
	}
	return out.String()
}
