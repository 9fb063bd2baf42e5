package meshgen

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/quadtree"
	"mrts/internal/workload"
)

// NUPDRConfig configures a non-uniform (graded) parallel Delaunay refinement
// run over the unit square with a radially graded sizing field (the paper
// runs NUPDR on a pipe cross-section; a square with radial grading exercises
// the same non-uniformity, see DESIGN.md).
type NUPDRConfig struct {
	// TargetElements is the approximate total element count.
	TargetElements int
	// PEs is the number of processing elements.
	PEs int
	// QualityBound is the radius-edge bound (0 = default √2).
	QualityBound float64
	// Quality asks RunNUPDR for the run's quality report (Result.Quality):
	// every piece is judged as it is meshed, which costs a pass over its
	// elements and its Validate and CheckDelaunay. RunONUPDR, whose mesh
	// depends on the schedule, has no report.
	Quality bool
	// Grading is the coarse-to-fine size ratio across the domain (default 6).
	Grading float64
	// MaxLeafElems bounds the estimated elements per quad-tree leaf
	// (default 2000); it controls the over-decomposition.
	MaxLeafElems int
}

func (c *NUPDRConfig) defaults() error {
	if c.TargetElements <= 0 {
		return fmt.Errorf("meshgen: TargetElements must be positive")
	}
	if c.PEs <= 0 {
		c.PEs = 1
	}
	if c.Grading <= 1 {
		c.Grading = 6
	}
	if c.MaxLeafElems <= 0 {
		c.MaxLeafElems = 2000
	}
	return nil
}

// elementsPerUnitArea is the calibration constant linking a size field h to
// an element count: elements ≈ k · ∫ dA/h².
const elementsPerUnitArea = 3.4

// gradedSizeFor builds the radial sizing field h(p) = s·(1 + (Grading−1)·d)
// (d = distance from the domain center, normalized) and solves the scale s
// numerically so the refined mesh lands near target elements.
func gradedSizeFor(domain geom.Rect, grading float64, target int) sizeParams {
	c := domain.Center()
	g := newSizeParams(1, grading, c, c.Dist(domain.Max))
	// integral = ∫ dA / g² over a sample grid.
	const n = 64
	var integral float64
	dx := domain.W() / n
	dy := domain.H() / n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := geom.Pt(domain.Min.X+(float64(i)+0.5)*dx, domain.Min.Y+(float64(j)+0.5)*dy)
			gi := g.At(p)
			integral += dx * dy / (gi * gi)
		}
	}
	// target = k/s² · integral  →  s = sqrt(k·integral/target).
	s := math.Sqrt(elementsPerUnitArea * integral / float64(target))
	return newSizeParams(s, grading, c, g.DMax)
}

// buildLeafTree builds the balanced quad-tree whose leaves each hold at most
// roughly maxLeafElems elements under the sizing field.
func buildLeafTree(domain geom.Rect, size workload.SizeFunc, maxLeafElems int) *quadtree.Tree {
	t := quadtree.New(domain)
	leafDim := func(p geom.Point) float64 {
		return size(p) * math.Sqrt(float64(maxLeafElems)/elementsPerUnitArea)
	}
	t.RefineToSize(leafDim, 0)
	t.Balance()
	return t
}

// fixedPortion is a stretch of a leaf's boundary whose point set was already
// fixed by a refined neighbor: the buffer-zone data the refinement queue
// hands a leaf at dispatch.
type fixedPortion struct {
	A, B geom.Point
	Pts  []geom.Point
}

// assembleLeafBoundary builds the final boundary point cycle of a leaf: on
// portions fixed by refined neighbors the neighbor's points are reused
// verbatim; elsewhere points are placed deterministically at the local size,
// always including the dyadic edge midpoint (the 2:1 T-junction anchor).
func assembleLeafBoundary(rect geom.Rect, size workload.SizeFunc, fixed []fixedPortion) []geom.Point {
	corners := [4]geom.Point{
		rect.Min,
		geom.Pt(rect.Max.X, rect.Min.Y),
		rect.Max,
		geom.Pt(rect.Min.X, rect.Max.Y),
	}
	var cycle []geom.Point
	seen := make(map[geom.Point]bool)
	push := func(p geom.Point) {
		if !seen[p] {
			seen[p] = true
			cycle = append(cycle, p)
		}
	}
	for e := 0; e < 4; e++ {
		a := corners[e]
		b := corners[(e+1)%4]
		pts := edgePointCycle(a, b, size, fixed)
		for _, p := range pts[:len(pts)-1] { // drop b; next edge starts with it
			push(p)
		}
	}
	return cycle
}

// edgePointCycle returns the ordered points on edge (a, b) including both
// endpoints.
func edgePointCycle(a, b geom.Point, size workload.SizeFunc, fixed []fixedPortion) []geom.Point {
	d := b.Sub(a)
	den := d.Dot(d)
	param := func(p geom.Point) float64 { return p.Sub(a).Dot(d) / den }
	at := func(t float64) geom.Point {
		if t <= 0 {
			return a
		}
		if t >= 1 {
			return b
		}
		return geom.Pt(a.X+d.X*t, a.Y+d.Y*t)
	}

	// Collect fixed intervals on this edge.
	type iv struct {
		t0, t1 float64
		pts    []geom.Point
	}
	var ivs []iv
	for _, f := range fixed {
		// Portion must be collinear with this edge and overlap it.
		if geom.Orient2D(a, b, f.A) != geom.Zero || geom.Orient2D(a, b, f.B) != geom.Zero {
			continue
		}
		t0, t1 := param(f.A), param(f.B)
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t1 <= 0 || t0 >= 1 {
			continue
		}
		if t0 < 0 {
			t0 = 0
		}
		if t1 > 1 {
			t1 = 1
		}
		var pts []geom.Point
		for _, p := range f.Pts {
			if geom.OnSegment(a, b, p) {
				pts = append(pts, p)
			}
		}
		sort.Slice(pts, func(i, j int) bool { return param(pts[i]) < param(pts[j]) })
		ivs = append(ivs, iv{t0, t1, pts})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].t0 < ivs[j].t0 })

	// Walk the edge: fixed intervals verbatim, gaps deterministically.
	var out []geom.Point
	emit := func(p geom.Point) {
		if len(out) == 0 || !out[len(out)-1].Eq(p) {
			out = append(out, p)
		}
	}
	fillGap := func(t0, t1 float64) {
		if t1-t0 <= 1e-12 {
			return
		}
		// Force the dyadic midpoint of the edge when inside the gap.
		const tm = 0.5
		if t0 < tm && tm < t1 {
			fillUniform(t0, tm, a, b, at, size, emit)
			fillUniform(tm, t1, a, b, at, size, emit)
			return
		}
		fillUniform(t0, t1, a, b, at, size, emit)
	}
	cur := 0.0
	emit(a)
	for _, v := range ivs {
		if v.t0 > cur {
			fillGap(cur, v.t0)
		}
		for _, p := range v.pts {
			emit(p)
		}
		if v.t1 > cur {
			cur = v.t1
		}
	}
	if cur < 1 {
		fillGap(cur, 1)
	}
	emit(b)
	return out
}

// fillUniform emits evenly spaced points on the parameter interval (t0, t1)
// of edge (a, b), endpoints included, at most size(mid) apart.
func fillUniform(t0, t1 float64, a, b geom.Point, at func(float64) geom.Point,
	size workload.SizeFunc, emit func(geom.Point)) {
	p0, p1 := at(t0), at(t1)
	h := size(p0.Mid(p1))
	n := int(math.Ceil(p0.Dist(p1)/h - 1e-9))
	if n < 1 {
		n = 1
	}
	for k := 0; k <= n; k++ {
		emit(at(t0 + (t1-t0)*float64(k)/float64(n)))
	}
}

// leafSize is a sizing field as meshLeaf takes it: the target length at a
// point, which spaces the boundary points, and the refiner's size test.
// *sizeParams is the one the NUPDR builds use.
type leafSize interface {
	delaunay.SizeField
	At(geom.Point) float64
}

// meshLeaf builds the leaf's graded mesh: CDT of the assembled boundary
// cycle, refined by the sizing field with frozen boundary segments. The
// caller recycles the mesh when done with it; on an error meshLeaf does.
func meshLeaf(rect geom.Rect, size leafSize, beta float64, fixed []fixedPortion) (*mesh.Mesh, []geom.Point, error) {
	cycle := assembleLeafBoundary(rect, size.At, fixed)
	p := &delaunay.PSLG{Points: cycle}
	for i := range cycle {
		p.Segments = append(p.Segments, [2]int{i, (i + 1) % len(cycle)})
	}
	m, _, err := delaunay.BuildCDT(p)
	if err != nil {
		return nil, nil, fmt.Errorf("meshgen: leaf CDT: %w", err)
	}
	if _, err := delaunay.Refine(m, delaunay.Options{
		QualityBound:   beta,
		Size:           size,
		NoSegmentSplit: true,
	}); err != nil {
		m.Recycle()
		return nil, nil, fmt.Errorf("meshgen: leaf refine: %w", err)
	}
	return m, cycle, nil
}

// qleaf is the refinement queue's record of one leaf.
type qleaf struct {
	Rect     geom.Rect
	Nbs      []int32 // the leaf's buffer zone, as queue indices
	Done     bool
	InFlight bool
	Boundary []geom.Point // the boundary cycle the leaf was meshed with, once done
}

// leafQueue is the refinement queue of both NUPDR builds. It dispatches the
// first leaf in pending order whose region (the leaf and its buffer zone)
// meets no in-flight leaf's region, and none while MaxInflight leaves are in
// flight. So no two in-flight leaves are neighbours or share one, and a
// dispatched leaf's finished neighbours cannot change until it finishes.
type leafQueue struct {
	Leaves      []qleaf
	Pending     []int32
	Inflight    int32
	MaxInflight int32

	// busy[i] counts the in-flight regions holding leaf i. Like Inflight it
	// follows from the in-flight flags (recount), so it is not serialized.
	busy []int32
}

// newLeafQueue numbers tree's leaves in tree order, all pending.
func newLeafQueue(tree *quadtree.Tree, maxInflight int) leafQueue {
	leaves := tree.Leaves()
	idxOf := make(map[quadtree.NodeID]int32, len(leaves))
	for i, l := range leaves {
		idxOf[l] = int32(i)
	}
	q := leafQueue{MaxInflight: int32(maxInflight)}
	for i, l := range leaves {
		var nbs []int32
		for _, nb := range tree.Neighbors(l) {
			nbs = append(nbs, idxOf[nb])
		}
		q.Leaves = append(q.Leaves, qleaf{Rect: tree.Bounds(l), Nbs: nbs})
		q.Pending = append(q.Pending, int32(i))
	}
	q.recount()
	return q
}

// recount derives Inflight and the busy counts from the in-flight flags.
func (q *leafQueue) recount() {
	q.Inflight = 0
	q.busy = make([]int32, len(q.Leaves))
	for i := range q.Leaves {
		if q.Leaves[i].InFlight {
			q.Inflight++
			q.mark(int32(i), 1)
		}
	}
}

// mark adds d to the busy count of leaf i's region.
func (q *leafQueue) mark(i, d int32) {
	q.busy[i] += d
	for _, nb := range q.Leaves[i].Nbs {
		q.busy[nb] += d
	}
}

// blocked reports whether leaf i's region meets an in-flight region.
func (q *leafQueue) blocked(i int32) bool {
	if q.busy[i] > 0 {
		return true
	}
	for _, nb := range q.Leaves[i].Nbs {
		if q.busy[nb] > 0 {
			return true
		}
	}
	return false
}

// next dispatches the next startable leaf, if any, and returns the boundary
// portions its finished neighbours fixed.
func (q *leafQueue) next() (idx int32, fixed []fixedPortion, ok bool) {
	if q.Inflight >= q.MaxInflight {
		return 0, nil, false
	}
	for pi, li := range q.Pending {
		if q.blocked(li) {
			continue
		}
		q.Pending = append(q.Pending[:pi], q.Pending[pi+1:]...)
		q.Leaves[li].InFlight = true
		q.Inflight++
		q.mark(li, 1)
		return li, q.fixedFor(li), true
	}
	return 0, nil, false
}

// fixedFor returns, for each finished neighbour of leaf i that shares an edge
// with it, that neighbour's boundary points on the edge.
func (q *leafQueue) fixedFor(i int32) []fixedPortion {
	var fixed []fixedPortion
	l := &q.Leaves[i]
	for _, nb := range l.Nbs {
		n := &q.Leaves[nb]
		if !n.Done {
			continue
		}
		a, b, ok := sharedEdge(l.Rect, n.Rect)
		if !ok {
			continue
		}
		fixed = append(fixed, fixedPortion{A: a, B: b, Pts: edgePointsOn(n.Boundary, a, b)})
	}
	return fixed
}

// finish records that in-flight leaf idx was meshed with boundary and
// releases its region.
func (q *leafQueue) finish(idx int32, boundary []geom.Point) error {
	if idx < 0 || int(idx) >= len(q.Leaves) || !q.Leaves[idx].InFlight {
		return fmt.Errorf("meshgen: leaf %d finished but is not in flight", idx)
	}
	l := &q.Leaves[idx]
	l.Done, l.InFlight, l.Boundary = true, false, boundary
	q.Inflight--
	q.mark(idx, -1)
	return nil
}

// conforming reports whether every pair of edge-sharing leaves holds the
// same points on the shared edge.
func (q *leafQueue) conforming() bool {
	for i, l := range q.Leaves {
		for _, nb := range l.Nbs {
			if int(nb) <= i {
				continue
			}
			a, b, ok := sharedEdge(l.Rect, q.Leaves[nb].Rect)
			if ok && !samePoints(edgePointsOn(l.Boundary, a, b), edgePointsOn(q.Leaves[nb].Boundary, a, b)) {
				return false
			}
		}
	}
	return true
}

// RunNUPDR executes the in-core non-uniform method with the paper's
// master–worker structure: the refinement queue dispatches leaves to
// workers, each worker meshes its leaf reusing the boundary points its
// refined neighbors fixed (the buffer-zone data).
func RunNUPDR(cfg NUPDRConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	domain := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	size := gradedSizeFor(domain, cfg.Grading, cfg.TargetElements)
	q := newLeafQueue(buildLeafTree(domain, size.At, cfg.MaxLeafElems), cfg.PEs)
	n := len(q.Leaves)
	qr := newQualityIf(cfg.Quality, cfg.QualityBound)

	type job struct {
		idx   int32
		rect  geom.Rect
		fixed []fixedPortion
	}
	type resultMsg struct {
		idx      int32
		boundary []geom.Point
		elems    int
		verts    int
		err      error
	}
	jobs := make(chan job)
	results := make(chan resultMsg)
	var wg sync.WaitGroup
	for w := 0; w < cfg.PEs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				m, cycle, err := meshLeaf(jb.rect, &size, cfg.QualityBound, jb.fixed)
				if err != nil {
					results <- resultMsg{idx: jb.idx, err: err}
					continue
				}
				res := resultMsg{idx: jb.idx, boundary: cycle, elems: m.NumTriangles(), verts: m.NumVertices()}
				qr.Add(m, size.At)
				m.Recycle()
				results <- res
			}
		}()
	}

	var elements, vertices int
	var firstErr error
	for done := 0; done < n; done++ {
		for {
			li, fixed, ok := q.next()
			if !ok {
				break
			}
			jobs <- job{idx: li, rect: q.Leaves[li].Rect, fixed: fixed}
		}
		res := <-results
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
		if err := q.finish(res.idx, res.boundary); err != nil && firstErr == nil {
			firstErr = err
		}
		elements += res.elems
		vertices += res.verts
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return Result{}, firstErr
	}

	conforming := q.conforming()
	return Result{
		Method:     "NUPDR",
		Elements:   elements,
		Vertices:   vertices,
		Subdomains: n,
		PEs:        cfg.PEs,
		Elapsed:    time.Since(start),
		Conforming: conforming,
		Quality:    qr.Close("NUPDR", conforming, ""),
	}, nil
}

// sharedEdge returns the positive-length shared boundary segment of two
// touching axis-aligned rectangles.
func sharedEdge(a, b geom.Rect) (geom.Point, geom.Point, bool) {
	if a.Max.X == b.Min.X || b.Max.X == a.Min.X {
		x := a.Max.X
		if b.Max.X == a.Min.X {
			x = a.Min.X
		}
		y0 := math.Max(a.Min.Y, b.Min.Y)
		y1 := math.Min(a.Max.Y, b.Max.Y)
		if y0 < y1 {
			return geom.Pt(x, y0), geom.Pt(x, y1), true
		}
		return geom.Point{}, geom.Point{}, false
	}
	if a.Max.Y == b.Min.Y || b.Max.Y == a.Min.Y {
		y := a.Max.Y
		if b.Max.Y == a.Min.Y {
			y = a.Min.Y
		}
		x0 := math.Max(a.Min.X, b.Min.X)
		x1 := math.Min(a.Max.X, b.Max.X)
		if x0 < x1 {
			return geom.Pt(x0, y), geom.Pt(x1, y), true
		}
	}
	return geom.Point{}, geom.Point{}, false
}
