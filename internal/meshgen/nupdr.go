package meshgen

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/quadtree"
	"mrts/internal/sched"
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
	// Quality asks RunNUPDR and RunONUPDR for the run's quality report
	// (Result.Quality): every leaf is judged as it is meshed, which costs a
	// pass over its elements and its Validate and CheckDelaunay. Both builds
	// make the 1-PE mesh, so every run's report is the same.
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
// fixed by a refined neighbor: the buffer-zone data a finished predecessor
// hands a leaf.
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

// leafPlan is the fixed precedence both NUPDR builds mesh by: the tree's
// leaves in tree order (quadtree.Tree.Leaves), each with its neighbours,
// edge or corner (quadtree.Tree.Neighbors), as indices. A leaf's
// neighbours of lower index are its predecessors and the rest its
// successors: it meshes once every predecessor has finished, and takes as
// fixed portions their points on each shared edge, in Nbs order. Those are
// the portions the 1-PE run gives it, which meshes the leaves in index
// order, so every run of either build makes the 1-PE mesh, whatever its
// PEs, nodes or swapping. (The paper's master queue dispatched the first
// leaf whose region was free, and the mesh depended on the schedule;
// DESIGN.md "The NUPDR precedence and ONUPDR's one message".)
type leafPlan struct {
	Rects []geom.Rect
	Nbs   [][]int32
}

// newLeafPlan numbers tree's leaves in tree order.
func newLeafPlan(tree *quadtree.Tree) leafPlan {
	leaves := tree.Leaves()
	idxOf := make(map[quadtree.NodeID]int32, len(leaves))
	for i, l := range leaves {
		idxOf[l] = int32(i)
	}
	p := leafPlan{Rects: make([]geom.Rect, len(leaves)), Nbs: make([][]int32, len(leaves))}
	for i, l := range leaves {
		p.Rects[i] = tree.Bounds(l)
		for _, nb := range tree.Neighbors(l) {
			p.Nbs[i] = append(p.Nbs[i], idxOf[nb])
		}
	}
	return p
}

// preds counts leaf i's predecessors.
func (p *leafPlan) preds(i int) int {
	n := 0
	for _, nb := range p.Nbs[i] {
		if int(nb) < i {
			n++
		}
	}
	return n
}

// portionOf is the fixed portion a leaf with rectangle to takes from a
// finished neighbour with rectangle from, meshed with boundary: the
// neighbour's points on their shared edge. ok is false for a neighbour that
// shares a corner only.
func portionOf(to, from geom.Rect, boundary []geom.Point) (f fixedPortion, ok bool) {
	a, b, ok := sharedEdge(to, from)
	if !ok {
		return fixedPortion{}, false
	}
	return fixedPortion{A: a, B: b, Pts: edgePointsOn(boundary, a, b)}, true
}

// mismatches counts the fixed portions that cycle, the boundary a leaf was
// meshed with, does not hold verbatim on their edge: shared edges on which
// the leaf and a neighbour do not conform.
func mismatches(cycle []geom.Point, fixed []fixedPortion) int {
	n := 0
	for _, f := range fixed {
		if !samePoints(edgePointsOn(cycle, f.A, f.B), f.Pts) {
			n++
		}
	}
	return n
}

// RunNUPDR executes the in-core non-uniform method: the leaves of the
// quad-tree are meshed as tasks on a pool of PE workers, each reusing the
// boundary points its finished predecessors fixed (the buffer-zone data).
// A leaf's task is spawned by the task of its last predecessor to finish
// (leafPlan); the leaves with none are submitted at the start.
func RunNUPDR(cfg NUPDRConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	domain := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	size := gradedSizeFor(domain, cfg.Grading, cfg.TargetElements)
	plan := newLeafPlan(buildLeafTree(domain, size.At, cfg.MaxLeafElems))
	n := len(plan.Rects)
	qr := newQualityIf(cfg.Quality, cfg.QualityBound)

	// boundary[i] is the cycle leaf i was meshed with. Leaf i's task writes
	// it before it counts i off its successors, whose tasks read it.
	boundary := make([][]geom.Point, n)
	waiting := make([]atomic.Int32, n) // each leaf's unfinished predecessors
	var elements, vertices, mismatched atomic.Int64
	var errs firstErr
	var meshTask func(c *sched.Ctx, i int32)
	meshTask = func(c *sched.Ctx, i int32) {
		var fixed []fixedPortion
		for _, nb := range plan.Nbs[i] {
			if nb < i {
				if f, ok := portionOf(plan.Rects[i], plan.Rects[nb], boundary[nb]); ok {
					fixed = append(fixed, f)
				}
			}
		}
		m, cycle, err := meshLeaf(plan.Rects[i], &size, cfg.QualityBound, fixed)
		if err != nil {
			errs.set(err)
			return
		}
		elements.Add(int64(m.NumTriangles()))
		vertices.Add(int64(m.NumVertices()))
		mismatched.Add(int64(mismatches(cycle, fixed)))
		qr.Add(m, size.At)
		m.Recycle()
		boundary[i] = cycle
		for _, s := range plan.Nbs[i] {
			if s > i && waiting[s].Add(-1) == 0 {
				c.Spawn(func(c *sched.Ctx) { meshTask(c, s) })
			}
		}
	}
	for i := range waiting {
		waiting[i].Store(int32(plan.preds(i)))
	}
	pool := sched.NewGlobalQueue(cfg.PEs)
	for i := range waiting {
		if plan.preds(i) == 0 {
			pool.Submit(func(c *sched.Ctx) { meshTask(c, int32(i)) })
		}
	}
	pool.Wait()
	pool.Close()
	if err := errs.take(); err != nil {
		return Result{}, err
	}

	conforming := mismatched.Load() == 0
	return Result{
		Method:     "NUPDR",
		Elements:   int(elements.Load()),
		Vertices:   int(vertices.Load()),
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
