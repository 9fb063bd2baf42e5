package meshgen

import (
	"fmt"
	"sync"
	"time"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/workload"
)

// PCDMConfig configures a parallel constrained Delaunay meshing run: the
// unit square decomposed into Grid×Grid subdomains whose meshes conform to
// the subdomain boundaries, with interface segment splits propagated by
// small asynchronous messages.
type PCDMConfig struct {
	// Grid is the decomposition dimension (Grid×Grid subdomains).
	Grid int
	// TargetElements is the approximate total element count.
	TargetElements int
	// PEs is the number of processing elements.
	PEs int
	// QualityBound is the radius-edge bound (0 = default √2).
	QualityBound float64
}

func (c *PCDMConfig) defaults() error {
	if c.Grid <= 0 {
		c.Grid = 4
	}
	if c.PEs <= 0 {
		c.PEs = 1
	}
	if c.TargetElements <= 0 {
		return fmt.Errorf("meshgen: TargetElements must be positive")
	}
	return nil
}

// Subdomain neighbor sides.
const (
	sideLeft = iota
	sideRight
	sideBottom
	sideTop
)

// interfaceSide classifies a split midpoint against the subdomain rectangle:
// which side's interface line it lies on, or -1.
func interfaceSide(r geom.Rect, p geom.Point) int {
	switch {
	case p.X == r.Min.X:
		return sideLeft
	case p.X == r.Max.X:
		return sideRight
	case p.Y == r.Min.Y:
		return sideBottom
	case p.Y == r.Max.Y:
		return sideTop
	default:
		return -1
	}
}

// newSubdomainMesh builds the initial CDT of a rectangular subdomain: four
// corners, four constrained boundary segments, exterior carved.
func newSubdomainMesh(r geom.Rect) (*mesh.Mesh, error) {
	p := &delaunay.PSLG{
		Points: []geom.Point{
			r.Min, geom.Pt(r.Max.X, r.Min.Y), r.Max, geom.Pt(r.Min.X, r.Max.Y),
		},
		Segments: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	m, _, err := delaunay.BuildCDT(p)
	if err != nil {
		return nil, fmt.Errorf("meshgen: subdomain CDT: %w", err)
	}
	return m, nil
}

// refineSubdomain applies incoming interface split points to the mesh and
// runs quality/size refinement from since (delaunay.RefineFrom), returning
// the outgoing split points grouped by side and the since of the next call:
// the mesh's vertex count after a clean refinement, 0 after any other.
func refineSubdomain(m *mesh.Mesh, r geom.Rect, splits []geom.Point, since int,
	maxArea, beta float64, hasNb [4]bool) (out [4][]geom.Point, next int, err error) {
	// Each split is located by a walk from the one before it. Every split
	// lies on the hull, so where the walk starts cannot change where it
	// lands: on the vertex the split coincides with, or in the one triangle
	// of the hull edge it splits.
	hint := mesh.NoTri
	for _, p := range splits {
		v, err := m.InsertPoint(p, hint)
		if err != nil && err != mesh.ErrDuplicate && err != mesh.ErrOutside {
			return out, 0, fmt.Errorf("meshgen: applying split %v: %w", p, err)
		}
		if v != mesh.NoVertex {
			hint = m.IncidentTri(v)
		}
	}
	st, err := delaunay.RefineFrom(m, delaunay.Options{
		QualityBound: beta,
		MaxArea:      maxArea,
		OnSegmentSplit: func(a, b, mid geom.Point) {
			if s := interfaceSide(r, mid); s >= 0 && hasNb[s] {
				out[s] = append(out[s], mid)
			}
		},
	}, since)
	if err != nil || !st.Clean {
		return out, 0, err
	}
	return out, m.NumVertices(), nil
}

// refine is the subdomain refinement both PCDM drivers run; tests wrap it to
// check every call against a full scan.
var refine = refineSubdomain

// subdomainState is the in-core PCDM bookkeeping for one subdomain.
type subdomainState struct {
	mu        sync.Mutex
	rect      geom.Rect
	m         *mesh.Mesh
	since     int // refineSubdomain's since for m; 0: judge every triangle
	pending   []geom.Point
	scheduled bool
}

// RunPCDM executes the in-core constrained Delaunay method: subdomains
// refined by a PE worker pool, interface splits exchanged as small
// asynchronous messages until the system goes quiet.
func RunPCDM(cfg PCDMConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	g := cfg.Grid
	maxArea := workload.UniformAreaFor(cfg.TargetElements, 1.0)

	subs := make([]*subdomainState, g*g)
	for j := 0; j < g; j++ {
		for i := 0; i < g; i++ {
			subs[j*g+i] = &subdomainState{rect: blockRect(g, i, j)}
		}
	}
	nbIndex := func(idx, side int) int {
		i, j := idx%g, idx/g
		switch side {
		case sideLeft:
			i--
		case sideRight:
			i++
		case sideBottom:
			j--
		case sideTop:
			j++
		}
		if i < 0 || i >= g || j < 0 || j >= g {
			return -1
		}
		return j*g + i
	}

	type task struct{ idx int }
	var wg sync.WaitGroup // counts outstanding tasks
	tasks := make(chan task, g*g*4)
	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	// schedule enqueues a task for idx if none is queued or running.
	var schedule func(idx int)
	schedule = func(idx int) {
		s := subs[idx]
		s.mu.Lock()
		if s.scheduled {
			s.mu.Unlock()
			return
		}
		s.scheduled = true
		s.mu.Unlock()
		wg.Add(1)
		tasks <- task{idx}
	}

	var workersWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < cfg.PEs; w++ {
		workersWG.Add(1)
		go func() {
			defer workersWG.Done()
			for {
				select {
				case t := <-tasks:
					runPCDMTask(subs, t.idx, maxArea, cfg.QualityBound, g, nbIndex, schedule, fail)
					wg.Done()
				case <-stop:
					return
				}
			}
		}()
	}

	for idx := range subs {
		schedule(idx)
	}
	wg.Wait() // all tasks (including cascaded split tasks) done
	close(stop)
	workersWG.Wait()
	if firstErr != nil {
		return Result{}, firstErr
	}

	reports := make([]subdomainReport, len(subs))
	elements, vertices := 0, 0
	for idx, s := range subs {
		rep, err := reportOf(s.rect, s.m)
		if err != nil {
			return Result{}, err
		}
		reports[idx] = rep
		elements += rep.elements
		vertices += rep.vertices
	}
	return Result{
		Method:     "PCDM",
		Elements:   elements,
		Vertices:   vertices,
		Subdomains: g * g,
		PEs:        cfg.PEs,
		Elapsed:    time.Since(start),
		Conforming: auditInterfaces(reports),
	}, nil
}

// runPCDMTask processes one subdomain: drain pending splits, refine,
// dispatch outgoing splits.
func runPCDMTask(subs []*subdomainState, idx int, maxArea, beta float64, g int,
	nbIndex func(int, int) int, schedule func(int), fail func(error)) {
	s := subs[idx]
	s.mu.Lock()
	splits := s.pending
	s.pending = nil
	if s.m == nil {
		m, err := newSubdomainMesh(s.rect)
		if err != nil {
			s.scheduled = false
			s.mu.Unlock()
			fail(err)
			return
		}
		s.m = m
	}
	m, rect, since := s.m, s.rect, s.since
	s.mu.Unlock()

	var hasNb [4]bool
	for side := 0; side < 4; side++ {
		hasNb[side] = nbIndex(idx, side) >= 0
	}
	out, since, err := refine(m, rect, splits, since, maxArea, beta, hasNb)
	if err != nil {
		fail(err)
	}

	s.mu.Lock()
	s.since = since
	s.scheduled = false
	more := len(s.pending) > 0
	s.mu.Unlock()

	// Ship aggregated split messages to the neighbors.
	for side := 0; side < 4; side++ {
		if len(out[side]) == 0 {
			continue
		}
		nb := nbIndex(idx, side)
		if nb < 0 {
			continue
		}
		ns := subs[nb]
		ns.mu.Lock()
		ns.pending = append(ns.pending, out[side]...)
		ns.mu.Unlock()
		schedule(nb)
	}
	if more {
		schedule(idx)
	}
}

// subdomainCorner is the vertex of a subdomain mesh at its rectangle's Min
// corner: newSubdomainMesh inserts that corner first, after the three super
// vertices, and vertex IDs are never reused or renumbered.
const subdomainCorner mesh.VertexID = 3

// reportOf reports subdomain r's mesh, its hull walked from the corner.
func reportOf(r geom.Rect, m *mesh.Mesh) (subdomainReport, error) {
	if m.NumVertices() <= int(subdomainCorner) || m.Vertex(subdomainCorner) != r.Min {
		return subdomainReport{}, fmt.Errorf("meshgen: subdomain %v: vertex %d is not its corner", r, subdomainCorner)
	}
	hull, err := m.HullPoints(subdomainCorner)
	if err != nil {
		return subdomainReport{}, fmt.Errorf("meshgen: subdomain %v: %w", r, err)
	}
	return subdomainReport{rect: r, elements: m.NumTriangles(), vertices: m.NumVertices(), hull: hull}, nil
}
