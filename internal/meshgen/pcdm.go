package meshgen

import (
	"fmt"
	"sync"
	"time"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/sched"
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
	// Quality asks RunPCDM for the run's quality report (Result.Quality):
	// every subdomain is judged once the run is over, which costs a pass over
	// its elements and its Validate and CheckDelaunay. RunOPCDM has no
	// report.
	Quality bool
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
	nbs       [4]int // left, right, bottom and top neighbours' indices; -1 on the grid's edge
	m         *mesh.Mesh
	since     int // refineSubdomain's since for m; 0: judge every triangle
	pending   []geom.Point
	scheduled bool // a task for the subdomain is queued or running
}

// pcdmRun is one in-core PCDM run: its subdomains (indexed j*g+i) and the
// first error a task returned.
type pcdmRun struct {
	subs          []*subdomainState
	maxArea, beta float64
	err           firstErr
}

// RunPCDM executes the in-core constrained Delaunay method: subdomains
// refined as tasks on a pool of PE workers, interface splits exchanged as
// small asynchronous messages until the system goes quiet.
func RunPCDM(cfg PCDMConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	g := cfg.Grid
	r := &pcdmRun{
		subs:    make([]*subdomainState, g*g),
		maxArea: workload.UniformAreaFor(cfg.TargetElements, 1.0),
		beta:    cfg.QualityBound,
	}
	for j := 0; j < g; j++ {
		for i := 0; i < g; i++ {
			s := &subdomainState{rect: blockRect(g, i, j), nbs: [4]int{j*g + i - 1, j*g + i + 1, (j-1)*g + i, (j+1)*g + i}}
			for side, on := range [4]bool{i > 0, i+1 < g, j > 0, j+1 < g} {
				if !on {
					s.nbs[side] = -1
				}
			}
			r.subs[j*g+i] = s
		}
	}

	// One task schedules every subdomain, in index order: on one PE all of
	// them are queued before the first refinement sends a split.
	pool := sched.NewGlobalQueue(cfg.PEs)
	pool.Submit(func(c *sched.Ctx) {
		for idx := range r.subs {
			r.schedule(c, idx)
		}
	})
	pool.Wait() // every task, the cascaded split tasks included, is done
	pool.Close()
	if err := r.err.take(); err != nil {
		return Result{}, err
	}

	reports := make([]subdomainReport, len(r.subs))
	elements, vertices := 0, 0
	q, target := newQualityIf(cfg.Quality, cfg.QualityBound), uniformTarget(r.maxArea)
	for idx, s := range r.subs {
		rep, err := reportOf(s.rect, s.m)
		if err != nil {
			return Result{}, err
		}
		reports[idx] = rep
		elements += rep.elements
		vertices += rep.vertices
		q.Add(s.m, target)
	}
	conforming := auditInterfaces(reports)
	return Result{
		Method:     "PCDM",
		Elements:   elements,
		Vertices:   vertices,
		Subdomains: g * g,
		PEs:        cfg.PEs,
		Elapsed:    time.Since(start),
		Conforming: conforming,
		Quality:    q.Close("PCDM", conforming, ""),
	}, nil
}

// schedule spawns a task for subdomain idx unless one is queued or running.
func (r *pcdmRun) schedule(c *sched.Ctx, idx int) {
	s := r.subs[idx]
	s.mu.Lock()
	if s.scheduled {
		s.mu.Unlock()
		return
	}
	s.scheduled = true
	s.mu.Unlock()
	c.Spawn(func(c *sched.Ctx) {
		if err := r.runPCDMTask(c, idx); err != nil {
			r.err.set(err)
		}
	})
}

// runPCDMTask processes one subdomain: drain pending splits, refine,
// dispatch outgoing splits.
func (r *pcdmRun) runPCDMTask(c *sched.Ctx, idx int) error {
	s := r.subs[idx]
	s.mu.Lock()
	splits := s.pending
	s.pending = nil
	if s.m == nil {
		m, err := newSubdomainMesh(s.rect)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.m = m
	}
	m, since := s.m, s.since
	s.mu.Unlock()

	var hasNb [4]bool
	for side, nb := range s.nbs {
		hasNb[side] = nb >= 0
	}
	out, since, err := refine(m, s.rect, splits, since, r.maxArea, r.beta, hasNb)
	if err != nil {
		return err
	}

	s.mu.Lock()
	s.since = since
	s.scheduled = false
	more := len(s.pending) > 0
	s.mu.Unlock()

	// Ship aggregated split messages to the neighbors.
	for side, nb := range s.nbs {
		if len(out[side]) == 0 || nb < 0 {
			continue
		}
		ns := r.subs[nb]
		ns.mu.Lock()
		ns.pending = append(ns.pending, out[side]...)
		ns.mu.Unlock()
		r.schedule(c, nb)
	}
	if more {
		r.schedule(c, idx)
	}
	return nil
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
