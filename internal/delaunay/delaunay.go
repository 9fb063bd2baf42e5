// Package delaunay implements guaranteed-quality Delaunay mesh refinement
// (Ruppert's algorithm) on top of the mesh package: constrained Delaunay
// triangulation of a planar straight-line graph (PSLG), followed by
// encroachment-driven segment splitting and circumcenter insertion until all
// triangles meet the quality and size bounds.
//
// This is the sequential meshing core used by every parallel mesh generation
// method in this repository (UPDR, NUPDR, PCDM and their out-of-core ports):
// each processing element runs this engine on its own subdomain.
package delaunay

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"mrts/internal/geom"
	"mrts/internal/mesh"
)

// DefaultQualityBound is the default circumradius-to-shortest-edge bound
// (sqrt 2, guaranteeing a minimum angle of about 20.7 degrees, for which
// Ruppert's algorithm provably terminates).
const DefaultQualityBound = math.Sqrt2

// Options control refinement.
type Options struct {
	// QualityBound is the maximum allowed circumradius-to-shortest-edge
	// ratio. Zero means DefaultQualityBound. Values below 1 are rejected
	// (refinement would not terminate). Termination is guaranteed for
	// bounds >= sqrt(2) when adjacent input segments meet at 60° or more
	// (Ruppert's condition); domains with very acute input angles should
	// set MaxVertices, as refinement can otherwise grind into the corners
	// indefinitely.
	QualityBound float64

	// MaxArea, when positive, forces every triangle's area below it
	// (uniform sizing).
	MaxArea float64

	// Size, when non-nil, is a graded sizing field: a triangle whose
	// longest edge exceeds the field's target length at its centroid is
	// refined.
	Size SizeField

	// MaxVertices caps the total number of vertices as a safety valve.
	// Zero means no cap. When the cap is hit, Refine stops early and
	// reports Capped in its stats.
	MaxVertices int

	// OnSegmentSplit, when non-nil, is called after every constrained
	// segment split with the segment endpoints and the inserted midpoint.
	// PCDM uses it to propagate interface splits to neighbor subdomains.
	OnSegmentSplit func(a, b, mid geom.Point)

	// NoSegmentSplit freezes all constrained segments: encroached segments
	// are never split, and Steiner points whose insertion would encroach a
	// segment are skipped instead (their triangles stay as they are).
	// Subdomain-local refinement uses this to keep interfaces bit-exact
	// with neighbors that already fixed them. Skipped triangles are
	// reported in Stats.
	NoSegmentSplit bool
}

// A SizeField judges a triangle against a target edge length that varies
// over the domain.
type SizeField interface {
	// Exceeds reports whether tr's longest edge exceeds the target length
	// at tr's centroid, given tr's squared edge lengths as
	// geom.Triangle.EdgeLengths2 returns them.
	Exceeds(tr geom.Triangle, ab, bc, ca float64) bool
}

// SizeFunc is a SizeField given as the target length at a point.
type SizeFunc func(geom.Point) float64

// Exceeds evaluates f at tr's centroid and compares tr's longest edge with
// it; a target that is not positive refines nothing.
func (f SizeFunc) Exceeds(tr geom.Triangle, ab, bc, ca float64) bool {
	// tr.Centroid(), written out: calling a method on the parameter has the
	// compiler store tr and load it back in 16-byte pieces, which stalls
	// (BenchmarkIsBad 55 ns instead of 42).
	h := f(geom.Pt((tr.A.X+tr.B.X+tr.C.X)/3, (tr.A.Y+tr.B.Y+tr.C.Y)/3))
	return h > 0 && tr.LongestEdgeExceeds(h, ab, bc, ca)
}

func (o *Options) qualityBound() float64 {
	if o.QualityBound == 0 {
		return DefaultQualityBound
	}
	return o.QualityBound
}

// Stats reports what a refinement run did.
type Stats struct {
	SteinerPoints int  // circumcenters inserted
	SegmentSplits int  // constrained segment midpoint insertions
	Skipped       int  // bad triangles left alone under NoSegmentSplit
	Capped        bool // true if MaxVertices stopped refinement early

	// Clean reports that the run left no live bad triangle, which is what
	// RefineFrom asks of the run before it. It is false when the run was
	// capped, and when a triangle it found bad is still alive and bad
	// because it was skipped or its circumcenter could not be inserted.
	Clean bool
}

// ErrBadOptions is returned for option values that would not terminate.
var ErrBadOptions = errors.New("delaunay: quality bound must be >= 1")

// PSLG is a planar straight-line graph: the input to CDT construction.
type PSLG struct {
	Points   []geom.Point
	Segments [][2]int     // indices into Points
	Holes    []geom.Point // one interior point per hole to carve
}

// Validate performs basic sanity checks on the PSLG.
func (p *PSLG) Validate() error {
	if len(p.Points) < 3 {
		return fmt.Errorf("delaunay: PSLG needs at least 3 points, have %d", len(p.Points))
	}
	for i, s := range p.Segments {
		if s[0] < 0 || s[0] >= len(p.Points) || s[1] < 0 || s[1] >= len(p.Points) {
			return fmt.Errorf("delaunay: segment %d references point out of range", i)
		}
		if s[0] == s[1] {
			return fmt.Errorf("delaunay: segment %d is degenerate", i)
		}
	}
	return nil
}

// BuildCDT builds the constrained Delaunay triangulation of the PSLG and
// carves away the exterior (and any holes). It returns the mesh and the
// vertex IDs corresponding to p.Points (duplicated points map to the same
// vertex). On an error it recycles the mesh it started.
func BuildCDT(p *PSLG) (*mesh.Mesh, []mesh.VertexID, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	m := mesh.New()
	bbox := geom.BoundingRect(p.Points)
	m.InitSuper(bbox)

	ids := make([]mesh.VertexID, len(p.Points))
	hint := mesh.NoTri
	for i, pt := range p.Points {
		v, err := m.InsertPoint(pt, hint)
		if err != nil && err != mesh.ErrDuplicate {
			m.Recycle()
			return nil, nil, fmt.Errorf("delaunay: inserting point %d %v: %w", i, pt, err)
		}
		ids[i] = v
		hint = m.IncidentTri(v)
	}
	for i, s := range p.Segments {
		if err := m.InsertSegment(ids[s[0]], ids[s[1]]); err != nil {
			m.Recycle()
			return nil, nil, fmt.Errorf("delaunay: recovering segment %d: %w", i, err)
		}
	}

	// Carve exterior (reachable from super triangle) and holes.
	var holeSeeds []mesh.TriID
	for _, h := range p.Holes {
		loc := m.Locate(h, mesh.NoTri)
		if loc.Kind == mesh.LocateInside || loc.Kind == mesh.LocateOnEdge {
			holeSeeds = append(holeSeeds, loc.Tri)
		}
	}
	m.Carve()
	m.CarveFrom(holeSeeds)
	m.ReleaseScratch()
	return m, ids, nil
}

// refiner carries the state of one refinement run.
type refiner struct {
	m     *mesh.Mesh
	opts  Options
	beta  float64
	bad   []mesh.TriID // stack of candidate bad triangles (rechecked at pop)
	stats Stats

	// kept lists the triangles that were popped as bad and outlived their
	// refineTriangle; the run is clean if none of them is alive and bad at
	// its end.
	kept []mesh.TriID

	// segBuf is the storage of refineTriangle's list of encroached
	// segments, kept between calls.
	segBuf [][2]mesh.VertexID

	hooks
}

// hooks are the refiner's observers, which only tests set.
type hooks struct {
	// audit sees every triangle isBad judges and the verdict it reached.
	audit func(tr geom.Triangle, bad bool)
	// seeded sees the list phase 2 pushed, before phase 3 pops any of it.
	seeded func(r *refiner, seeds []mesh.TriID)
}

// refinerPool keeps the refiners' lists between runs: a PCDM subdomain is
// refined again for every batch of interface splits it receives, and a run
// would otherwise grow its stack from nothing each time.
var refinerPool = sync.Pool{New: func() any { return new(refiner) }}

// Refine runs Ruppert refinement on m in place. m must be a carved CDT: its
// hull edges must all be constrained (BuildCDT guarantees this).
func Refine(m *mesh.Mesh, opts Options) (Stats, error) {
	return refine(m, opts, 0, hooks{})
}

// RefineFrom is Refine for a mesh that a Refine or RefineFrom with the same
// opts left Clean at since vertices and into which points have only been
// inserted since. It refines m exactly as Refine would, and returns the same
// Stats, but judges only the triangles around vertices since and later to
// seed its queue: every other live triangle has only vertices the clean run
// left, and every triangle an insertion makes has the inserted vertex as a
// corner, so it was live, and good, when that run ended. since 0 is Refine.
func RefineFrom(m *mesh.Mesh, opts Options, since int) (Stats, error) {
	return refine(m, opts, since, hooks{})
}

func refine(m *mesh.Mesh, opts Options, since int, h hooks) (Stats, error) {
	if opts.QualityBound != 0 && opts.QualityBound < 1 {
		return Stats{}, ErrBadOptions
	}
	r := refinerPool.Get().(*refiner)
	*r = refiner{m: m, opts: opts, beta: opts.qualityBound(), hooks: h,
		bad: r.bad[:0], kept: r.kept[:0], segBuf: r.segBuf[:0]}
	defer func() {
		*r = refiner{bad: r.bad[:0], kept: r.kept[:0], segBuf: r.segBuf[:0]}
		refinerPool.Put(r)
	}()
	defer m.ReleaseScratch()
	if opts.OnSegmentSplit != nil {
		// Hook at the mesh level so that every constrained split is seen,
		// including Steiner points landing exactly on a segment.
		m.SetSplitHook(opts.OnSegmentSplit)
		defer m.SetSplitHook(nil)
	}

	// Phase 1: split encroached segments until none remain (skipped when
	// segments are frozen).
	if !opts.NoSegmentSplit {
		if err := r.splitAllEncroached(); err != nil {
			return r.stats, err
		}
	}

	// Phase 2: seed the bad-triangle queue.
	n := len(r.bad)
	r.seed(since)
	if r.seeded != nil {
		r.seeded(r, r.bad[n:])
	}

	// Phase 3: main loop.
	for len(r.bad) > 0 {
		if r.capped() {
			r.stats.Capped = true
			return r.stats, nil
		}
		t := r.bad[len(r.bad)-1]
		r.bad = r.bad[:len(r.bad)-1]
		if !r.m.Alive(t) {
			continue
		}
		bad, cc, ok := r.isBad(t)
		if !bad {
			continue
		}
		corners := r.m.Tri(t).V
		if err := r.refineTriangle(t, cc, ok); err != nil {
			return r.stats, err
		}
		// An insertion hands t's slot to a triangle of the new vertex; the
		// same corners mean t itself is still there.
		if r.m.Alive(t) && r.m.Tri(t).V == corners {
			r.kept = append(r.kept, t)
		}
	}
	r.stats.Clean = !r.stats.Capped && r.noneKeptBad()
	return r.stats, nil
}

// seed pushes every live bad triangle in ascending ID order. From since > 0
// the candidates are the triangles around vertices since and later (see
// RefineFrom); they are gathered on the stack itself, then sorted,
// deduplicated and judged in place.
func (r *refiner) seed(since int) {
	if since <= 0 {
		r.m.ForEachTri(func(t mesh.TriID, _ mesh.Tri) {
			if bad, _, _ := r.isBad(t); bad {
				r.bad = append(r.bad, t)
			}
		})
		return
	}
	n := len(r.bad)
	for v := since; v < r.m.NumVertices(); v++ {
		r.bad = r.m.AppendIncidentTriangles(r.bad, mesh.VertexID(v))
	}
	cand := r.bad[n:]
	slices.Sort(cand)
	cand = slices.Compact(cand)
	r.bad = r.bad[:n]
	for _, t := range cand { // r.bad never overtakes cand: it writes at or behind the read
		if bad, _, _ := r.isBad(t); bad {
			r.bad = append(r.bad, t)
		}
	}
}

// noneKeptBad reports whether every triangle of r.kept is dead or good by
// now. With the stack run dry, that means no live triangle is bad: a
// triangle alive at the end was either good when phase 2 passed it over or
// judged when it was popped, and if it was bad then it is in r.kept.
func (r *refiner) noneKeptBad() bool {
	for _, t := range r.kept {
		if !r.m.Alive(t) {
			continue
		}
		if bad, _, _ := r.isBad(t); bad {
			return false
		}
	}
	return true
}

func (r *refiner) capped() bool {
	return r.opts.MaxVertices > 0 && r.m.NumVertices() >= r.opts.MaxVertices
}

// isBad reports whether triangle t violates the quality or size bounds, and
// returns its circumcenter as geom.Triangle.Circumcenter does: a bad
// triangle is refined there. Most triangles are good, and QualityWithin
// certifies most of those without a circumcenter, so that is computed only
// for a triangle it leaves in doubt or one found bad.
func (r *refiner) isBad(t mesh.TriID) (bad bool, cc geom.Point, ok bool) {
	tr := r.m.Triangle(t)
	ab, bc, ca := tr.EdgeLengths2()
	haveCC := !tr.QualityWithin(r.beta, ab, bc, ca)
	if haveCC {
		bad, cc, ok = tr.QualityExceeds(r.beta)
	}
	if !bad && r.opts.MaxArea > 0 {
		bad = tr.Area() > r.opts.MaxArea
	}
	if !bad && r.opts.Size != nil {
		bad = r.opts.Size.Exceeds(tr, ab, bc, ca)
	}
	if bad && !haveCC {
		cc, ok = tr.Circumcenter()
	}
	if r.audit != nil {
		r.audit(tr, bad)
	}
	return bad, cc, ok
}

// encroached reports whether the constrained edge (a, b) is encroached by
// any vertex of its adjacent triangles (sufficient for Delaunay meshes: if
// any vertex is inside the diametral circle, the nearest one is a neighbor
// apex).
func (r *refiner) encroached(a, b mesh.VertexID) bool {
	seg := geom.Segment{A: r.m.Vertex(a), B: r.m.Vertex(b)}
	var buf [2]mesh.TriID
	for _, t := range r.m.AppendEdgeTriangles(buf[:0], a, b) {
		tr := r.m.Tri(t)
		for k := 0; k < 3; k++ {
			v := tr.V[k]
			if v == a || v == b {
				continue
			}
			if seg.DiametralContains(r.m.Vertex(v)) {
				return true
			}
		}
	}
	return false
}

// splitSegment inserts the midpoint of constrained edge (a, b), requeues the
// triangles around the new vertex and recursively resolves encroachment of
// the two halves.
func (r *refiner) splitSegment(a, b mesh.VertexID) error {
	v, err := r.m.SplitEdge(a, b)
	if err == mesh.ErrDuplicate {
		return nil // edge too short to split further
	}
	if err != nil {
		return fmt.Errorf("delaunay: splitting segment: %w", err)
	}
	r.stats.SegmentSplits++
	r.queueAround(v)
	// The two halves may themselves be encroached.
	for _, half := range [][2]mesh.VertexID{{a, v}, {v, b}} {
		if r.capped() {
			return nil
		}
		if r.m.IsConstrained(half[0], half[1]) && r.encroached(half[0], half[1]) {
			if err := r.splitSegment(half[0], half[1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// splitAllEncroached scans all constrained edges and splits the encroached
// ones to a fixpoint.
func (r *refiner) splitAllEncroached() error {
	for {
		if r.capped() {
			r.stats.Capped = true
			return nil
		}
		var queue [][2]mesh.VertexID
		r.m.ForEachConstrained(func(a, b mesh.VertexID) {
			if r.encroached(a, b) {
				queue = append(queue, [2]mesh.VertexID{a, b})
			}
		})
		if len(queue) == 0 {
			return nil
		}
		// ForEachConstrained iterates a map; sort for determinism.
		sort.Slice(queue, func(i, j int) bool {
			if queue[i][0] != queue[j][0] {
				return queue[i][0] < queue[j][0]
			}
			return queue[i][1] < queue[j][1]
		})
		for _, e := range queue {
			if !r.m.IsConstrained(e[0], e[1]) {
				continue // already split
			}
			if err := r.splitSegment(e[0], e[1]); err != nil {
				return err
			}
		}
	}
}

// queueAround pushes all triangles incident to v onto the bad-candidate
// stack (they are rechecked at pop time).
func (r *refiner) queueAround(v mesh.VertexID) {
	r.bad = r.m.AppendIncidentTriangles(r.bad, v)
}

// refineTriangle attempts to kill bad triangle t by inserting its
// circumcenter; if the new point would encroach constrained segments, those
// segments are split instead (Ruppert's rule). c and ok are t's circumcenter
// as isBad returned it.
func (r *refiner) refineTriangle(t mesh.TriID, c geom.Point, ok bool) error {
	if !ok {
		return fmt.Errorf("delaunay: degenerate triangle %d", t)
	}

	// Grow the cavity c would carve, once, and test the constrained
	// segments it exposes for encroachment by c. The probe is seeded with
	// loc.Tri alone even when c lies on one of its edges, so that it stays
	// on one side of a constrained edge through c.
	loc := r.m.Locate(c, t)
	encroachedSegs := r.segBuf[:0]
	if loc.Kind == mesh.LocateInside || loc.Kind == mesh.LocateOnEdge {
		r.m.GrowCavity(c, mesh.Location{Kind: mesh.LocateInside, Tri: loc.Tri})
		for _, s := range r.m.CavitySegments() {
			seg := geom.Segment{A: r.m.Vertex(s[0]), B: r.m.Vertex(s[1])}
			if seg.DiametralContains(c) {
				encroachedSegs = append(encroachedSegs, s)
			}
		}
	}
	if loc.Kind == mesh.LocateFailed && len(encroachedSegs) == 0 {
		// The circumcenter escaped the (constrained-bounded) domain without
		// crossing an encroached segment: split the segment the walk from t
		// toward c is blocked by.
		if s, found := r.blockingSegment(t, c); found {
			encroachedSegs = append(encroachedSegs, s)
		} else {
			// Numerical corner case: give up on this triangle.
			return nil
		}
	}
	r.segBuf = encroachedSegs

	if len(encroachedSegs) > 0 && r.opts.NoSegmentSplit {
		// Segments are frozen: leave this triangle be.
		r.stats.Skipped++
		return nil
	}
	if len(encroachedSegs) > 0 {
		for _, s := range encroachedSegs {
			if r.capped() {
				return nil
			}
			if r.m.IsConstrained(s[0], s[1]) {
				if err := r.splitSegment(s[0], s[1]); err != nil {
					return err
				}
			}
		}
		// The triangle may still be bad; requeue it.
		if r.m.Alive(t) {
			r.bad = append(r.bad, t)
		}
		return nil
	}

	switch loc.Kind {
	case mesh.LocateOnVert:
		return nil // circumcenter coincides with an existing vertex
	case mesh.LocateFailed:
		return nil
	case mesh.LocateOnEdge:
		// Insertion seeds the cavity from both sides of the edge, which
		// numbers the new triangles differently from the probe.
		r.m.GrowCavity(c, loc)
	}
	v := r.m.CommitCavity()
	r.stats.SteinerPoints++
	r.queueAround(v)
	return nil
}

// blockingSegment walks from triangle t toward target and returns the first
// constrained edge the walk would have to cross.
func (r *refiner) blockingSegment(t mesh.TriID, target geom.Point) ([2]mesh.VertexID, bool) {
	cur := t
	prev := mesh.NoTri
	from := r.m.Triangle(t).Centroid()
	for step := 0; step < r.m.NumTriangles()+8; step++ {
		tr := r.m.Tri(cur)
		moved := false
		for i := 0; i < 3; i++ {
			a := tr.V[(i+1)%3]
			b := tr.V[(i+2)%3]
			pa, pb := r.m.Vertex(a), r.m.Vertex(b)
			if geom.Orient2D(pa, pb, target) != geom.Negative {
				continue // target not beyond this edge
			}
			if !geom.SegmentsProperlyIntersect(from, target, pa, pb) {
				continue
			}
			if r.m.EdgeConstrained(cur, i) {
				return [2]mesh.VertexID{a, b}, true
			}
			n := tr.N[i]
			if n == mesh.NoTri || n == prev {
				continue
			}
			prev, cur = cur, n
			moved = true
			break
		}
		if !moved {
			break
		}
	}
	return [2]mesh.VertexID{}, false
}
