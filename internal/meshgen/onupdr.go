package meshgen

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/core"
	"mrts/internal/geom"
)

// hLPortion is ONUPDR's one message (the paper's §III vocabulary, on the
// fixed precedence of leafPlan instead of the paper's master queue): a
// finished leaf sends each successor the portion of its boundary they
// share, and a leaf meshes once every predecessor's has come. Empty, it is
// the kick-off of a leaf with no predecessor.
const hLPortion core.HandlerID = 207

// sizeParams is the radial sizing field of both NUPDR builds,
// h(p) = Scale·(1 + (Grading−1)·|p−Center|/DMax), serializable so that a
// reloaded leaf refines against the same field. filter is derived from the
// other fields by newSizeParams; a sizeParams built without it takes the
// exact size test every time, with the same verdicts.
type sizeParams struct {
	Scale, Grading float64
	Center         geom.Point
	DMax           float64

	filter geom.RadialFilter
}

func newSizeParams(scale, grading float64, center geom.Point, dmax float64) sizeParams {
	return sizeParams{Scale: scale, Grading: grading, Center: center, DMax: dmax,
		filter: geom.NewRadialFilter(scale, grading, dmax)}
}

// At is the field's target length at p.
func (s *sizeParams) At(p geom.Point) float64 {
	return s.Scale * (1 + (s.Grading-1)*(p.Dist(s.Center)/s.DMax))
}

// Exceeds is the refiner's size test (delaunay.SizeField): the filter's
// verdict where it is certain, and otherwise the exact one, At at the
// centroid against the longest edge, which the filter's verdicts match
// (DESIGN.md, "The size test without Hypot").
func (s *sizeParams) Exceeds(tr geom.Triangle, ab, bc, ca float64) bool {
	// tr.Centroid(), written out, as in delaunay.SizeFunc: the method call
	// stalls on a store and reload of tr (25 ns a test instead of 9).
	c := geom.Pt((tr.A.X+tr.B.X+tr.C.X)/3, (tr.A.Y+tr.B.Y+tr.C.Y)/3)
	if exceeds, certain := s.filter.Exceeds(max(ab, bc, ca), c.Sub(s.Center)); certain {
		return exceeds
	}
	h := s.At(c)
	return h > 0 && tr.LongestEdgeExceeds(h, ab, bc, ca)
}

// leafObj is the ONUPDR mobile object: one quad-tree leaf holding its
// portion of the mesh.
type leafObj struct {
	Rect geom.Rect
	Size sizeParams
	Beta float64
	Idx  int32    // the leaf's index in tree order
	Nbs  []leafNb // its neighbours, in leafPlan's Nbs order
	// Got holds the portions its predecessors sent, until it meshes.
	Got []leafPortion

	MeshData []byte
	Elements int32
	Verts    int32
}

// leafNb is one neighbour of a leaf: its index, which makes it a
// predecessor or a successor, its object and its rectangle.
type leafNb struct {
	Idx  int32
	Ptr  core.MobilePtr
	Rect geom.Rect
}

// leafPortion is what a finished predecessor sends a leaf: the portion it
// fixed on their shared edge, none from a neighbour at a corner.
type leafPortion struct {
	From  int32
	Fixed []fixedPortion
}

// leaf builds leaf idx of the plan, unmeshed, with its neighbours' pointers
// from the placement's table.
func (p *leafPlan) leaf(idx int, ptrs []core.MobilePtr, size sizeParams, beta float64) *leafObj {
	o := &leafObj{Rect: p.Rects[idx], Size: size, Beta: beta, Idx: int32(idx)}
	for _, nb := range p.Nbs[idx] {
		o.Nbs = append(o.Nbs, leafNb{Idx: nb, Ptr: ptrs[nb], Rect: p.Rects[nb]})
	}
	return o
}

func (o *leafObj) TypeID() uint16 { return typeLeaf }

func (o *leafObj) SizeHint() int {
	n := 124 + len(o.MeshData) + 44*len(o.Nbs)
	for _, g := range o.Got {
		n += 8
		for _, f := range g.Fixed {
			n += 36 + 16*len(f.Pts)
		}
	}
	return n
}

func (o *leafObj) EncodeTo(w io.Writer) error {
	if err := writeRect(w, o.Rect); err != nil {
		return err
	}
	for _, f := range []float64{o.Size.Scale, o.Size.Grading, o.Size.Center.X, o.Size.Center.Y, o.Size.DMax, o.Beta} {
		if err := writeF64(w, f); err != nil {
			return err
		}
	}
	if err := writeU32(w, uint32(o.Idx)); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(o.Nbs))); err != nil {
		return err
	}
	for _, nb := range o.Nbs {
		if err := writeU32(w, uint32(nb.Idx)); err != nil {
			return err
		}
		if err := writePtr(w, nb.Ptr); err != nil {
			return err
		}
		if err := writeRect(w, nb.Rect); err != nil {
			return err
		}
	}
	if err := writeU32(w, uint32(len(o.Got))); err != nil {
		return err
	}
	for _, g := range o.Got {
		if err := writePortion(w, g); err != nil {
			return err
		}
	}
	if err := writeBytes(w, o.MeshData); err != nil {
		return err
	}
	if err := writeU32(w, uint32(o.Elements)); err != nil {
		return err
	}
	return writeU32(w, uint32(o.Verts))
}

func (o *leafObj) DecodeFrom(r io.Reader) error {
	var err error
	if o.Rect, err = readRect(r); err != nil {
		return err
	}
	fs := make([]float64, 6)
	for i := range fs {
		if fs[i], err = readF64(r); err != nil {
			return err
		}
	}
	o.Size = newSizeParams(fs[0], fs[1], geom.Pt(fs[2], fs[3]), fs[4])
	o.Beta = fs[5]
	idx, err := readU32(r)
	if err != nil {
		return err
	}
	o.Idx = int32(idx)
	n, err := readCount(r, "neighbours")
	if err != nil {
		return err
	}
	o.Nbs = nil
	for range n {
		var nb leafNb
		v, err := readU32(r)
		if err != nil {
			return err
		}
		nb.Idx = int32(v)
		if nb.Ptr, err = readPtr(r); err != nil {
			return err
		}
		if nb.Rect, err = readRect(r); err != nil {
			return err
		}
		o.Nbs = append(o.Nbs, nb)
	}
	if n, err = readCount(r, "portions"); err != nil {
		return err
	}
	o.Got = nil
	for range n {
		g, err := readPortion(r)
		if err != nil {
			return err
		}
		o.Got = append(o.Got, g)
	}
	if o.MeshData, err = readBytes(r); err != nil {
		return err
	}
	if len(o.MeshData) == 0 {
		o.MeshData = nil
	}
	var vs [2]uint32
	for i := range vs {
		if vs[i], err = readU32(r); err != nil {
			return err
		}
	}
	o.Elements, o.Verts = int32(vs[0]), int32(vs[1])
	return nil
}

// readCount reads a list's length, refusing one past maxDecodeElems.
func readCount(r io.Reader, what string) (uint32, error) {
	n, err := readU32(r)
	if err == nil && n > maxDecodeElems {
		err = errDecodeBound(what, n, maxDecodeElems)
	}
	return n, err
}

// writePortion and readPortion serialize a leafPortion, as the hLPortion
// message and as one of a leaf's Got: the sender's index, then its fixed
// portions (at most one), each as one point list, its ends A and B first.
func writePortion(w io.Writer, g leafPortion) error {
	if err := writeU32(w, uint32(g.From)); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(g.Fixed))); err != nil {
		return err
	}
	for _, f := range g.Fixed {
		if err := writePoints(w, append([]geom.Point{f.A, f.B}, f.Pts...)); err != nil {
			return err
		}
	}
	return nil
}

func readPortion(r io.Reader) (leafPortion, error) {
	from, err := readU32(r)
	if err != nil {
		return leafPortion{}, err
	}
	n, err := readU32(r)
	if err != nil {
		return leafPortion{}, err
	}
	if n > 1 {
		return leafPortion{}, fmt.Errorf("meshgen: portion from leaf %d holds %d fixed portions, a neighbour shares one edge", int32(from), n)
	}
	g := leafPortion{From: int32(from)}
	for range n {
		pts, err := readPoints(r)
		if err != nil {
			return leafPortion{}, err
		}
		if len(pts) < 2 {
			return leafPortion{}, fmt.Errorf("meshgen: fixed portion of %d points has no ends", len(pts))
		}
		g.Fixed = append(g.Fixed, fixedPortion{A: pts[0], B: pts[1], Pts: pts[2:]})
	}
	return g, nil
}

func encodePortion(g leafPortion) []byte {
	var buf bytes.Buffer
	writePortion(&buf, g)
	return buf.Bytes()
}

// decodePortion reads an hLPortion payload; bytes after the portion are an
// error.
func decodePortion(b []byte) (leafPortion, error) {
	r := bytes.NewReader(b)
	g, err := readPortion(r)
	if err == nil && r.Len() > 0 {
		err = fmt.Errorf("meshgen: %d bytes after the portion", r.Len())
	}
	return g, err
}

// preds counts the leaf's predecessors.
func (o *leafObj) preds() int {
	n := 0
	for _, nb := range o.Nbs {
		if nb.Idx < o.Idx {
			n++
		}
	}
	return n
}

// receive takes one hLPortion message: a predecessor's portion, or the
// kick-off (empty) of a leaf with none. It reports whether every
// predecessor's portion is in, so the leaf can mesh, and refuses a message
// to a meshed leaf, a kick-off to a leaf with predecessors and a portion
// from a leaf that is not a predecessor or has sent one already.
func (o *leafObj) receive(arg []byte) (ready bool, err error) {
	if o.MeshData != nil {
		return false, fmt.Errorf("meshgen: leaf %d: a message after it meshed", o.Idx)
	}
	preds := o.preds()
	if len(arg) == 0 {
		if preds > 0 {
			return false, fmt.Errorf("meshgen: leaf %d: kick-off to a leaf with %d predecessors", o.Idx, preds)
		}
		return true, nil
	}
	g, err := decodePortion(arg)
	if err != nil {
		return false, fmt.Errorf("meshgen: leaf %d: portion payload: %w", o.Idx, err)
	}
	pred := slices.ContainsFunc(o.Nbs, func(nb leafNb) bool { return nb.Idx == g.From && nb.Idx < o.Idx })
	again := slices.ContainsFunc(o.Got, func(got leafPortion) bool { return got.From == g.From })
	if !pred || again {
		return false, fmt.Errorf("meshgen: leaf %d: a portion from leaf %d, not a predecessor it awaits", o.Idx, g.From)
	}
	o.Got = append(o.Got, g)
	return len(o.Got) == preds, nil
}

// refine meshes the leaf against its predecessors' portions, taken in Nbs
// order as RunNUPDR takes them, keeps the mesh and drops the portions. It
// adds the mesh to q and returns the boundary cycle it was meshed with and
// how many portions that cycle does not hold verbatim.
func (o *leafObj) refine(q *Quality) (cycle []geom.Point, mismatched int, err error) {
	var fixed []fixedPortion
	for _, nb := range o.Nbs {
		for _, g := range o.Got {
			if g.From == nb.Idx {
				fixed = append(fixed, g.Fixed...)
			}
		}
	}
	m, cycle, err := meshLeaf(o.Rect, &o.Size, o.Beta, fixed)
	if err != nil {
		return nil, 0, fmt.Errorf("meshgen: leaf %d %v: %w", o.Idx, o.Rect, err)
	}
	q.Add(m, o.Size.At)
	buf := bytes.NewBuffer(make([]byte, 0, m.EncodedSize()))
	err = m.EncodeTo(buf)
	elems, verts := m.NumTriangles(), m.NumVertices()
	m.Recycle()
	if err != nil {
		return nil, 0, fmt.Errorf("meshgen: leaf %d %v: encode mesh: %w", o.Idx, o.Rect, err)
	}
	o.MeshData = buf.Bytes()
	o.Elements = int32(elems)
	o.Verts = int32(verts)
	o.Got = nil
	return cycle, mismatches(cycle, fixed), nil
}

// leafReport is what a leaf's handler records as it meshes: its counts.
type leafReport struct {
	idx             int32
	elements, verts int
}

// onupdrShared collects what the leaf handlers of one node record: every
// leaf meshed there, the shared edges that did not conform and the first
// error. quality, one for the whole run, judges each leaf as it is meshed.
type onupdrShared struct {
	quality  *Quality
	mismatch atomic.Int64
	err      firstErr

	mu     sync.Mutex
	meshed []leafReport
}

func (sh *onupdrShared) record(r leafReport, mismatched int) {
	sh.mismatch.Add(int64(mismatched))
	sh.mu.Lock()
	sh.meshed = append(sh.meshed, r)
	sh.mu.Unlock()
}

func (sh *onupdrShared) recorded() []leafReport {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.meshed
}

// registerONUPDR installs the leaf handler on one node.
func registerONUPDR(rt *core.Runtime, sh *onupdrShared) {
	rt.Register(hLPortion, func(c *core.Ctx, arg []byte) {
		o := c.Object().(*leafObj)
		ready, err := o.receive(arg)
		if err != nil {
			sh.err.set(err)
			return
		}
		if !ready {
			if len(o.Got) == 1 {
				// Its first portion: keep it in core until the rest come.
				c.SetPriority(10)
			}
			return
		}
		cycle, mismatched, err := o.refine(sh.quality)
		if err != nil {
			sh.err.set(err)
			return
		}
		for _, nb := range o.Nbs {
			if nb.Idx > o.Idx {
				g := leafPortion{From: o.Idx}
				if f, ok := portionOf(nb.Rect, o.Rect, cycle); ok {
					g.Fixed = []fixedPortion{f}
				}
				c.Post(nb.Ptr, hLPortion, encodePortion(g))
			}
		}
		// A finished leaf is never touched again: evict it before anything
		// still to come.
		c.SetPriority(-1)
		sh.record(leafReport{idx: o.Idx, elements: int(o.Elements), verts: int(o.Verts)}, mismatched)
	})
}

// RunONUPDR executes the out-of-core non-uniform method on an MRTS cluster.
// It runs the SPMD cell driver (grid.go) on every node of cl at once, one
// cell a quad-tree leaf: each node creates the leaves the placement deals
// it, the leaves with no predecessor are kicked off, and each finished leaf
// messages its successors (leafPlan), until global termination. The mesh is
// RunNUPDR's on one PE. The placement predicts every leaf's pointer, so
// cl's runtimes must hold no objects yet.
func RunONUPDR(cl *cluster.Cluster, cfg NUPDRConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	rts := cl.Runtimes()
	if err := freshRuntimes("ONUPDR", rts); err != nil {
		return Result{}, err
	}
	domain := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	sp := gradedSizeFor(domain, cfg.Grading, cfg.TargetElements)
	plan := newLeafPlan(buildLeafTree(domain, sp.At, cfg.MaxLeafElems))
	n := len(plan.Rects)
	q := newQualityIf(cfg.Quality, cfg.QualityBound)
	grids := make([]*grid, len(rts))
	shs := make([]*onupdrShared, len(rts))
	for node, rt := range rts {
		grids[node] = newGrid(rt, n, len(rts), node, 1)
		shs[node] = &onupdrShared{quality: q}
		registerONUPDR(rt, shs[node])
		ptrs := grids[node].ptrs
		err := grids[node].create(func(idx int) core.Object { return plan.leaf(idx, ptrs, sp, cfg.QualityBound) })
		if err != nil {
			return Result{}, fmt.Errorf("meshgen: node %d: %w", node, err)
		}
	}
	// Kick off the leaves with no predecessor; every other leaf starts when
	// its last predecessor's portion comes.
	runGrid(grids, hLPortion, func(idx int) bool { return plan.preds(idx) == 0 })
	parts := make([][]leafReport, len(shs))
	var mismatched int64
	for node, sh := range shs {
		if err := sh.err.take(); err != nil {
			return Result{}, err
		}
		parts[node] = sh.recorded()
		mismatched += sh.mismatch.Load()
	}
	// A leaf whose load failed is gone with the portions it was sent.
	if lost := cl.SwapStats().ObjectsLost; lost > 0 {
		return Result{}, fmt.Errorf("meshgen: ONUPDR lost %d objects to failed loads", lost)
	}
	reports, err := cover(n, parts, func(r leafReport) int { return int(r.idx) },
		func(idx int) string { return fmt.Sprintf("ONUPDR: leaf %d", idx) })
	if err != nil {
		return Result{}, err
	}
	res := Result{Method: "ONUPDR", Subdomains: n, PEs: cl.PEs(), Conforming: mismatched == 0}
	for _, r := range reports {
		res.Elements += r.elements
		res.Vertices += r.verts
	}
	res.Quality = q.Close("ONUPDR", res.Conforming, "")
	res.Elapsed = time.Since(start)
	res.Report = cl.Report()
	res.Mem = cl.MemStats()
	return res, nil
}
