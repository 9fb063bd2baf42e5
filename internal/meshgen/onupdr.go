package meshgen

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/core"
	"mrts/internal/geom"
)

// ONUPDR handler IDs (the message vocabulary of §III of the paper). A leaf
// gets one message and sends one: the queue hands it the boundary portions
// its finished neighbours fixed, and it answers with its own boundary.
const (
	hQUpdate    core.HandlerID = 201 // to queue: a leaf's counts and boundary / kick-off
	hLConstruct core.HandlerID = 202 // to leaf: refine against these fixed portions
)

// kickOff is the leaf index of the hQUpdate that starts a run.
const kickOff = -1

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

	MeshData []byte
	Elements int32
	Verts    int32
}

func (o *leafObj) TypeID() uint16 { return typeLeaf }

func (o *leafObj) SizeHint() int { return 120 + len(o.MeshData) }

func (o *leafObj) EncodeTo(w io.Writer) error {
	if err := writeRect(w, o.Rect); err != nil {
		return err
	}
	for _, f := range []float64{o.Size.Scale, o.Size.Grading, o.Size.Center.X, o.Size.Center.Y, o.Size.DMax, o.Beta} {
		if err := writeF64(w, f); err != nil {
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

// queueObj is the ONUPDR refinement queue mobile object: the dispatcher both
// NUPDR builds share, the leaves' objects and the run's totals. It holds
// every finished leaf's boundary, so it can hand a dispatched leaf its fixed
// portions without asking the neighbours. The paper locks it in memory ("it
// is relatively small and receives and sends many messages").
type queueObj struct {
	leafQueue
	Ptrs     []core.MobilePtr // leaf i's object
	Elements int64
	Verts    int64
}

func (o *queueObj) TypeID() uint16 { return typeQueue }

func (o *queueObj) SizeHint() int {
	n := 64 + 8*len(o.Ptrs) + 4*len(o.Pending)
	for _, l := range o.Leaves {
		n += 48 + 4*len(l.Nbs) + 16*len(l.Boundary)
	}
	return n
}

func (o *queueObj) EncodeTo(w io.Writer) error {
	if err := writeU32(w, uint32(len(o.Leaves))); err != nil {
		return err
	}
	for _, l := range o.Leaves {
		if err := writeRect(w, l.Rect); err != nil {
			return err
		}
		if err := writeIdxs(w, l.Nbs); err != nil {
			return err
		}
		flags := uint32(0)
		if l.Done {
			flags |= 1
		}
		if l.InFlight {
			flags |= 2
		}
		if err := writeU32(w, flags); err != nil {
			return err
		}
		if err := writePoints(w, l.Boundary); err != nil {
			return err
		}
	}
	if err := writeIdxs(w, o.Pending); err != nil {
		return err
	}
	if err := writeU32(w, uint32(o.MaxInflight)); err != nil {
		return err
	}
	if err := writePtrs(w, o.Ptrs); err != nil {
		return err
	}
	if err := writeF64(w, float64(o.Elements)); err != nil {
		return err
	}
	return writeF64(w, float64(o.Verts))
}

// DecodeFrom reads what EncodeTo wrote and recounts the in-flight leaves
// and busy counts from the in-flight flags.
func (o *queueObj) DecodeFrom(r io.Reader) error {
	n, err := readU32(r)
	if err != nil {
		return err
	}
	if n > maxDecodeElems {
		return errDecodeBound("leaves", n, maxDecodeElems)
	}
	o.Leaves = make([]qleaf, n)
	for i := range o.Leaves {
		l := &o.Leaves[i]
		if l.Rect, err = readRect(r); err != nil {
			return err
		}
		if l.Nbs, err = readIdxs(r, n); err != nil {
			return err
		}
		flags, err := readU32(r)
		if err != nil {
			return err
		}
		l.Done = flags&1 != 0
		l.InFlight = flags&2 != 0
		if l.Boundary, err = readPoints(r); err != nil {
			return err
		}
	}
	if o.Pending, err = readIdxs(r, n); err != nil {
		return err
	}
	maxInflight, err := readU32(r)
	if err != nil {
		return err
	}
	o.MaxInflight = int32(maxInflight)
	if o.Ptrs, err = readPtrs(r); err != nil {
		return err
	}
	if len(o.Ptrs) != int(n) {
		return fmt.Errorf("meshgen: decode queue: %d leaf pointers for %d leaves (corrupt blob?)", len(o.Ptrs), n)
	}
	e, err := readF64(r)
	if err != nil {
		return err
	}
	v, err := readF64(r)
	if err != nil {
		return err
	}
	o.Elements, o.Verts = int64(e), int64(v)
	o.recount()
	return nil
}

// writeIdxs and readIdxs serialize a list of leaf indices; readIdxs rejects
// an index that is not below n.
func writeIdxs(w io.Writer, xs []int32) error {
	if err := writeU32(w, uint32(len(xs))); err != nil {
		return err
	}
	for _, x := range xs {
		if err := writeU32(w, uint32(x)); err != nil {
			return err
		}
	}
	return nil
}

func readIdxs(r io.Reader, n uint32) ([]int32, error) {
	c, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if c > maxDecodeElems {
		return nil, errDecodeBound("indices", c, maxDecodeElems)
	}
	xs := make([]int32, c)
	for i := range xs {
		v, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if v >= n {
			return nil, fmt.Errorf("meshgen: decode indices: leaf %d of %d (corrupt blob?)", v, n)
		}
		xs[i] = int32(v)
	}
	return xs, nil
}

// registerONUPDR installs the ONUPDR handlers on every node; errs keeps the
// first error a handler meets.
func registerONUPDR(cl *cluster.Cluster, errs *firstErr) {
	for _, rt := range cl.Runtimes() {
		rt.Register(hQUpdate, func(c *core.Ctx, arg []byte) {
			if err := onupdrQUpdate(c, c.Object().(*queueObj), arg); err != nil {
				errs.set(err)
			}
		})
		rt.Register(hLConstruct, func(c *core.Ctx, arg []byte) {
			queue, update, err := onupdrRefine(c.Object().(*leafObj), arg)
			if err != nil {
				errs.set(err)
				return
			}
			// A finished leaf is never touched again: evict it before
			// anything still to come.
			c.SetPriority(c.Self, -1)
			c.Post(queue, hQUpdate, update)
		})
	}
}

// Argument encodings for the ONUPDR messages.

func encodeQUpdate(leafIdx, elems, verts int32, boundary []geom.Point) []byte {
	var buf bytes.Buffer
	writeU32(&buf, uint32(leafIdx))
	writeU32(&buf, uint32(elems))
	writeU32(&buf, uint32(verts))
	writePoints(&buf, boundary)
	return buf.Bytes()
}

func decodeQUpdate(b []byte) (leafIdx, elems, verts int32, boundary []geom.Point, err error) {
	r := bytes.NewReader(b)
	var vs [3]uint32
	for i := range vs {
		if vs[i], err = readU32(r); err != nil {
			return
		}
	}
	if boundary, err = readPoints(r); err != nil {
		return
	}
	return int32(vs[0]), int32(vs[1]), int32(vs[2]), boundary, nil
}

// encodeLConstruct writes the queue's pointer, the leaf's index and the fixed
// portions, each as one point list: its ends A and B, then its points.
func encodeLConstruct(queue core.MobilePtr, leafIdx int32, fixed []fixedPortion) []byte {
	var buf bytes.Buffer
	writePtr(&buf, queue)
	writeU32(&buf, uint32(leafIdx))
	writeU32(&buf, uint32(len(fixed)))
	for _, f := range fixed {
		writePoints(&buf, append([]geom.Point{f.A, f.B}, f.Pts...))
	}
	return buf.Bytes()
}

func decodeLConstruct(b []byte) (queue core.MobilePtr, leafIdx int32, fixed []fixedPortion, err error) {
	r := bytes.NewReader(b)
	if queue, err = readPtr(r); err != nil {
		return
	}
	idx, err := readU32(r)
	if err != nil {
		return
	}
	n, err := readU32(r)
	if err != nil {
		return
	}
	for i := uint32(0); i < n; i++ {
		pts, err := readPoints(r)
		if err != nil {
			return core.Nil, 0, nil, err
		}
		if len(pts) < 2 {
			return core.Nil, 0, nil, fmt.Errorf("meshgen: fixed portion of %d points has no ends", len(pts))
		}
		fixed = append(fixed, fixedPortion{A: pts[0], B: pts[1], Pts: pts[2:]})
	}
	return queue, int32(idx), fixed, nil
}

// onupdrQUpdate is the refinement queue's handler: record a finished leaf's
// counts and boundary, then dispatch every leaf the queue may, each with the
// boundary portions its finished neighbours fixed.
func onupdrQUpdate(c *core.Ctx, q *queueObj, arg []byte) error {
	idx, elems, verts, boundary, err := decodeQUpdate(arg)
	if err != nil {
		return fmt.Errorf("meshgen: ONUPDR queue: update payload: %w", err)
	}
	if idx != kickOff {
		if err := q.finish(idx, boundary); err != nil {
			return err
		}
		q.Elements += int64(elems)
		q.Verts += int64(verts)
	}
	for {
		li, fixed, ok := q.next()
		if !ok {
			return nil
		}
		// Raise the priority of a leaf about to be refined, as the paper's
		// optimization does, to keep it resident.
		c.SetPriority(q.Ptrs[li], 10)
		c.Post(q.Ptrs[li], hLConstruct, encodeLConstruct(c.Self, li, fixed))
	}
}

// onupdrRefine is a leaf's handler: it meshes the leaf against the fixed
// portions the queue sent, keeps the mesh, and returns the queue's pointer
// and the update that reports the leaf's counts and boundary.
func onupdrRefine(o *leafObj, arg []byte) (core.MobilePtr, []byte, error) {
	queue, idx, fixed, err := decodeLConstruct(arg)
	if err != nil {
		return core.Nil, nil, fmt.Errorf("meshgen: leaf %v: construct payload: %w", o.Rect, err)
	}
	m, cycle, err := meshLeaf(o.Rect, &o.Size, o.Beta, fixed)
	if err != nil {
		return core.Nil, nil, fmt.Errorf("meshgen: leaf %v: %w", o.Rect, err)
	}
	buf := bytes.NewBuffer(make([]byte, 0, m.EncodedSize()))
	err = m.EncodeTo(buf)
	elems, verts := m.NumTriangles(), m.NumVertices()
	m.Recycle()
	if err != nil {
		return core.Nil, nil, fmt.Errorf("meshgen: leaf %v: encode mesh: %w", o.Rect, err)
	}
	o.MeshData = buf.Bytes()
	o.Elements = int32(elems)
	o.Verts = int32(verts)
	return queue, encodeQUpdate(idx, o.Elements, o.Verts, cycle), nil
}

// RunONUPDR executes the out-of-core non-uniform method on an MRTS cluster.
func RunONUPDR(cl *cluster.Cluster, cfg NUPDRConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	domain := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	sp := gradedSizeFor(domain, cfg.Grading, cfg.TargetElements)
	errs := &firstErr{}
	registerONUPDR(cl, errs)

	// Create leaf objects round-robin across nodes; the queue lives on node 0
	// and is locked in memory. More leaves than PEs stay in flight so a leaf
	// waiting on its message or its load never idles a PE (the flexibility
	// the paper's over-decomposition buys).
	q := &queueObj{leafQueue: newLeafQueue(buildLeafTree(domain, sp.At, cfg.MaxLeafElems), 2*cl.PEs())}
	for i, l := range q.Leaves {
		q.Ptrs = append(q.Ptrs, cl.RT(i%cl.Nodes()).CreateObject(&leafObj{
			Rect: l.Rect,
			Size: sp,
			Beta: cfg.QualityBound,
		}))
	}
	qptr := cl.RT(0).CreateObject(q)
	if !cl.RT(0).Lock(qptr) {
		return Result{}, fmt.Errorf("meshgen: ONUPDR queue object %v not local after create", qptr)
	}

	// Kick off and hand control to the runtime.
	cl.RT(0).Post(qptr, hQUpdate, encodeQUpdate(kickOff, 0, 0, nil))
	cl.Wait()
	if err := errs.take(); err != nil {
		return Result{}, err
	}
	// A leaf whose load failed is gone with the message it was sent.
	if lost := cl.SwapStats().ObjectsLost; lost > 0 {
		return Result{}, fmt.Errorf("meshgen: ONUPDR lost %d objects to failed loads", lost)
	}
	for i, l := range q.Leaves {
		if !l.Done {
			return Result{}, fmt.Errorf("meshgen: ONUPDR incomplete: leaf %d of %d never finished", i, len(q.Leaves))
		}
	}

	return Result{
		Method:     "ONUPDR",
		Elements:   int(q.Elements),
		Vertices:   int(q.Verts),
		Subdomains: len(q.Leaves),
		PEs:        cl.PEs(),
		Elapsed:    time.Since(start),
		Report:     cl.Report(),
		Mem:        cl.MemStats(),
		Conforming: q.conforming(),
	}, nil
}
