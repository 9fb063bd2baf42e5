package meshgen

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/core"
	"mrts/internal/geom"
	"mrts/internal/workload"
)

// ONUPDR handler IDs (the message vocabulary of §III of the paper).
const (
	hQUpdate      core.HandlerID = 201 // to queue: leaf finished / kick-off
	hLConstruct   core.HandlerID = 202 // to leaf: begin collecting its buffer
	hLSendBuffer  core.HandlerID = 203 // to buffer leaf: ship data to target
	hLAddToBuffer core.HandlerID = 204 // to leaf: one buffer member's data
	hLRelease     core.HandlerID = 205 // to buffer leaf: recreate/unlock
)

// sizeParams is the serializable description of the radial sizing field, so
// a reloaded leaf can reconstruct its SizeFunc.
type sizeParams struct {
	Scale, Grading float64
	Center         geom.Point
	DMax           float64
}

func (s sizeParams) fn() workload.SizeFunc {
	return func(p geom.Point) float64 {
		return s.Scale * (1 + (s.Grading-1)*(p.Dist(s.Center)/s.DMax))
	}
}

// paramsFor fits sizeParams to the field produced by gradedSizeFor.
func paramsFor(domain geom.Rect, grading float64, target int) sizeParams {
	f := gradedSizeFor(domain, grading, target)
	c := domain.Center()
	return sizeParams{
		Scale:   f(c), // at center the graded factor is 1
		Grading: grading,
		Center:  c,
		DMax:    c.Dist(domain.Max),
	}
}

// nbData is one buffer member's contribution: its rectangle and, when
// already refined, its fixed boundary points.
type nbData struct {
	Rect geom.Rect
	Done bool
	Pts  []geom.Point
}

// leafObj is the ONUPDR mobile object: one quad-tree leaf holding its
// portion of the mesh.
type leafObj struct {
	Rect geom.Rect
	Size sizeParams
	Beta float64

	Done     bool
	Boundary []geom.Point
	MeshData []byte
	Elements int32
	Verts    int32

	// Collection state for an in-progress refinement cycle.
	QueuePtr core.MobilePtr
	MyIdx    int32
	Expect   int32
	BufPtrs  []core.MobilePtr
	Fixed    []nbData
}

func (o *leafObj) TypeID() uint16 { return typeLeaf }

func (o *leafObj) SizeHint() int {
	n := 200 + len(o.MeshData) + 16*len(o.Boundary) + 8*len(o.BufPtrs)
	for _, f := range o.Fixed {
		n += 48 + 16*len(f.Pts)
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
	flags := uint32(0)
	if o.Done {
		flags = 1
	}
	if err := writeU32(w, flags); err != nil {
		return err
	}
	if err := writePoints(w, o.Boundary); err != nil {
		return err
	}
	if err := writeBytes(w, o.MeshData); err != nil {
		return err
	}
	for _, v := range []uint32{uint32(o.Elements), uint32(o.Verts), uint32(o.MyIdx), uint32(o.Expect)} {
		if err := writeU32(w, v); err != nil {
			return err
		}
	}
	if err := writePtr(w, o.QueuePtr); err != nil {
		return err
	}
	if err := writePtrs(w, o.BufPtrs); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(o.Fixed))); err != nil {
		return err
	}
	for _, f := range o.Fixed {
		if err := writeRect(w, f.Rect); err != nil {
			return err
		}
		d := uint32(0)
		if f.Done {
			d = 1
		}
		if err := writeU32(w, d); err != nil {
			return err
		}
		if err := writePoints(w, f.Pts); err != nil {
			return err
		}
	}
	return nil
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
	o.Size = sizeParams{Scale: fs[0], Grading: fs[1], Center: geom.Pt(fs[2], fs[3]), DMax: fs[4]}
	o.Beta = fs[5]
	flags, err := readU32(r)
	if err != nil {
		return err
	}
	o.Done = flags&1 != 0
	if o.Boundary, err = readPoints(r); err != nil {
		return err
	}
	if o.MeshData, err = readBytes(r); err != nil {
		return err
	}
	if len(o.MeshData) == 0 {
		o.MeshData = nil
	}
	var vs [4]uint32
	for i := range vs {
		if vs[i], err = readU32(r); err != nil {
			return err
		}
	}
	o.Elements, o.Verts = int32(vs[0]), int32(vs[1])
	o.MyIdx, o.Expect = int32(vs[2]), int32(vs[3])
	if o.QueuePtr, err = readPtr(r); err != nil {
		return err
	}
	if o.BufPtrs, err = readPtrs(r); err != nil {
		return err
	}
	nf, err := readU32(r)
	if err != nil {
		return err
	}
	o.Fixed = nil
	for i := uint32(0); i < nf; i++ {
		var f nbData
		if f.Rect, err = readRect(r); err != nil {
			return err
		}
		d, err := readU32(r)
		if err != nil {
			return err
		}
		f.Done = d == 1
		if f.Pts, err = readPoints(r); err != nil {
			return err
		}
		o.Fixed = append(o.Fixed, f)
	}
	return nil
}

// qleaf is the refinement queue's record of one leaf.
type qleaf struct {
	Rect     geom.Rect
	Ptr      core.MobilePtr
	Nbs      []int32
	Done     bool
	InFlight bool
}

// queueObj is the ONUPDR refinement queue mobile object: it owns the
// quad-tree structure and dispatches leaves whose buffer zones are free.
// The paper locks it in memory ("it is relatively small and receives and
// sends many messages").
type queueObj struct {
	Leaves      []qleaf
	Pending     []int32
	Inflight    int32
	MaxInflight int32
	DoneCount   int32
	Elements    int64
	Verts       int64
	UseMcast    bool
}

func (o *queueObj) TypeID() uint16 { return typeQueue }

func (o *queueObj) SizeHint() int {
	n := 64 + 4*len(o.Pending)
	for _, l := range o.Leaves {
		n += 56 + 4*len(l.Nbs)
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
		if err := writePtr(w, l.Ptr); err != nil {
			return err
		}
		if err := writeU32(w, uint32(len(l.Nbs))); err != nil {
			return err
		}
		for _, nb := range l.Nbs {
			if err := writeU32(w, uint32(nb)); err != nil {
				return err
			}
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
	}
	if err := writeU32(w, uint32(len(o.Pending))); err != nil {
		return err
	}
	for _, p := range o.Pending {
		if err := writeU32(w, uint32(p)); err != nil {
			return err
		}
	}
	mc := uint32(0)
	if o.UseMcast {
		mc = 1
	}
	for _, v := range []uint32{uint32(o.Inflight), uint32(o.MaxInflight), uint32(o.DoneCount), mc} {
		if err := writeU32(w, v); err != nil {
			return err
		}
	}
	if err := writeF64(w, float64(o.Elements)); err != nil {
		return err
	}
	return writeF64(w, float64(o.Verts))
}

func (o *queueObj) DecodeFrom(r io.Reader) error {
	n, err := readU32(r)
	if err != nil {
		return err
	}
	o.Leaves = make([]qleaf, n)
	for i := range o.Leaves {
		l := &o.Leaves[i]
		if l.Rect, err = readRect(r); err != nil {
			return err
		}
		if l.Ptr, err = readPtr(r); err != nil {
			return err
		}
		nn, err := readU32(r)
		if err != nil {
			return err
		}
		l.Nbs = make([]int32, nn)
		for k := range l.Nbs {
			v, err := readU32(r)
			if err != nil {
				return err
			}
			l.Nbs[k] = int32(v)
		}
		flags, err := readU32(r)
		if err != nil {
			return err
		}
		l.Done = flags&1 != 0
		l.InFlight = flags&2 != 0
	}
	np, err := readU32(r)
	if err != nil {
		return err
	}
	o.Pending = make([]int32, np)
	for i := range o.Pending {
		v, err := readU32(r)
		if err != nil {
			return err
		}
		o.Pending[i] = int32(v)
	}
	var vs [4]uint32
	for i := range vs {
		if vs[i], err = readU32(r); err != nil {
			return err
		}
	}
	o.Inflight, o.MaxInflight, o.DoneCount = int32(vs[0]), int32(vs[1]), int32(vs[2])
	o.UseMcast = vs[3] == 1
	e, err := readF64(r)
	if err != nil {
		return err
	}
	v, err := readF64(r)
	if err != nil {
		return err
	}
	o.Elements, o.Verts = int64(e), int64(v)
	return nil
}

// registerONUPDR installs the ONUPDR handlers on every node. sh holds one
// report per leaf, indexed as the queue numbers them, which the leaf's
// refinement records.
func registerONUPDR(cl *cluster.Cluster, sh *reportSlots) {
	for _, rt := range cl.Runtimes() {
		rt.Register(hQUpdate, func(c *core.Ctx, arg []byte) {
			onupdrQUpdate(c, c.Object().(*queueObj), arg)
		})
		rt.Register(hLConstruct, func(c *core.Ctx, arg []byte) {
			onupdrLConstruct(c, c.Object().(*leafObj), arg, sh)
		})
		rt.Register(hLSendBuffer, func(c *core.Ctx, arg []byte) {
			onupdrLSendBuffer(c, c.Object().(*leafObj), arg)
		})
		rt.Register(hLAddToBuffer, func(c *core.Ctx, arg []byte) {
			onupdrLAddToBuffer(c, c.Object().(*leafObj), arg, sh)
		})
		rt.Register(hLRelease, func(c *core.Ctx, arg []byte) {
			c.Unlock(c.Self)
		})
	}
}

// Argument encodings for the ONUPDR messages.

func encodeQUpdate(leafIdx int32, elems, verts int32) []byte {
	var buf bytes.Buffer
	writeU32(&buf, uint32(leafIdx))
	writeU32(&buf, uint32(elems))
	writeU32(&buf, uint32(verts))
	return buf.Bytes()
}

func decodeQUpdate(b []byte) (leafIdx, elems, verts int32, err error) {
	r := bytes.NewReader(b)
	var vs [3]uint32
	for i := range vs {
		if vs[i], err = readU32(r); err != nil {
			return
		}
	}
	return int32(vs[0]), int32(vs[1]), int32(vs[2]), nil
}

func encodeLConstruct(queue core.MobilePtr, myIdx int32, bufPtrs []core.MobilePtr) []byte {
	var buf bytes.Buffer
	writePtr(&buf, queue)
	writeU32(&buf, uint32(myIdx))
	writePtrs(&buf, bufPtrs)
	return buf.Bytes()
}

func encodeLSendBuffer(target core.MobilePtr) []byte {
	var buf bytes.Buffer
	writePtr(&buf, target)
	return buf.Bytes()
}

func encodeLAddToBuffer(rect geom.Rect, done bool, pts []geom.Point) []byte {
	var buf bytes.Buffer
	writeRect(&buf, rect)
	d := uint32(0)
	if done {
		d = 1
	}
	writeU32(&buf, d)
	writePoints(&buf, pts)
	return buf.Bytes()
}

// onupdrQUpdate is the refinement queue's handler: record a finished leaf,
// then dispatch every startable leaf whose buffer region is free.
func onupdrQUpdate(c *core.Ctx, q *queueObj, arg []byte) {
	leafIdx, elems, verts, err := decodeQUpdate(arg)
	if err != nil {
		return
	}
	if leafIdx >= 0 {
		q.Leaves[leafIdx].Done = true
		q.Leaves[leafIdx].InFlight = false
		q.DoneCount++
		q.Inflight--
		q.Elements += int64(elems)
		q.Verts += int64(verts)
	}
	// Busy set: every in-flight leaf and its buffer zone.
	busy := make(map[int32]bool)
	for i := range q.Leaves {
		if q.Leaves[i].InFlight {
			busy[int32(i)] = true
			for _, nb := range q.Leaves[i].Nbs {
				busy[nb] = true
			}
		}
	}
	for pi := 0; pi < len(q.Pending); pi++ {
		if q.Inflight >= q.MaxInflight {
			break
		}
		li := q.Pending[pi]
		if busy[li] {
			continue
		}
		conflict := false
		for _, nb := range q.Leaves[li].Nbs {
			if busy[nb] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		// Dispatch leaf li.
		q.Pending = append(q.Pending[:pi], q.Pending[pi+1:]...)
		pi--
		q.Leaves[li].InFlight = true
		q.Inflight++
		busy[li] = true
		for _, nb := range q.Leaves[li].Nbs {
			busy[nb] = true
		}
		var bufPtrs []core.MobilePtr
		for _, nb := range q.Leaves[li].Nbs {
			bufPtrs = append(bufPtrs, q.Leaves[nb].Ptr)
		}
		leafPtr := q.Leaves[li].Ptr
		// Raise the priority of an in-core leaf about to be refined, as
		// the paper's optimization does, to keep it resident.
		c.SetPriority(leafPtr, 10)
		arg := encodeLConstruct(c.Self, li, bufPtrs)
		if q.UseMcast {
			// The experimental multicast mobile message: collect the leaf
			// and its buffer zone on one node, in core, then deliver the
			// construct message to the leaf only (deliverCount 1).
			vec := append([]core.MobilePtr{leafPtr}, bufPtrs...)
			c.Runtime().PostMulticast(vec, 1, hLConstruct, arg)
		} else {
			c.Post(leafPtr, hLConstruct, arg)
		}
	}
}

// onupdrLConstruct starts a leaf's buffer collection: it asks every buffer
// member to ship its data.
func onupdrLConstruct(c *core.Ctx, o *leafObj, arg []byte, sh *reportSlots) {
	r := bytes.NewReader(arg)
	queue, err := readPtr(r)
	if err != nil {
		return
	}
	idx, err := readU32(r)
	if err != nil {
		return
	}
	ptrs, err := readPtrs(r)
	if err != nil {
		return
	}
	o.QueuePtr = queue
	o.MyIdx = int32(idx)
	o.BufPtrs = ptrs
	o.Expect = int32(len(ptrs))
	o.Fixed = nil
	if o.Expect == 0 {
		onupdrRefine(c, o, sh)
		return
	}
	sb := encodeLSendBuffer(c.Self)
	for _, p := range ptrs {
		if !c.CallInline(p, hLSendBuffer, sb) {
			c.Post(p, hLSendBuffer, sb)
		}
	}
}

// onupdrLSendBuffer runs on a buffer member: it locks itself in core (the
// paper's optimization) and ships its rectangle plus fixed boundary to the
// refining leaf.
func onupdrLSendBuffer(c *core.Ctx, o *leafObj, arg []byte) {
	r := bytes.NewReader(arg)
	target, err := readPtr(r)
	if err != nil {
		return
	}
	if !c.Lock(c.Self) {
		// Self is local while its handler runs; a failed pin means the
		// object is already gone — do not ship data on its behalf.
		return
	}
	payload := encodeLAddToBuffer(o.Rect, o.Done, o.Boundary)
	if !c.CallInline(target, hLAddToBuffer, payload) {
		c.Post(target, hLAddToBuffer, payload)
	}
}

// onupdrLAddToBuffer integrates one buffer member's data; when the last one
// arrives the leaf refines immediately (the paper calls the refine handler
// directly rather than posting a message).
func onupdrLAddToBuffer(c *core.Ctx, o *leafObj, arg []byte, sh *reportSlots) {
	r := bytes.NewReader(arg)
	rect, err := readRect(r)
	if err != nil {
		return
	}
	d, err := readU32(r)
	if err != nil {
		return
	}
	pts, err := readPoints(r)
	if err != nil {
		return
	}
	o.Fixed = append(o.Fixed, nbData{Rect: rect, Done: d == 1, Pts: pts})
	o.Expect--
	if o.Expect == 0 {
		onupdrRefine(c, o, sh)
	}
}

// onupdrRefine does the actual work: meshes the leaf with neighbor-fixed
// boundary portions, stores the mesh, records the leaf's boundary for the
// audit, reports to the queue and releases the buffer members.
func onupdrRefine(c *core.Ctx, o *leafObj, sh *reportSlots) {
	var fixed []fixedPortion
	for _, f := range o.Fixed {
		if !f.Done {
			continue
		}
		a, b, ok := sharedEdge(o.Rect, f.Rect)
		if !ok {
			continue
		}
		fixed = append(fixed, fixedPortion{A: a, B: b, Pts: edgePointsOn(f.Pts, a, b)})
	}
	m, cycle, err := meshLeaf(o.Rect, o.Size.fn(), o.Beta, fixed)
	if err == nil {
		var buf bytes.Buffer
		if m.EncodeTo(&buf) == nil {
			o.MeshData = buf.Bytes()
		}
		o.Boundary = cycle
		o.Elements = int32(m.NumTriangles())
		o.Verts = int32(m.NumVertices())
		o.Done = true
		sh.set(int(o.MyIdx), subdomainReport{rect: o.Rect, hull: o.Boundary})
	}
	o.Fixed = nil
	for _, p := range o.BufPtrs {
		if !c.CallInline(p, hLRelease, nil) {
			c.Post(p, hLRelease, nil)
		}
	}
	o.BufPtrs = nil
	c.SetPriority(c.Self, 0)
	c.Post(o.QueuePtr, hQUpdate, encodeQUpdate(o.MyIdx, o.Elements, o.Verts))
}

// RunONUPDR executes the out-of-core non-uniform method on an MRTS cluster.
func RunONUPDR(cl *cluster.Cluster, cfg NUPDRConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	domain := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	sp := paramsFor(domain, cfg.Grading, cfg.TargetElements)
	tree := buildLeafTree(domain, sp.fn(), cfg.MaxLeafElems)
	leaves := tree.Leaves()
	n := len(leaves)
	sh := &reportSlots{reports: make([]subdomainReport, n)}
	registerONUPDR(cl, sh)
	idxOf := make(map[int32]int32, n)
	for i, l := range leaves {
		idxOf[int32(l)] = int32(i)
	}

	// Create leaf objects round-robin across nodes; the queue lives on
	// node 0 and is locked in memory. More leaves than PEs stay in flight
	// so a leaf waiting on buffer loads never idles a PE (the flexibility
	// the paper's over-decomposition buys).
	q := &queueObj{MaxInflight: int32(2 * cl.PEs()), UseMcast: cfg.UseMulticast}
	for i, l := range leaves {
		node := i % cl.Nodes()
		ptr := cl.RT(node).CreateObject(&leafObj{
			Rect: tree.Bounds(l),
			Size: sp,
			Beta: cfg.QualityBound,
		})
		var nbs []int32
		for _, nb := range tree.Neighbors(l) {
			nbs = append(nbs, idxOf[int32(nb)])
		}
		q.Leaves = append(q.Leaves, qleaf{Rect: tree.Bounds(l), Ptr: ptr, Nbs: nbs})
		q.Pending = append(q.Pending, int32(i))
	}
	qptr := cl.RT(0).CreateObject(q)
	if !cl.RT(0).Lock(qptr) {
		return Result{}, fmt.Errorf("meshgen: ONUPDR queue object %v not local after create", qptr)
	}

	// Kick off and hand control to the runtime.
	cl.RT(0).Post(qptr, hQUpdate, encodeQUpdate(-1, 0, 0))
	cl.Wait()

	if q.DoneCount != int32(n) {
		return Result{}, fmt.Errorf("meshgen: ONUPDR incomplete: %d of %d leaves", q.DoneCount, n)
	}

	// A leaf whose load failed is gone with every message it was sent, while
	// the boundary its refinement recorded stays.
	if lost := cl.SwapStats().ObjectsLost; lost > 0 {
		return Result{}, fmt.Errorf("meshgen: ONUPDR lost %d objects to failed loads", lost)
	}
	reports, err := sh.all(func(idx int) string { return fmt.Sprintf("leaf %d", idx) })
	if err != nil {
		return Result{}, err
	}

	return Result{
		Method:     "ONUPDR",
		Elements:   int(q.Elements),
		Vertices:   int(q.Verts),
		Subdomains: n,
		PEs:        cl.PEs(),
		Elapsed:    time.Since(start),
		Report:     cl.Report(),
		Mem:        cl.MemStats(),
		Conforming: auditInterfaces(reports),
	}, nil
}
