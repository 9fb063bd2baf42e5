package meshgen

import (
	"fmt"
	"io"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/core"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/workload"
)

// OPCDM handler IDs.
const (
	hSDRefine core.HandlerID = 301 // apply interface splits + refine
	hSDWire   core.HandlerID = 303 // install neighbor pointers
)

// subdomainObj is the OPCDM mobile object: one subdomain with its live
// constrained Delaunay mesh. The mesh is serialized only when the
// out-of-core layer unloads the object (or it migrates).
type subdomainObj struct {
	Rect    geom.Rect
	MaxArea float64
	Beta    float64
	Nbs     [4]core.MobilePtr // left, right, bottom, top (Nil at domain edge)

	M *mesh.Mesh // nil until the first refine message

	// since is refineSubdomain's since for M. It travels with M: EncodeTo
	// keeps vertex IDs, so a subdomain that was evicted or moved refines
	// from it as one that stayed would.
	since int
}

func (o *subdomainObj) TypeID() uint16 { return typeSubdomain }

func (o *subdomainObj) SizeHint() int {
	n := 128
	if o.M != nil {
		n += o.M.EncodedSize()
	}
	return n
}

func (o *subdomainObj) EncodeTo(w io.Writer) error {
	if err := writeRect(w, o.Rect); err != nil {
		return err
	}
	for _, f := range []float64{o.MaxArea, o.Beta} {
		if err := writeF64(w, f); err != nil {
			return err
		}
	}
	for _, p := range o.Nbs {
		if err := writePtr(w, p); err != nil {
			return err
		}
	}
	if err := writeU32(w, uint32(o.since)); err != nil {
		return err
	}
	if o.M == nil {
		return writeU32(w, 0)
	}
	if err := writeU32(w, 1); err != nil {
		return err
	}
	return o.M.EncodeTo(w)
}

func (o *subdomainObj) DecodeFrom(r io.Reader) error {
	var err error
	if o.Rect, err = readRect(r); err != nil {
		return err
	}
	if o.MaxArea, err = readF64(r); err != nil {
		return err
	}
	if o.Beta, err = readF64(r); err != nil {
		return err
	}
	for i := range o.Nbs {
		if o.Nbs[i], err = readPtr(r); err != nil {
			return err
		}
	}
	since, err := readU32(r)
	if err != nil {
		return err
	}
	has, err := readU32(r)
	if err != nil {
		return err
	}
	o.M, o.since = nil, int(since)
	nv := 0
	if has != 0 {
		o.M = mesh.New()
		if err := o.M.DecodeFrom(r); err != nil {
			return err
		}
		nv = o.M.NumVertices()
	}
	// A since past the mesh's vertices would seed refinement from nothing.
	if o.since > nv {
		return fmt.Errorf("meshgen: decode subdomain: since %d, %d vertices (corrupt blob?)", o.since, nv)
	}
	return nil
}

// opcdmShared collects what the refine handlers report: every subdomain's
// report, taken by the call that last refined it, and the first error a call
// returned.
type opcdmShared struct {
	g       int         // grid dimension, to recover (i, j) from a subdomain's rectangle
	reports reportSlots // indexed j*g+i
	err     firstErr
}

func newOPCDMShared(g int) *opcdmShared {
	return &opcdmShared{g: g, reports: reportSlots{reports: make([]subdomainReport, g*g)}}
}

// record keeps rep as its subdomain's report, replacing an earlier call's.
func (sh *opcdmShared) record(rep subdomainReport) error {
	i, j := gridIJ(rep.rect, sh.g)
	if i < 0 || j < 0 || i >= sh.g || j >= sh.g {
		return fmt.Errorf("meshgen: subdomain %v is off the %d×%d grid", rep.rect, sh.g, sh.g)
	}
	sh.reports.set(j*sh.g+i, rep)
	return nil
}

// all returns every subdomain's report, or an error naming the subdomains
// that never reported.
func (sh *opcdmShared) all() ([]subdomainReport, error) {
	return sh.reports.all(func(idx int) string {
		return fmt.Sprintf("subdomain (%d,%d)", idx%sh.g, idx/sh.g)
	})
}

// registerOPCDM installs the OPCDM handlers on every node.
func registerOPCDM(cl *cluster.Cluster, sh *opcdmShared) {
	for _, rt := range cl.Runtimes() {
		rt.Register(hSDRefine, func(c *core.Ctx, arg []byte) {
			if err := opcdmRefineHandler(c, c.Object().(*subdomainObj), arg, sh); err != nil {
				sh.err.set(err)
			}
		})
		rt.Register(hSDWire, func(c *core.Ctx, arg []byte) {
			if err := opcdmWireHandler(c.Object().(*subdomainObj), arg); err != nil {
				sh.err.set(err)
			}
		})
	}
}

// opcdmWireHandler installs the subdomain's four neighbor pointers. A payload
// it cannot read is an error: the subdomain would refine unwired, never
// sending its boundary splits.
func opcdmWireHandler(o *subdomainObj, arg []byte) error {
	ptrs, err := readPtrs(bytesReader(arg))
	if err != nil {
		return fmt.Errorf("meshgen: subdomain %v: wire payload: %w", o.Rect, err)
	}
	if len(ptrs) != len(o.Nbs) {
		return fmt.Errorf("meshgen: subdomain %v: wire payload has %d neighbors, want %d", o.Rect, len(ptrs), len(o.Nbs))
	}
	copy(o.Nbs[:], ptrs)
	return nil
}

// opcdmRefineHandler applies incoming split points, refines the subdomain,
// ships aggregated split messages to the neighbors — the fully
// asynchronous, unstructured communication pattern of PCDM — and records
// the subdomain's report. RunOPCDM returns the first error a call returns.
func opcdmRefineHandler(c *core.Ctx, o *subdomainObj, arg []byte, sh *opcdmShared) error {
	var splits []geom.Point
	if len(arg) > 0 {
		var err error
		splits, err = decodePoints(arg)
		if err != nil {
			return err
		}
	}
	if o.M == nil {
		m, err := newSubdomainMesh(o.Rect)
		if err != nil {
			return err
		}
		o.M = m
	}
	var hasNb [4]bool
	for i, p := range o.Nbs {
		hasNb[i] = !p.IsNil()
	}
	out, since, err := refine(o.M, o.Rect, splits, o.since, o.MaxArea, o.Beta, hasNb)
	o.since = since
	if err != nil {
		return err
	}
	for side := 0; side < 4; side++ {
		if len(out[side]) == 0 || o.Nbs[side].IsNil() {
			continue
		}
		// Small messages, aggregated per neighbor (the paper's startup
		// overhead optimization).
		c.Post(o.Nbs[side], hSDRefine, encodePoints(out[side]))
	}
	// The report last, with the splits already on their way.
	rep, err := reportOf(o.Rect, o.M)
	if err != nil {
		return err
	}
	return sh.record(rep)
}

// RunOPCDM executes the out-of-core constrained Delaunay method on an MRTS
// cluster.
func RunOPCDM(cl *cluster.Cluster, cfg PCDMConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	g := cfg.Grid
	sh := newOPCDMShared(g)
	registerOPCDM(cl, sh)

	maxArea := workload.UniformAreaFor(cfg.TargetElements, 1.0)
	ptrs := make([]core.MobilePtr, g*g)
	for j := 0; j < g; j++ {
		for i := 0; i < g; i++ {
			idx := j*g + i
			node := idx % cl.Nodes()
			o := &subdomainObj{Rect: blockRect(g, i, j), MaxArea: maxArea, Beta: cfg.QualityBound}
			ptrs[idx] = cl.RT(node).CreateObject(o)
		}
	}
	// Wire neighbor pointers through messages so the writes serialize with
	// any swapping, and start refinement only once every subdomain is wired:
	// a refining subdomain posts splits to its neighbors at once, and one
	// that met a split before its own wiring would refine believing it has no
	// neighbors and never report its boundary splits.
	for j := 0; j < g; j++ {
		for i := 0; i < g; i++ {
			idx := j*g + i
			nbs := []core.MobilePtr{core.Nil, core.Nil, core.Nil, core.Nil}
			if i > 0 {
				nbs[sideLeft] = ptrs[idx-1]
			}
			if i+1 < g {
				nbs[sideRight] = ptrs[idx+1]
			}
			if j > 0 {
				nbs[sideBottom] = ptrs[idx-g]
			}
			if j+1 < g {
				nbs[sideTop] = ptrs[idx+g]
			}
			cl.RT(int(ptrs[idx].Home)).Post(ptrs[idx], hSDWire, encodePtrList(nbs))
		}
	}
	cl.Wait()
	for _, p := range ptrs {
		cl.RT(int(p.Home)).Post(p, hSDRefine, nil)
	}
	cl.Wait()
	if err := sh.err.take(); err != nil {
		return Result{}, err
	}
	// A subdomain whose load failed is gone with every split it was sent,
	// while its report from before the loss stays: the reports may look
	// complete without being final.
	if lost := cl.SwapStats().ObjectsLost; lost > 0 {
		return Result{}, fmt.Errorf("meshgen: OPCDM lost %d objects to failed loads", lost)
	}
	reports, err := sh.all()
	if err != nil {
		return Result{}, err
	}
	elements, vertices := 0, 0
	for _, r := range reports {
		elements += r.elements
		vertices += r.vertices
	}
	return Result{
		Method:     "OPCDM",
		Elements:   elements,
		Vertices:   vertices,
		Subdomains: g * g,
		PEs:        cl.PEs(),
		Elapsed:    time.Since(start),
		Report:     cl.Report(),
		Mem:        cl.MemStats(),
		Conforming: auditInterfaces(reports),
	}, nil
}
