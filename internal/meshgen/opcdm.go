package meshgen

import (
	"fmt"
	"io"
	"sync"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/core"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/workload"
)

// hSDRefine, the OPCDM handler, applies interface splits to a subdomain and
// refines it.
const hSDRefine core.HandlerID = 301

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

// opcdmShared collects what the refine handlers of one node report: every
// subdomain's report, taken by the call that last refined it, and the first
// error a call returned. Each node has its own.
type opcdmShared struct {
	g       int // grid dimension, to recover (i, j) from a subdomain's rectangle
	mu      sync.Mutex
	reports []subdomainReport // indexed j*g+i; hull nil until refined here
	err     firstErr
}

func newOPCDMShared(g int) *opcdmShared {
	return &opcdmShared{g: g, reports: make([]subdomainReport, g*g)}
}

// record keeps rep as its subdomain's report, replacing an earlier call's.
// Nothing else changes a refined subdomain, so the last report is final and
// the audit reads no subdomain back.
func (sh *opcdmShared) record(rep subdomainReport) error {
	i, j := gridIJ(rep.rect, sh.g)
	if i < 0 || j < 0 || i >= sh.g || j >= sh.g {
		return fmt.Errorf("meshgen: subdomain %v is off the %d×%d grid", rep.rect, sh.g, sh.g)
	}
	sh.mu.Lock()
	sh.reports[j*sh.g+i] = rep
	sh.mu.Unlock()
	return nil
}

// recorded returns the reports of the subdomains refined on this node.
func (sh *opcdmShared) recorded() []subdomainReport {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []subdomainReport
	for _, r := range sh.reports {
		if r.hull != nil {
			out = append(out, r)
		}
	}
	return out
}

// mergeReports merges the nodes' subdomain reports in grid order, each
// subdomain reported by exactly one node.
func mergeReports(g int, shs []*opcdmShared) ([]subdomainReport, error) {
	parts := make([][]subdomainReport, len(shs))
	for n, sh := range shs {
		parts[n] = sh.recorded()
	}
	at := func(r subdomainReport) int {
		i, j := gridIJ(r.rect, g)
		return gridCell(g, i, j)
	}
	return cover(g*g, parts, at, gridName(g, "subdomain"))
}

// registerOPCDM installs the OPCDM handler on one node.
func registerOPCDM(rt *core.Runtime, sh *opcdmShared) {
	rt.Register(hSDRefine, func(c *core.Ctx, arg []byte) {
		if err := opcdmRefineHandler(c, c.Object().(*subdomainObj), arg, sh); err != nil {
			sh.err.set(err)
		}
	})
}

// subdomainNeighbors returns subdomain (i, j)'s left, right, bottom and top
// neighbours from the pointer table (indexed j*g+i), Nil on the grid's edge.
func subdomainNeighbors(g, i, j int, ptrs []core.MobilePtr) (nbs [4]core.MobilePtr) {
	idx := j*g + i
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
	return nbs
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
// cluster. It runs the SPMD grid driver on every node of cl at once: each
// node creates the subdomains the placement deals it, wired to their four
// neighbours from the pointer table, kicks them off and waits for global
// termination. The placement predicts every subdomain's pointer, so cl's
// runtimes must hold no objects yet.
func RunOPCDM(cl *cluster.Cluster, cfg PCDMConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	rts := cl.Runtimes()
	if err := freshRuntimes("OPCDM", rts); err != nil {
		return Result{}, err
	}
	g := cfg.Grid
	maxArea := workload.UniformAreaFor(cfg.TargetElements, 1.0)
	grids := make([]*grid, len(rts))
	shs := make([]*opcdmShared, len(rts))
	for n, rt := range rts {
		grids[n] = newGrid(rt, g*g, len(rts), n, 1)
		shs[n] = newOPCDMShared(g)
		registerOPCDM(rt, shs[n])
		ptrs := grids[n].ptrs
		err := grids[n].create(func(idx int) core.Object {
			i, j := idx%g, idx/g
			return &subdomainObj{Rect: blockRect(g, i, j), MaxArea: maxArea, Beta: cfg.QualityBound,
				Nbs: subdomainNeighbors(g, i, j, ptrs)}
		})
		if err != nil {
			return Result{}, fmt.Errorf("meshgen: node %d: %w", n, err)
		}
	}
	// Kick off: one refine message to every subdomain, then the runtime has
	// control until global termination.
	runGrid(grids, hSDRefine, everyCell)
	for _, sh := range shs {
		if err := sh.err.take(); err != nil {
			return Result{}, err
		}
	}
	// A subdomain whose load failed is gone with every split it was sent,
	// while its report from before the loss stays: the reports may look
	// complete without being final.
	if lost := cl.SwapStats().ObjectsLost; lost > 0 {
		return Result{}, fmt.Errorf("meshgen: OPCDM lost %d objects to failed loads", lost)
	}
	reports, err := mergeReports(g, shs)
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
