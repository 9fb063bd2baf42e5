package meshgen

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/core"
	"mrts/internal/geom"
	"mrts/internal/meshstore"
)

// OUPDR handler IDs, registered on every node by its Dist.
const (
	hBlockMesh  core.HandlerID = 101
	hBlockIface core.HandlerID = 102
	// hBlockDump asks a block to report (i, j, elements, mesh digest) and,
	// while an export is attached, to frame its full encoded state into the
	// store. It reads the block, so it is posted only where the bytes are
	// needed: by Dist.Export to every local block, and by Dist.Dump to the
	// local blocks its node holds no digest for (one restored from a store or
	// a checkpoint, or every block under RereadDigests). The digest it
	// reports is the one taken when the block was meshed; it hashes only a
	// block that has none.
	hBlockDump core.HandlerID = 103
)

// blockObj is the OUPDR mobile object: one block of the uniform
// decomposition, holding its refined mesh in serialized form. It moves
// between memory and disk under the out-of-core layer.
type blockObj struct {
	Rect    geom.Rect
	H, Beta float64
	Right   core.MobilePtr // neighbor across the right edge (or Nil)
	Top     core.MobilePtr // neighbor across the top edge (or Nil)

	MeshData []byte // encoded refined mesh (nil before meshing)
	Elements int32
	Verts    int32

	// IfaceNeeded counts interface messages still expected from the left
	// and bottom neighbors; while positive the block keeps an elevated
	// swapping priority so it is not unloaded right before it is needed
	// (the paper's priority optimization).
	IfaceNeeded int32

	Left    []geom.Point // own interface points on the left edge
	Bottom  []geom.Point // own interface points on the bottom edge
	Pending [][]byte     // interface payloads that arrived before meshing
}

func (o *blockObj) TypeID() uint16 { return typeBlock }

func (o *blockObj) SizeHint() int {
	n := 128 + len(o.MeshData) + 16*(len(o.Left)+len(o.Bottom))
	for _, p := range o.Pending {
		n += len(p)
	}
	return n
}

func (o *blockObj) EncodeTo(w io.Writer) error {
	if err := writeRect(w, o.Rect); err != nil {
		return err
	}
	for _, f := range []float64{o.H, o.Beta} {
		if err := writeF64(w, f); err != nil {
			return err
		}
	}
	for _, p := range []core.MobilePtr{o.Right, o.Top} {
		if err := writePtr(w, p); err != nil {
			return err
		}
	}
	if err := writeBytes(w, o.MeshData); err != nil {
		return err
	}
	for _, v := range []uint32{uint32(o.Elements), uint32(o.Verts), uint32(o.IfaceNeeded)} {
		if err := writeU32(w, v); err != nil {
			return err
		}
	}
	if err := writePoints(w, o.Left); err != nil {
		return err
	}
	if err := writePoints(w, o.Bottom); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(o.Pending))); err != nil {
		return err
	}
	for _, p := range o.Pending {
		if err := writeBytes(w, p); err != nil {
			return err
		}
	}
	return nil
}

func (o *blockObj) DecodeFrom(r io.Reader) error {
	var err error
	if o.Rect, err = readRect(r); err != nil {
		return err
	}
	if o.H, err = readF64(r); err != nil {
		return err
	}
	if o.Beta, err = readF64(r); err != nil {
		return err
	}
	if o.Right, err = readPtr(r); err != nil {
		return err
	}
	if o.Top, err = readPtr(r); err != nil {
		return err
	}
	if o.MeshData, err = readBytes(r); err != nil {
		return err
	}
	if len(o.MeshData) == 0 {
		o.MeshData = nil
	}
	var vs [3]uint32
	for i := range vs {
		if vs[i], err = readU32(r); err != nil {
			return err
		}
	}
	o.Elements, o.Verts, o.IfaceNeeded = int32(vs[0]), int32(vs[1]), int32(vs[2])
	if o.Left, err = readPoints(r); err != nil {
		return err
	}
	if o.Bottom, err = readPoints(r); err != nil {
		return err
	}
	np, err := readU32(r)
	if err != nil {
		return err
	}
	o.Pending = nil
	for i := uint32(0); i < np; i++ {
		p, err := readBytes(r)
		if err != nil {
			return err
		}
		o.Pending = append(o.Pending, p)
	}
	return nil
}

// blockShared carries what the block handlers of one node report into: the
// node's run totals, the first handler error, the canonical digest of every
// block meshed or read there, and — during a dump pass — the pass's reports,
// the store writer if an export is attached, and the first error it
// returned. Each Dist owns one; nodes share none.
//
// A block's digest is taken by the handler that writes its mesh, from the
// encoding it has just made, so a MeshHash built from the digests certifies
// the meshes as refined, not copies read back from the swap path. Bytes at
// rest are covered where they are read: by each export frame's SHA-256, and
// by RereadDigests in the tests.
type blockShared struct {
	nb int // grid dimension, to recover (i, j) from a block's rectangle

	elements atomic.Int64
	verts    atomic.Int64
	mismatch atomic.Int64
	meshErr  firstErr

	// quality, when RunOUPDR was asked for a report, judges every block as
	// it is meshed; nil adds nothing.
	quality *Quality

	mu      sync.Mutex
	digests []blockSlot       // indexed j*nb+i; Hash "" until the block is digested
	pass    []BlockDump       // reports of the dump pass in progress
	export  *meshstore.Writer // non-nil: the dump pass also frames each block
	expErr  firstErr          // first export error of the dump pass
}

// blockSlot is what a node knows of one of its blocks: its digest, and
// whether the mesh it holds is raw — not in canonical order, as a block
// restored from a store written before blocks were holds it.
type blockSlot struct {
	BlockDump
	raw bool
}

func newBlockShared(nb int) *blockShared {
	return &blockShared{nb: nb, digests: make([]blockSlot, nb*nb)}
}

// slot returns block (i, j)'s digest slot, nil off the grid. The caller
// holds sh.mu.
func (sh *blockShared) slot(i, j int) *blockSlot {
	if i < 0 || j < 0 || i >= sh.nb || j >= sh.nb {
		return nil
	}
	return &sh.digests[j*sh.nb+i]
}

// record keeps b as its block's digest. A block digested twice must digest
// alike; a different second digest is an error.
func (sh *blockShared) record(b BlockDump) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.slot(b.I, b.J)
	switch {
	case s == nil:
		return fmt.Errorf("meshgen: block (%d,%d) is off the %d×%d grid", b.I, b.J, sh.nb, sh.nb)
	case s.Hash != "" && s.BlockDump != b:
		return fmt.Errorf("meshgen: block (%d,%d) digested twice, differently: %v, then %v", b.I, b.J, s.BlockDump, b)
	}
	*s = blockSlot{BlockDump: b}
	return nil
}

// meshed returns every digest this node holds, in grid order: the blocks
// it meshed, and any an earlier dump pass read.
func (sh *blockShared) meshed() []BlockDump {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []BlockDump
	for _, s := range sh.digests {
		if s.Hash != "" {
			out = append(out, s.BlockDump)
		}
	}
	return out
}

// digest returns block idx's digest (idx = j*nb+i) and whether it was taken.
func (sh *blockShared) digest(idx int) (BlockDump, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.digests[idx].BlockDump
	return b, b.Hash != ""
}

// report adds block o to the dump pass in progress and returns its report,
// the pass's export writer and o's mesh in canonical order, for the export.
// The report carries the digest taken when o was meshed; a block without
// one is hashed from the bytes just read, and that digest is kept. Bytes
// that are not canonical (a block restored from a store written before
// blocks were) are canonicalized for the digest and marked raw, and a raw
// block is canonicalized again by each export that frames it: a read-only
// handler cannot store the canonical bytes. So an export frames every
// block canonical.
func (sh *blockShared) report(o *blockObj) (BlockDump, *meshstore.Writer, []byte) {
	i, j := gridIJ(o.Rect, sh.nb)
	var slot blockSlot
	sh.mu.Lock()
	s := sh.slot(i, j)
	if s != nil {
		slot = *s
	}
	w := sh.export
	sh.mu.Unlock()
	meshData := o.MeshData
	if slot.Hash == "" || slot.raw && w != nil {
		canon, digest := canonicalMesh(o.MeshData)
		if slot.Hash == "" {
			slot = blockSlot{BlockDump: BlockDump{I: i, J: j, Elements: o.Elements, Hash: hex.EncodeToString(digest)},
				raw: !bytes.Equal(canon, o.MeshData)}
		}
		meshData = canon
	}
	sh.mu.Lock()
	if s != nil && s.Hash == "" {
		*s = slot
	}
	sh.pass = append(sh.pass, slot.BlockDump)
	sh.mu.Unlock()
	return slot.BlockDump, w, meshData
}

// begin starts a dump pass: no reports, exporting into w if it is non-nil.
func (sh *blockShared) begin(w *meshstore.Writer) {
	sh.mu.Lock()
	sh.pass, sh.export = nil, w
	sh.mu.Unlock()
}

// end finishes a dump pass and returns its reports and the first export
// error, the writer's own sticky error included.
func (sh *blockShared) end() ([]BlockDump, error) {
	sh.mu.Lock()
	dump, w := sh.pass, sh.export
	sh.pass, sh.export = nil, nil
	sh.mu.Unlock()
	err := sh.expErr.take()
	if err == nil && w != nil {
		err = w.Err()
	}
	return dump, err
}

// blockNeighbors returns the right and top neighbors of block (i, j) from
// the pointer table (indexed j*nb+i), Nil on the grid's edge.
func blockNeighbors(nb, i, j int, ptrs []core.MobilePtr) (right, top core.MobilePtr) {
	if i+1 < nb {
		right = ptrs[j*nb+i+1]
	}
	if j+1 < nb {
		top = ptrs[(j+1)*nb+i]
	}
	return right, top
}

// newBlock builds the unmeshed block (i, j), wired to its right and top
// neighbors and expecting one interface message from each of its left and
// bottom ones.
func newBlock(nb, i, j int, h, beta float64, ptrs []core.MobilePtr) *blockObj {
	o := &blockObj{Rect: blockRect(nb, i, j), H: h, Beta: beta}
	o.Right, o.Top = blockNeighbors(nb, i, j, ptrs)
	if i > 0 {
		o.IfaceNeeded++
	}
	if j > 0 {
		o.IfaceNeeded++
	}
	return o
}

// registerBlockHandlers installs the block handlers on one runtime: mesh,
// interface check, and the dump pass.
func registerBlockHandlers(rt *core.Runtime, sh *blockShared) {
	rt.Register(hBlockMesh, func(c *core.Ctx, arg []byte) {
		if err := oupdrMeshHandler(c, c.Object().(*blockObj), sh); err != nil {
			sh.meshErr.set(err)
		}
	})
	rt.Register(hBlockIface, func(c *core.Ctx, arg []byte) {
		if err := oupdrIfaceHandler(c, c.Object().(*blockObj), arg, sh); err != nil {
			sh.meshErr.set(err)
		}
	})
	// The dump pass reads the block and reports; registered read-only, a
	// block reloaded for it is dropped afterwards instead of written again.
	rt.RegisterReadOnly(hBlockDump, func(c *core.Ctx, arg []byte) {
		o := c.Object().(*blockObj)
		b, w, meshData := sh.report(o)
		if w == nil {
			return
		}
		if err := exportBlock(w, b, o, meshData); err != nil {
			sh.expErr.set(err)
		}
	})
}

// oupdrMeshHandler refines the block, ships interface point sets to the
// right and top neighbors (structured communication) and records the
// block's canonical digest. The block stores its mesh in canonical order,
// written straight from the refined mesh with its digest
// (mesh.EncodeCanonical): no intermediate encoding is made, and every later
// digest of the block — a dump, an export, `meshctl verify -deep`, a
// re-export after a restore — takes the linear pass.
func oupdrMeshHandler(c *core.Ctx, o *blockObj, sh *blockShared) error {
	bm, err := meshBlock(o.Rect, o.H, o.Beta)
	if err != nil {
		return err
	}
	o.Elements = int32(bm.mesh.NumTriangles())
	o.Verts = int32(bm.mesh.NumVertices())
	sh.elements.Add(int64(o.Elements))
	sh.verts.Add(int64(o.Verts))

	o.Left = edgePointsOn(bm.hull, o.Rect.Min, geom.Pt(o.Rect.Min.X, o.Rect.Max.Y))
	o.Bottom = edgePointsOn(bm.hull, o.Rect.Min, geom.Pt(o.Rect.Max.X, o.Rect.Min.Y))
	right, top := bm.interfacePoints(0), bm.interfacePoints(1)

	// Exchange: my right edge against the right neighbor's left edge, my
	// top edge against the top neighbor's bottom edge. Prefer the direct
	// in-core call (the paper's shared-memory optimization), falling back
	// to a one-sided message.
	if !o.Right.IsNil() {
		arg := append([]byte{0}, encodePoints(right)...)
		if !c.CallInline(o.Right, hBlockIface, arg) {
			c.Post(o.Right, hBlockIface, arg)
		}
	}
	if !o.Top.IsNil() {
		arg := append([]byte{1}, encodePoints(top)...)
		if !c.CallInline(o.Top, hBlockIface, arg) {
			c.Post(o.Top, hBlockIface, arg)
		}
	}
	// The canonical encoding and the digest with the interface messages
	// already on their way. Everything kept from here on is a copy: the
	// mesh's storage goes to the next block.
	if sh.quality != nil {
		sh.quality.Add(bm.mesh, constTarget(o.H))
	}
	canon, digest := canonicalOf(bm.mesh)
	bm.mesh.Recycle()
	o.MeshData = canon // before the pending payloads: nil reads as not meshed
	// Resolve interface payloads that arrived before this block meshed.
	pend := o.Pending
	o.Pending = nil
	for _, p := range pend {
		if err := oupdrIfaceHandler(c, o, p, sh); err != nil {
			sh.meshErr.set(err)
		}
	}
	// Until the remaining interface messages arrive, keep this block
	// in-core preferentially (the paper's priority hint).
	if o.IfaceNeeded > 0 {
		c.SetPriority(c.Self, 5)
	}
	i, j := gridIJ(o.Rect, sh.nb)
	return sh.record(BlockDump{I: i, J: j, Elements: o.Elements, Hash: hex.EncodeToString(digest)})
}

// oupdrIfaceHandler verifies a neighbor's interface points against this
// block's own edge points. The payload's first byte names the edge: 0 for
// the left, 1 for the bottom. A payload it cannot read, or one naming any
// other edge, is an error, not a pass: the interface it carried was never
// checked.
func oupdrIfaceHandler(c *core.Ctx, o *blockObj, arg []byte, sh *blockShared) error {
	if len(arg) < 1 {
		i, j := gridIJ(o.Rect, sh.nb)
		return fmt.Errorf("meshgen: block (%d,%d): empty interface payload", i, j)
	}
	if arg[0] > 1 {
		i, j := gridIJ(o.Rect, sh.nb)
		return fmt.Errorf("meshgen: block (%d,%d): interface payload names side %d", i, j, arg[0])
	}
	if o.IfaceNeeded > 0 {
		o.IfaceNeeded--
		if o.IfaceNeeded == 0 && o.MeshData != nil {
			c.SetPriority(c.Self, 0)
		}
	}
	if o.MeshData == nil {
		// Not meshed yet: keep the payload for later.
		o.Pending = append(o.Pending, arg)
		return nil
	}
	pts, err := decodePoints(arg[1:])
	if err != nil {
		i, j := gridIJ(o.Rect, sh.nb)
		return fmt.Errorf("meshgen: block (%d,%d): interface payload: %w", i, j, err)
	}
	mine := o.Left
	if arg[0] == 1 {
		mine = o.Bottom
	}
	if !samePoints(mine, pts) {
		sh.mismatch.Add(1)
	}
	return nil
}

// residentFirst orders a sweep over every block: the blocks in core now, then
// the rest, each group in the order given (grid order). LRU on a cyclic sweep
// evicts exactly what the sweep needs next, so a sweep that starts over from
// the first block reloads every block, the resident ones included; visiting
// those first reloads only the ones that were out.
func residentFirst(ptrs []core.MobilePtr, inCore func(core.MobilePtr) bool) []core.MobilePtr {
	out := make([]core.MobilePtr, 0, len(ptrs))
	var rest []core.MobilePtr
	for _, p := range ptrs {
		if inCore(p) {
			out = append(out, p)
		} else {
			rest = append(rest, p)
		}
	}
	return append(out, rest...)
}

// RunOUPDR executes the out-of-core uniform method on an MRTS cluster: one
// mobile object per block, meshing driven by messages, interfaces verified
// by one-sided exchanges, blocks swapped to disk under memory pressure. It
// runs the SPMD driver, Dist, on every node of cl at once: each node creates
// the blocks the placement deals it, kicks them off and waits for global
// termination — the run's one barrier — then frames them into cfg.Export if
// one is attached, which is a second. Dist predicts the pointer every block
// is minted with, so cl's runtimes must hold no objects yet.
func RunOUPDR(cl *cluster.Cluster, cfg UPDRConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	rts := cl.Runtimes()
	if err := freshRuntimes("OUPDR", rts); err != nil {
		return Result{}, err
	}
	ds, err := distsOn(rts, meshstore.Meta{
		Blocks:         cfg.Blocks,
		TargetElements: cfg.TargetElements,
		QualityBound:   cfg.QualityBound,
	})
	if err != nil {
		return Result{}, err
	}
	q := newQualityIf(cfg.Quality, cfg.QualityBound)
	grids := make([]*grid, len(ds))
	for n, d := range ds {
		d.sh.quality = q
		if err := d.CreateBlocks(); err != nil {
			return Result{}, fmt.Errorf("meshgen: node %d: %w", n, err)
		}
		grids[n] = d.grid
	}
	// Kick off: the mesh message to every block (the initial messages of the
	// paper's programming model), then the runtime has control until global
	// termination.
	runGrid(grids, hBlockMesh)
	res := Result{Method: "OUPDR", Subdomains: cfg.Blocks * cfg.Blocks, PEs: cl.PEs(), Conforming: true}
	for _, d := range ds {
		if err := d.Err(); err != nil {
			return Result{}, err
		}
		res.Elements += int(d.Elements())
		res.Vertices += int(d.sh.verts.Load())
		res.Conforming = res.Conforming && d.Mismatches() == 0
	}
	if res.Elements == 0 {
		return Result{}, fmt.Errorf("meshgen: OUPDR produced no elements")
	}
	// An export frames every block into cfg.Export — the bulk-sync method's
	// irrevocable point. Framing needs the bytes, so that pass reloads the
	// blocks out of core; without an export nothing is read back.
	if cfg.Export != nil {
		if err := onEveryNode(len(ds), func(n int) error { return ds[n].Export(cfg.Export) }); err != nil {
			return Result{}, fmt.Errorf("meshgen: export: %w", err)
		}
	}
	// A block whose load failed is gone with every message it was sent, so
	// the counts and digests above may look complete without being so.
	if lost := cl.SwapStats().ObjectsLost; lost > 0 {
		return Result{}, fmt.Errorf("meshgen: OUPDR lost %d objects to failed loads", lost)
	}
	// The run-wide digest the mesh-equality properties compare, combined
	// from the digests the blocks took when they were meshed. At termination
	// every block's digest is in its node's slots already, so they are merged
	// here, with no dump pass and the barrier it would wait for; a block
	// missing from them, or digested on two nodes, fails the run.
	parts := make([][]BlockDump, len(ds))
	for n, d := range ds {
		parts[n] = d.sh.meshed()
	}
	dump, err := cover(cfg.Blocks, parts, func(b BlockDump) (int, int) { return b.I, b.J }, "OUPDR: block")
	if err != nil {
		return Result{}, err
	}
	res.MeshHash = MeshHashOf(dump)
	res.Quality = q.Close("OUPDR", res.Conforming, res.MeshHash)
	res.Elapsed = time.Since(start)
	res.Report = cl.Report()
	res.Mem = cl.MemStats()
	return res, nil
}

// RereadDigests reads every block of the RunOUPDR run that finished on cl
// back — loading those out of core — and digests each mesh as read. The run's
// MeshHash certifies the meshes as refined; MeshHashOf of these reports equals
// it only if every block also came back from the swap path unchanged, which
// is what the mesh-equality tests check. cl must be quiescent and hold that
// run's blocks only. Its nodes get new Dists, which hold no digest, so the
// dump reads every block.
func RereadDigests(cl *cluster.Cluster, blocks int) ([]BlockDump, error) {
	// The element target only sizes the blocks CreateBlocks makes; a re-read
	// makes none.
	ds, err := distsOn(cl.Runtimes(), meshstore.Meta{Blocks: blocks, TargetElements: 1})
	if err != nil {
		return nil, err
	}
	dump, err := DumpAll(ds)
	if lost := cl.SwapStats().ObjectsLost; lost > 0 {
		return nil, fmt.Errorf("meshgen: %d objects lost to failed loads", lost)
	}
	return dump, err
}
