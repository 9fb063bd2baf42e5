package meshgen

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/core"
	"mrts/internal/geom"
	"mrts/internal/meshstore"
	"mrts/internal/workload"
)

// OUPDR handler IDs.
const (
	hBlockMesh  core.HandlerID = 101
	hBlockIface core.HandlerID = 102
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

// oupdrShared carries the run-wide accumulators the handlers report into.
type oupdrShared struct {
	elements atomic.Int64
	verts    atomic.Int64
	mismatch atomic.Int64

	dumpMu sync.Mutex
	dump   []BlockDump // per-block canonical hashes (dump phase)

	// Streaming export (optional): blocks are framed into the store as the
	// dump pass visits them — the bulk-sync method's irrevocable point.
	export *meshstore.Writer
	expMu  sync.Mutex
	expErr error
}

func (sh *oupdrShared) exportFail(err error) {
	sh.expMu.Lock()
	if sh.expErr == nil {
		sh.expErr = err
	}
	sh.expMu.Unlock()
}

// registerOUPDR installs the OUPDR handlers on every node of the cluster.
func registerOUPDR(cl *cluster.Cluster, sh *oupdrShared) {
	for _, rt := range cl.Runtimes() {
		rt.Register(hBlockMesh, func(c *core.Ctx, arg []byte) {
			o := c.Object().(*blockObj)
			oupdrMeshHandler(c, o, sh)
		})
		rt.Register(hBlockIface, func(c *core.Ctx, arg []byte) {
			o := c.Object().(*blockObj)
			oupdrIfaceHandler(c, o, arg, sh)
		})
		rt.Register(hBlockDump, func(c *core.Ctx, arg []byte) {
			if len(arg) < 4 {
				return
			}
			o := c.Object().(*blockObj)
			nb := int(binary.LittleEndian.Uint32(arg))
			i := int(math.Round(o.Rect.Min.X * float64(nb)))
			j := int(math.Round(o.Rect.Min.Y * float64(nb)))
			digest := hex.EncodeToString(hashMesh(o.MeshData))
			sh.dumpMu.Lock()
			sh.dump = append(sh.dump, BlockDump{I: i, J: j, Elements: o.Elements, Hash: digest})
			sh.dumpMu.Unlock()
			if sh.export != nil {
				if err := exportBlock(sh.export, i, j, o, digest); err != nil {
					sh.exportFail(err)
				}
			}
		})
	}
}

// oupdrMeshHandler refines the block and ships interface point sets to the
// right and top neighbors (structured communication).
func oupdrMeshHandler(c *core.Ctx, o *blockObj, sh *oupdrShared) {
	bm, err := meshBlock(o.Rect, o.H, o.Beta)
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := bm.mesh.EncodeTo(&buf); err != nil {
		return
	}
	o.MeshData = buf.Bytes()
	o.Elements = int32(bm.mesh.NumTriangles())
	o.Verts = int32(bm.mesh.NumVertices())
	sh.elements.Add(int64(o.Elements))
	sh.verts.Add(int64(o.Verts))

	hull := bm.hullPoints()
	o.Left = edgePointsOn(hull, o.Rect.Min, geom.Pt(o.Rect.Min.X, o.Rect.Max.Y))
	o.Bottom = edgePointsOn(hull, o.Rect.Min, geom.Pt(o.Rect.Max.X, o.Rect.Min.Y))

	// Exchange: my right edge against the right neighbor's left edge, my
	// top edge against the top neighbor's bottom edge. Prefer the direct
	// in-core call (the paper's shared-memory optimization), falling back
	// to a one-sided message.
	if !o.Right.IsNil() {
		arg := append([]byte{0}, encodePoints(bm.interfacePoints(0))...)
		if !c.CallInline(o.Right, hBlockIface, arg) {
			c.Post(o.Right, hBlockIface, arg)
		}
	}
	if !o.Top.IsNil() {
		arg := append([]byte{1}, encodePoints(bm.interfacePoints(1))...)
		if !c.CallInline(o.Top, hBlockIface, arg) {
			c.Post(o.Top, hBlockIface, arg)
		}
	}
	// Resolve interface payloads that arrived before this block meshed.
	pend := o.Pending
	o.Pending = nil
	for _, p := range pend {
		oupdrIfaceHandler(c, o, p, sh)
	}
	// Until the remaining interface messages arrive, keep this block
	// in-core preferentially (the paper's priority hint).
	if o.IfaceNeeded > 0 {
		c.SetPriority(c.Self, 5)
	}
}

// oupdrIfaceHandler verifies a neighbor's interface points against this
// block's own edge points.
func oupdrIfaceHandler(c *core.Ctx, o *blockObj, arg []byte, sh *oupdrShared) {
	if len(arg) < 1 {
		return
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
		return
	}
	side := arg[0]
	pts, err := decodePoints(arg[1:])
	if err != nil {
		return
	}
	var mine []geom.Point
	if side == 0 {
		mine = o.Left
	} else {
		mine = o.Bottom
	}
	if !samePoints(mine, pts) {
		sh.mismatch.Add(1)
	}
}

// RunOUPDR executes the out-of-core uniform method on an MRTS cluster: one
// mobile object per block, meshing driven by messages, interfaces verified
// by one-sided exchanges, blocks swapped to disk under memory pressure.
func RunOUPDR(cl *cluster.Cluster, cfg UPDRConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	sh := &oupdrShared{export: cfg.Export}
	registerOUPDR(cl, sh)

	h := workload.UniformSizeFor(cfg.TargetElements, 1.0)
	nb := cfg.Blocks
	ptrs := make([]core.MobilePtr, nb*nb)
	// Create top-right first so each block's right/top neighbors exist.
	idx := 0
	for j := nb - 1; j >= 0; j-- {
		for i := nb - 1; i >= 0; i-- {
			right, top := core.Nil, core.Nil
			if i+1 < nb {
				right = ptrs[j*nb+i+1]
			}
			if j+1 < nb {
				top = ptrs[(j+1)*nb+i]
			}
			node := idx % cl.Nodes()
			idx++
			expect := int32(0)
			if i > 0 {
				expect++
			}
			if j > 0 {
				expect++
			}
			ptrs[j*nb+i] = cl.RT(node).CreateObject(&blockObj{
				Rect:        blockRect(nb, i, j),
				H:           h,
				Beta:        cfg.QualityBound,
				Right:       right,
				Top:         top,
				IfaceNeeded: expect,
			})
		}
	}
	// Kick off: post the mesh message to every block (the initial messages
	// of the paper's programming model), then hand control to the runtime.
	for _, p := range ptrs {
		cl.RT(int(p.Home)).Post(p, hBlockMesh, nil)
	}
	cl.Wait()

	if n := sh.elements.Load(); n == 0 {
		return Result{}, fmt.Errorf("meshgen: OUPDR produced no elements")
	}
	// Dump phase: collect every block's canonical mesh hash and combine
	// them into the run-wide digest the mesh-equality properties compare.
	nbArg := make([]byte, 4)
	binary.LittleEndian.PutUint32(nbArg, uint32(nb))
	for _, p := range ptrs {
		cl.RT(int(p.Home)).Post(p, hBlockDump, nbArg)
	}
	cl.Wait()
	sh.dumpMu.Lock()
	meshHash := combineMeshHash(sh.dump)
	sh.dumpMu.Unlock()
	if cfg.Export != nil {
		sh.expMu.Lock()
		expErr := sh.expErr
		sh.expMu.Unlock()
		if expErr == nil {
			expErr = cfg.Export.Err()
		}
		if expErr != nil {
			return Result{}, fmt.Errorf("meshgen: export: %w", expErr)
		}
	}
	return Result{
		Method:     "OUPDR",
		MeshHash:   meshHash,
		Elements:   int(sh.elements.Load()),
		Vertices:   int(sh.verts.Load()),
		Subdomains: nb * nb,
		PEs:        cl.PEs(),
		Elapsed:    time.Since(start),
		Report:     cl.Report(),
		Mem:        cl.MemStats(),
		Conforming: sh.mismatch.Load() == 0,
	}, nil
}
