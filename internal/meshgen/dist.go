package meshgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"mrts/internal/bufpool"
	"mrts/internal/cluster"
	"mrts/internal/core"
	"mrts/internal/mesh"
	"mrts/internal/meshstore"
	"mrts/internal/storage"
	"mrts/internal/workload"
)

// This file is the SPMD driver for a true multi-process OUPDR run: every
// worker process executes the same code against its own core.Runtime, and
// the only thing the processes share is the deterministic placement function
// below. No process ever tells another which MobilePtr it minted — each one
// recomputes the full pointer table from the block grid, the consistent-hash
// directory, and the runtime's sequential Seq assignment, and CreateBlocks
// verifies the prediction against what CreateObject actually returned.

// DistConfig parameterizes one node's share of a distributed OUPDR run. All
// processes of a run must use identical Blocks/TargetElements/QualityBound/
// Nodes/Phases; Node is the process's own ID.
type DistConfig struct {
	// Blocks is the decomposition grid dimension (Blocks×Blocks blocks).
	Blocks int
	// TargetElements is the approximate total element count.
	TargetElements int
	// QualityBound is the radius-edge bound (0 = default √2).
	QualityBound float64
	// Nodes is the cluster size; Node is this process (0..Nodes-1).
	Nodes, Node int
	// Phases splits the kick-off posts into Phases barrier-separated rounds
	// (block idx k is posted in phase k%Phases). Multi-phase runs give the
	// launcher quiescent boundaries to checkpoint — and kill — workers at.
	Phases int
}

func (c *DistConfig) defaults() error {
	if c.Blocks <= 0 {
		c.Blocks = 4
	}
	if c.TargetElements <= 0 {
		return fmt.Errorf("meshgen: TargetElements must be positive")
	}
	if c.Nodes <= 0 {
		return fmt.Errorf("meshgen: Nodes must be positive")
	}
	if c.Node < 0 || c.Node >= c.Nodes {
		return fmt.Errorf("meshgen: Node %d out of range [0,%d)", c.Node, c.Nodes)
	}
	if c.Phases <= 0 {
		c.Phases = 1
	}
	return nil
}

// BlockDump is one block's contribution to the mesh-equality check.
type BlockDump struct {
	I, J     int
	Elements int32
	Hash     string // hex sha256 of the encoded refined mesh
}

// String renders the canonical dump line.
func (b BlockDump) String() string {
	return fmt.Sprintf("%d %d %d %s", b.J, b.I, b.Elements, b.Hash)
}

// Placement is the deterministic block→node mapping every process of a run
// computes identically: the consistent-hash directory over the node set plus
// the predicted MobilePtr table derived from it. It exists as a standalone
// value so a worker can build it before its runtime — the directory doubles
// as the runtime's placement-aware locator (cluster.NewPlacedLocatorKeyed
// with Placement.Key), and since blocks are created at their ring owners,
// that locator resolves every first hop to the correct node with zero
// forwarding.
type Placement struct {
	// Dir is the placement ring (identical in every process of the run).
	Dir *cluster.Directory
	// Ptrs is the global pointer table, indexed j*Blocks+i.
	Ptrs []core.MobilePtr
	// Owners is the owner per block, same indexing.
	Owners []core.NodeID
	// Order is the canonical creation order (indexes into Ptrs).
	Order []int

	keys map[core.MobilePtr]string // ptr -> the "block-i-j" key that placed it
}

// Key is the placement-key function for the run's locator
// (cluster.NewPlacedLocatorKeyed): blocks were placed on the ring by their
// "block-i-j" names, so first-hop resolution must ask the ring by those same
// names — the canonical PtrKey of a block pointer hashes elsewhere entirely.
// Pointers outside the block table (none exist in this workload) fall back
// to the canonical key.
func (pl *Placement) Key(ptr core.MobilePtr) string {
	if k, ok := pl.keys[ptr]; ok {
		return k
	}
	return cluster.PtrKey(ptr)
}

// NewPlacement computes the shared placement table for a run configuration.
// It predicts every block's MobilePtr: owner from the directory, Seq from
// the owner's creation order (CreateObject assigns 1, 2, ... on a fresh
// runtime). The canonical order is top-right first — j then i descending —
// so each block's right/top neighbors are already placed when it is.
func NewPlacement(cfg DistConfig) (*Placement, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	ids := make([]core.NodeID, cfg.Nodes)
	for i := range ids {
		ids[i] = core.NodeID(i)
	}
	pl := &Placement{Dir: cluster.NewDirectory(ids)}

	nb := cfg.Blocks
	pl.Ptrs = make([]core.MobilePtr, nb*nb)
	pl.Owners = make([]core.NodeID, nb*nb)
	pl.Order = make([]int, 0, nb*nb)
	pl.keys = make(map[core.MobilePtr]string, nb*nb)
	seq := make([]uint32, cfg.Nodes)
	for j := nb - 1; j >= 0; j-- {
		for i := nb - 1; i >= 0; i-- {
			idx := j*nb + i
			key := meshstore.BlockKey(i, j)
			owner, _ := pl.Dir.Owner(key)
			seq[owner]++
			pl.Ptrs[idx] = core.MobilePtr{Home: owner, Seq: seq[owner]}
			pl.Owners[idx] = owner
			pl.Order = append(pl.Order, idx)
			pl.keys[pl.Ptrs[idx]] = key
		}
	}
	return pl, nil
}

// Dist drives one node of a distributed OUPDR run.
type Dist struct {
	rt  *core.Runtime
	cfg DistConfig
	sh  *blockShared

	ptrs   []core.MobilePtr // global pointer table, indexed j*Blocks+i
	owners []core.NodeID    // owner per block, same indexing
	order  []int            // canonical creation order (indexes into ptrs)
}

// NewDist computes the placement table and registers the OUPDR handlers on
// rt. It does not create objects: call CreateBlocks on a fresh start, or
// Restore when relaunching from a checkpoint.
func NewDist(rt *core.Runtime, cfg DistConfig) (*Dist, error) {
	pl, err := NewPlacement(cfg)
	if err != nil {
		return nil, err
	}
	return NewDistFrom(rt, cfg, pl)
}

// NewDistFrom registers the OUPDR handlers on rt against a placement the
// caller already computed — the path workers take when the placement also
// feeds the runtime's locator, so both views come from one directory.
func NewDistFrom(rt *core.Runtime, cfg DistConfig, pl *Placement) (*Dist, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	nb := cfg.Blocks
	if len(pl.Ptrs) != nb*nb {
		return nil, fmt.Errorf("meshgen: placement is for %d blocks, config wants %d", len(pl.Ptrs), nb*nb)
	}
	d := &Dist{rt: rt, cfg: cfg, sh: newBlockShared(nb),
		ptrs: pl.Ptrs, owners: pl.Owners, order: pl.Order}
	registerBlockHandlers(rt, d.sh)
	return d, nil
}

// exportBlock frames one block into a store chunk: the canonical mesh
// digest for offline verification, and the block's full encoded state as
// the payload a rank-independent restore re-creates it from.
func exportBlock(w *meshstore.Writer, i, j int, o *blockObj, digest string) error {
	bw := bufpool.GetWriter(o.SizeHint())
	defer bufpool.PutWriter(bw)
	if err := o.EncodeTo(bw); err != nil {
		return err
	}
	return w.Append(meshstore.BlockKey(i, j), i, j, o.Elements, digest, bw.Bytes())
}

// hashMesh digests a block's refined mesh by geometry, not by encoding: two
// geometrically identical meshes whose internal IDs were assigned in a
// different order encode differently but digest alike (mesh.CanonicalDigest).
func hashMesh(data []byte) []byte {
	d, err := mesh.CanonicalDigest(data)
	if err != nil {
		// An undecodable mesh hashes to a tagged digest of the raw bytes so
		// the equality check fails loudly rather than panicking mid-handler.
		h := sha256.Sum256(append([]byte("undecodable:"), data...))
		return h[:]
	}
	return d
}

// CreateBlocks creates this node's blocks in the canonical order and
// verifies each minted pointer against the prediction — the property the
// whole cross-process addressing scheme rests on.
func (d *Dist) CreateBlocks() error {
	nb := d.cfg.Blocks
	h := workload.UniformSizeFor(d.cfg.TargetElements, 1.0)
	beta := d.cfg.QualityBound
	for _, idx := range d.order {
		if d.owners[idx] != core.NodeID(d.cfg.Node) {
			continue
		}
		i, j := idx%nb, idx/nb
		got := d.rt.CreateObject(newBlock(nb, i, j, h, beta, d.ptrs))
		if got != d.ptrs[idx] {
			return fmt.Errorf("meshgen: block (%d,%d) minted %v, placement predicted %v",
				i, j, got, d.ptrs[idx])
		}
	}
	return nil
}

// PostPhase posts the mesh kick-off to this node's blocks of phase k (block
// order index k mod Phases). Every process must post the same phase, then
// call WaitPhase — the phases are global barriers.
func (d *Dist) PostPhase(k int) {
	for ord, idx := range d.order {
		if ord%d.cfg.Phases != k || d.owners[idx] != core.NodeID(d.cfg.Node) {
			continue
		}
		d.rt.Post(d.ptrs[idx], hBlockMesh, nil)
	}
}

// WaitPhase runs the distributed termination protocol for one phase barrier.
func (d *Dist) WaitPhase() { d.rt.WaitTermination(d.cfg.Nodes) }

// Dump reports every local block, waits for global termination (every
// process must call Dump together), and returns this node's block reports
// sorted by (j, i). A block this process holds a digest for — it meshed the
// block, or an earlier pass read it — is reported from that digest without
// being read; only the rest are visited.
func (d *Dist) Dump() []BlockDump {
	out, _ := d.dumpPass(nil)
	sort.Slice(out, func(a, b int) bool {
		if out[a].J != out[b].J {
			return out[a].J < out[b].J
		}
		return out[a].I < out[b].I
	})
	return out
}

// dumpPass reports every local block and waits for global termination. With
// w nil, blocks with a digest are reported directly and the dump request goes
// to the rest; with w non-nil it goes to every local block, since framing a
// block into w needs its bytes.
func (d *Dist) dumpPass(w *meshstore.Writer) ([]BlockDump, error) {
	d.sh.begin(w)
	var known []BlockDump
	var visit []core.MobilePtr
	for idx, ptr := range d.ptrs { // grid order
		if !d.rt.IsLocal(ptr) {
			continue
		}
		if b, ok := d.sh.digest(idx); ok && w == nil {
			known = append(known, b)
		} else {
			visit = append(visit, ptr)
		}
	}
	for _, ptr := range residentFirst(visit, d.rt.InCore) {
		d.rt.Post(ptr, hBlockDump, nil)
	}
	d.rt.WaitTermination(d.cfg.Nodes)
	dump, err := d.sh.end()
	return append(known, dump...), err
}

// Elements returns the elements meshed on this node so far.
func (d *Dist) Elements() int64 { return d.sh.elements.Load() }

// Mismatches returns the interface conformity violations observed locally.
func (d *Dist) Mismatches() int64 { return d.sh.mismatch.Load() }

// Err returns, and forgets, the first error a block handler on this node met:
// a block that failed to mesh or an interface payload it could not read.
func (d *Dist) Err() error { return d.sh.meshErr.take() }

// Checkpoint writes the node's state into st at a phase barrier.
func (d *Dist) Checkpoint(st storage.Store, prefix string) error {
	return d.rt.Checkpoint(st, prefix)
}

// Restore rebuilds the node from a checkpoint written by Checkpoint; the
// runtime must be fresh (NewDist registered handlers, no objects created).
func (d *Dist) Restore(st storage.Store, prefix string) error {
	return d.rt.Restore(st, prefix)
}

// StoreMeta is the manifest meta for this run's generation parameters —
// what a rank-independent restore needs, and nothing about the node count.
func (d *Dist) StoreMeta() meshstore.Meta {
	return meshstore.Meta{
		Blocks:         d.cfg.Blocks,
		TargetElements: d.cfg.TargetElements,
		QualityBound:   d.cfg.QualityBound,
	}
}

// Export frames every local block into w and waits for global termination
// (every process of the run must call Export together, like Dump). The
// writer is left open; callers Finalize and merge manifests afterwards.
func (d *Dist) Export(w *meshstore.Writer) error {
	_, err := d.dumpPass(w)
	return err
}

// RestoreFromStore rebuilds this node's share of a mesh from a store,
// independent of how many nodes wrote it. Each locally-owned block is
// fetched by its grid key — which chunk holds it is irrelevant — decoded,
// and re-created in the canonical order so the minted pointer matches THIS
// run's placement prediction. The stored neighbor pointers belonged to the
// writing run's placement and are rewritten to the new table; that rewrite
// is the entire rank-independence rule. The runtime must be fresh.
//
// Reading, decoding and checking a block run on meshstore.Ordered's
// workers; creating it runs here, in placement order, so the pointers and
// the trace are those of a sequential restore. The first bad block in
// placement order stops the restore and names the error; the blocks before
// it stay created.
func (d *Dist) RestoreFromStore(st *meshstore.Store) error {
	nb := d.cfg.Blocks
	var local []int
	for _, idx := range d.order {
		if d.owners[idx] == core.NodeID(d.cfg.Node) {
			local = append(local, idx)
		}
	}
	type restored struct {
		o    *blockObj
		size int
	}
	return meshstore.Ordered(len(local), func(k int) (restored, error) {
		i, j := local[k]%nb, local[k]/nb
		payload, rec, err := st.PayloadBuf(meshstore.BlockKey(i, j))
		if err != nil {
			return restored{}, fmt.Errorf("meshgen: restore block (%d,%d): %w", i, j, err)
		}
		o := &blockObj{}
		err = o.DecodeFrom(bytes.NewReader(payload))
		size := len(payload)
		bufpool.Put(payload) // DecodeFrom copied what it keeps
		if err != nil {
			return restored{}, fmt.Errorf("meshgen: restore block (%d,%d): decode: %w", i, j, err)
		}
		if o.Elements != rec.Elements {
			return restored{}, fmt.Errorf("meshgen: restore block (%d,%d): payload has %d elements, index says %d",
				i, j, o.Elements, rec.Elements)
		}
		if pi, pj := gridIJ(o.Rect, nb); pi != i || pj != j {
			return restored{}, fmt.Errorf("meshgen: restore block (%d,%d): payload is block (%d,%d)", i, j, pi, pj)
		}
		return restored{o, size}, nil
	}, func(k int, r restored) error {
		idx := local[k]
		i, j := idx%nb, idx/nb
		r.o.Right, r.o.Top = blockNeighbors(nb, i, j, d.ptrs)
		if got := d.rt.CreateObject(r.o); got != d.ptrs[idx] {
			return fmt.Errorf("meshgen: restored block (%d,%d) minted %v, placement predicted %v",
				i, j, got, d.ptrs[idx])
		}
		meshstore.EmitRestore(d.rt.Tracer(), i, j, r.size)
		return nil
	})
}

// DecodeExportedBlock decodes a stored block payload offline and
// recomputes its canonical digest — the deep half of `meshctl verify`,
// needing no cluster.
func DecodeExportedBlock(payload []byte, blocks int) (BlockDump, error) {
	o := &blockObj{}
	if err := o.DecodeFrom(bytes.NewReader(payload)); err != nil {
		return BlockDump{}, err
	}
	i, j := gridIJ(o.Rect, blocks)
	return BlockDump{I: i, J: j, Elements: o.Elements,
		Hash: hex.EncodeToString(hashMesh(o.MeshData))}, nil
}

// MeshHashOf folds per-block canonical hashes into the run-wide mesh digest
// by the meshstore combined-digest rule: dumps sorted by (J, I), rendered in
// BlockDump's canonical line format, hashed once more. Two runs produce the
// same digest iff every block's refined mesh is byte-identical.
func MeshHashOf(dump []BlockDump) string {
	recs := make([]meshstore.HashRecord, len(dump))
	for i, d := range dump {
		recs[i] = meshstore.HashRecord{I: d.I, J: d.J, Elements: d.Elements, Hash: d.Hash}
	}
	return meshstore.CombineHash(recs)
}
