package meshgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"mrts/internal/bufpool"
	"mrts/internal/core"
	"mrts/internal/mesh"
	"mrts/internal/meshstore"
	"mrts/internal/storage"
	"mrts/internal/workload"
)

// This file is OUPDR on the SPMD grid driver (grid.go): a Dist is one
// node's share of the block grid, running the block handlers (oupdr.go),
// the dump and export passes over its blocks, and the restore of its share
// of a stored mesh.

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

// Dist drives one node of a distributed OUPDR run.
type Dist struct {
	*grid
	cfg DistConfig
	sh  *blockShared
}

// NewDist computes the placement table and registers the OUPDR handlers on
// rt. It does not create objects: call CreateBlocks on a fresh start, or
// Restore when relaunching from a checkpoint.
func NewDist(rt *core.Runtime, cfg DistConfig) (*Dist, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	d := &Dist{grid: newGrid(rt, cfg.Blocks, cfg.Nodes, cfg.Node, cfg.Phases),
		cfg: cfg, sh: newBlockShared(cfg.Blocks)}
	registerBlockHandlers(rt, d.sh)
	return d, nil
}

// exportBlock frames one block into a store chunk: its report's digest for
// offline verification, and the block's full encoded state, with meshData
// as its mesh, as the payload a rank-independent restore re-creates it from.
func exportBlock(w *meshstore.Writer, b BlockDump, o *blockObj, meshData []byte) error {
	framed := *o // the dump pass reads its block only
	framed.MeshData = meshData
	bw := bufpool.GetWriter(framed.SizeHint())
	defer bufpool.PutWriter(bw)
	if err := framed.EncodeTo(bw); err != nil {
		return err
	}
	return w.Append(meshstore.BlockKey(b.I, b.J), b.I, b.J, b.Elements, b.Hash, bw.Bytes())
}

// hashMesh digests a block's refined mesh by geometry, not by encoding: two
// geometrically identical meshes whose internal IDs were assigned in a
// different order encode differently but digest alike (mesh.CanonicalDigest).
func hashMesh(data []byte) []byte {
	d, err := mesh.CanonicalDigest(data)
	if err != nil {
		return undecodableDigest(data)
	}
	return d
}

// canonicalMesh returns a block's mesh encoding in canonical order
// (mesh.Canonicalize) and its digest, hashMesh's: data itself when it
// already is canonical, or does not decode. A block stored before blocks
// were stored canonical takes this path on a dump or an export.
func canonicalMesh(data []byte) (canon, digest []byte) {
	canon, digest, err := mesh.Canonicalize(data)
	if err != nil {
		return data, undecodableDigest(data)
	}
	return canon, digest
}

// canonicalOf is canonicalMesh of m's encoding, written straight from m
// (mesh.EncodeCanonical): the same bytes and digest, and for a mesh whose
// encoding would not decode, that encoding and its undecodableDigest.
func canonicalOf(m *mesh.Mesh) (canon, digest []byte) {
	canon, digest, err := m.EncodeCanonical()
	if err != nil {
		var raw bytes.Buffer
		m.EncodeTo(&raw) // a bytes.Buffer takes every write
		return raw.Bytes(), undecodableDigest(raw.Bytes())
	}
	return canon, digest
}

// undecodableDigest is the digest of a mesh that does not decode: a tagged
// digest of the raw bytes, so that the equality check fails loudly rather
// than a handler panicking.
func undecodableDigest(data []byte) []byte {
	h := sha256.Sum256(append([]byte("undecodable:"), data...))
	return h[:]
}

// CreateBlocks creates this node's blocks in creation order, each checked
// against the pointer the placement predicts.
func (d *Dist) CreateBlocks() error {
	h := workload.UniformSizeFor(d.cfg.TargetElements, 1.0)
	return d.create(func(i, j int) core.Object {
		return newBlock(d.nb, i, j, h, d.cfg.QualityBound, d.ptrs)
	})
}

// PostPhase posts the mesh kick-off to this node's blocks of phase k. Every
// process must post the same phase, then call WaitPhase.
func (d *Dist) PostPhase(k int) { d.post(k, hBlockMesh) }

// WaitPhase runs the distributed termination protocol for one phase barrier.
func (d *Dist) WaitPhase() { d.wait() }

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
	d.wait()
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
	nb := d.nb
	local := d.local()
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
		if err := d.createAt(idx, r.o); err != nil {
			return err
		}
		meshstore.EmitRestore(d.rt.Tracer(), i, j, r.size)
		return nil
	})
}

// RestoreOnto rebuilds a stored mesh onto rts, one fresh runtime per node:
// it builds each node's Dist from the store's meta and runs RestoreFromStore
// on it. A partial store is refused, since the blocks it lacks could not be
// restored.
func RestoreOnto(rts []*core.Runtime, st *meshstore.Store) ([]*Dist, error) {
	if st.Partial() {
		return nil, fmt.Errorf("meshgen: restore: store is partial; restore needs full grid coverage")
	}
	ds, err := distsOn(rts, st.Manifest().Meta)
	if err != nil {
		return nil, err
	}
	for i, d := range ds {
		if err := d.RestoreFromStore(st); err != nil {
			return nil, fmt.Errorf("meshgen: restore onto node %d: %w", i, err)
		}
	}
	return ds, nil
}

// distsOn builds one Dist per runtime for the run a store's meta describes.
func distsOn(rts []*core.Runtime, meta meshstore.Meta) ([]*Dist, error) {
	ds := make([]*Dist, len(rts))
	for i, rt := range rts {
		d, err := NewDist(rt, DistConfig{
			Blocks:         meta.Blocks,
			TargetElements: meta.TargetElements,
			QualityBound:   meta.QualityBound,
			Nodes:          len(rts),
			Node:           i,
		})
		if err != nil {
			return nil, fmt.Errorf("meshgen: node %d: %w", i, err)
		}
		ds[i] = d
	}
	return ds, nil
}

// DumpAll runs Dump on every node at once, as the collective requires, and
// returns the merged report sorted by (j, i). It fails unless every block of
// the grid is reported exactly once.
func DumpAll(ds []*Dist) ([]BlockDump, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("meshgen: dump: no nodes")
	}
	parts := make([][]BlockDump, len(ds))
	onEveryNode(len(ds), func(i int) error {
		parts[i] = ds[i].Dump()
		return nil
	})
	return cover(ds[0].nb, parts, func(b BlockDump) (int, int) { return b.I, b.J }, "dump: block")
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
