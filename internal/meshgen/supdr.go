package meshgen

import (
	"bytes"
	"encoding/binary"
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
	"mrts/internal/obs"
	"mrts/internal/workload"
)

// S-UPDR: speculative uniform parallel Delaunay refinement.
//
// OUPDR is bulk-synchronous in spirit: a block refines, then exchanges
// interface points, and conformity is only checked once both sides have
// meshed. S-UPDR drops the implicit phase barrier entirely — every block
// refines optimistically the moment it is kicked, stamps the speculative
// cavity update with an epoch, and announces it to all four neighbors.
// Whether two neighboring same-epoch speculations conflict is decided by a
// deterministic draw both endpoints compute identically (conflictDraw), so
// the protocol needs no negotiation: on a conflict the lower block ID wins,
// the loser rolls back to its pre-refinement snapshot (the runtime's
// object-granular SnapshotObject/RollbackObject) and retries at the next
// epoch. A cavity that already committed can no longer move, so a committed
// block wins every conflict regardless of priority — which also guarantees
// progress: the lowest-ID still-speculative block only ever loses to a
// neighbor that has finished.
//
// The full message protocol, per block:
//
//	kick(e)      — snapshot, announce(e) to every neighbor, refine; a
//	               not-yet-speculative neighbor acks clean right away, so
//	               the in-flight window is the block's own refinement time.
//	               On the first epoch the freshly meshed edge points ship to
//	               the right/top neighbors immediately — the conformity
//	               exchange is speculative too (a retry reproduces the
//	               identical interface, so points from a doomed speculation
//	               are still the committed interface), and at that moment
//	               the receivers are usually unrefined, tiny and in-core
//	announce(e)  — receiver evaluates the conflict draw iff it is itself
//	               speculative or committed at epoch e; replies exactly one
//	               ack(e, verdict). A detected conflict additionally posts
//	               the lose directive to the loser through a conflict
//	               multicast (the loser may be mid-migration or swapped out;
//	               the multicast collection handles both).
//	ack(e, v)    — announcer decrements its ack count; a "you lose" verdict
//	               blocks commit (LosePending) even if every other ack is
//	               clean, closing the commit-before-directive race.
//	lose(e)      — rollback + retry at epoch e+1; stale epochs make the
//	               directive idempotent (the symmetric detection on both
//	               endpoints may issue it twice).
//	commit       — totals are added and the block's canonical mesh digest
//	               is folded into the run digest (no separate dump phase).
//
// Because meshBlock is a pure function of (rect, h, beta), a retry after
// rollback reproduces the identical mesh — the final mesh is byte-identical
// to bulk-sync OUPDR's at any conflict probability, which is exactly what
// the mesh-equality property tests assert via Result.MeshHash.

// S-UPDR handler IDs.
const (
	hSpecMesh     core.HandlerID = 110 // kick/retry a speculative refinement
	hSpecAnnounce core.HandlerID = 111 // neighbor announces its speculation
	hSpecAck      core.HandlerID = 112 // announce reply, carries the verdict
	hSpecLose     core.HandlerID = 113 // conflict-loser directive (multicast)
	hSpecIface    core.HandlerID = 114 // committed interface points
)

// Speculation phases of a block.
const (
	specIdle      int32 = 0 // not yet refined (or rolled back, awaiting retry)
	specInFlight  int32 = 1 // refined speculatively, awaiting acks
	specCommitted int32 = 2 // committed; the cavity can no longer move
)

// Ack verdicts.
const (
	specAckNone uint32 = 0 // no conflict seen by the receiver
	specAckLose uint32 = 1 // receiver won a conflict: announcer must roll back
)

// specKickBulk is the kick-argument flag byte (appended after the epoch)
// that demotes a retry to bulk-sync pacing under adaptive throttling.
const specKickBulk byte = 1

// specBlockObj is the S-UPDR mobile object. Every field — including the
// full speculation state machine — is serialized, so a speculative block
// survives eviction to disk and migration between nodes mid-protocol.
type specBlockObj struct {
	Rect    geom.Rect
	H, Beta float64

	// All four neighbors (conflict announcements are symmetric, unlike
	// OUPDR's right/top-only interface shipping). Set by the initial kick.
	Left, Right, Top, Bottom core.MobilePtr

	ID int32 // linear block index j*Nb+i; the conflict priority (lower wins)
	Nb int32 // grid dimension

	MeshData []byte
	Elements int32
	Verts    int32

	// Speculation state machine.
	Phase       int32
	Epoch       int32
	AcksPending int32
	LosePending bool

	// Conflict-draw parameters (identical on every block of a run, so both
	// endpoints of a pair compute the same verdict).
	Prob float64
	Seed int64
}

func (o *specBlockObj) TypeID() uint16 { return typeSpecBlock }

func (o *specBlockObj) SizeHint() int {
	return 192 + len(o.MeshData)
}

func (o *specBlockObj) EncodeTo(w io.Writer) error {
	if err := writeRect(w, o.Rect); err != nil {
		return err
	}
	for _, f := range []float64{o.H, o.Beta, o.Prob} {
		if err := writeF64(w, f); err != nil {
			return err
		}
	}
	for _, p := range []core.MobilePtr{o.Left, o.Right, o.Top, o.Bottom} {
		if err := writePtr(w, p); err != nil {
			return err
		}
	}
	lose := uint32(0)
	if o.LosePending {
		lose = 1
	}
	us := []uint32{
		uint32(o.ID), uint32(o.Nb), uint32(o.Elements), uint32(o.Verts),
		uint32(o.Phase), uint32(o.Epoch), uint32(o.AcksPending), lose,
		uint32(o.Seed), uint32(o.Seed >> 32),
	}
	for _, v := range us {
		if err := writeU32(w, v); err != nil {
			return err
		}
	}
	return writeBytes(w, o.MeshData)
}

func (o *specBlockObj) DecodeFrom(r io.Reader) error {
	var err error
	if o.Rect, err = readRect(r); err != nil {
		return err
	}
	for _, f := range []*float64{&o.H, &o.Beta, &o.Prob} {
		if *f, err = readF64(r); err != nil {
			return err
		}
	}
	for _, p := range []*core.MobilePtr{&o.Left, &o.Right, &o.Top, &o.Bottom} {
		if *p, err = readPtr(r); err != nil {
			return err
		}
	}
	var us [10]uint32
	for i := range us {
		if us[i], err = readU32(r); err != nil {
			return err
		}
	}
	o.ID, o.Nb = int32(us[0]), int32(us[1])
	o.Elements, o.Verts = int32(us[2]), int32(us[3])
	o.Phase, o.Epoch, o.AcksPending = int32(us[4]), int32(us[5]), int32(us[6])
	o.LosePending = us[7] != 0
	o.Seed = int64(uint64(us[8]) | uint64(us[9])<<32)
	if o.MeshData, err = readBytes(r); err != nil {
		return err
	}
	if len(o.MeshData) == 0 {
		o.MeshData = nil
	}
	return nil
}

// conflictDraw is the deterministic conflict oracle: a pure hash of the
// unordered block pair and the epoch, mapped to [0,1). A draw below the
// configured probability means "these two same-epoch cavities intersect".
// Both endpoints compute the identical value, so the two sides of every
// conflict agree without any coordination.
func conflictDraw(seed int64, lo, hi, epoch int32) float64 {
	x := uint64(seed)
	for _, v := range []uint64{uint64(uint32(lo)), uint64(uint32(hi)), uint64(uint32(epoch))} {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// packSpecPtr packs a MobilePtr into the obs event ID field.
func packSpecPtr(p core.MobilePtr) uint64 {
	return uint64(uint32(p.Home))<<32 | uint64(p.Seq)
}

func encodeSpecEpoch(e int32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, uint32(e))
	return b
}

func encodeSpecAnnounce(from core.MobilePtr, id, epoch int32) []byte {
	var buf bytes.Buffer
	_ = writePtr(&buf, from)
	_ = writeU32(&buf, uint32(id))
	_ = writeU32(&buf, uint32(epoch))
	return buf.Bytes()
}

func decodeSpecAnnounce(b []byte) (from core.MobilePtr, id, epoch int32, err error) {
	r := bytesReader(b)
	if from, err = readPtr(r); err != nil {
		return
	}
	var u uint32
	if u, err = readU32(r); err != nil {
		return
	}
	id = int32(u)
	if u, err = readU32(r); err != nil {
		return
	}
	epoch = int32(u)
	return
}

func encodeSpecAck(epoch int32, verdict uint32) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b[0:4], uint32(epoch))
	binary.LittleEndian.PutUint32(b[4:8], verdict)
	return b
}

// supdrShared carries the run-wide accumulators.
type supdrShared struct {
	elements  atomic.Int64
	verts     atomic.Int64
	mismatch  atomic.Int64
	checked   atomic.Int64
	announces atomic.Int64
	conflicts atomic.Int64
	rollbacks atomic.Int64
	throttled atomic.Int64

	dumpMu sync.Mutex
	dump   []BlockDump

	// Adaptive throttling: a sliding window over announce outcomes. When
	// the windowed conflict rate exceeds throttleRate, conflict losers
	// retry in bulk-sync pacing instead of re-speculating (rate <= 0
	// disables throttling entirely).
	throttleRate float64
	winMu        sync.Mutex
	win          []bool
	winIdx       int
	winFilled    int
	winConfl     int

	// Streaming export: when set, every block is framed into the store at
	// its commit point — the mesh becomes readable on disk while the run
	// is still going.
	export *meshstore.Writer
	expMu  sync.Mutex
	expErr error
}

// noteAnnounce feeds one announce outcome into the sliding window.
func (sh *supdrShared) noteAnnounce(conflicted bool) {
	if sh.throttleRate <= 0 {
		return
	}
	sh.winMu.Lock()
	defer sh.winMu.Unlock()
	if sh.winFilled == len(sh.win) {
		if sh.win[sh.winIdx] {
			sh.winConfl--
		}
	} else {
		sh.winFilled++
	}
	sh.win[sh.winIdx] = conflicted
	if conflicted {
		sh.winConfl++
	}
	sh.winIdx = (sh.winIdx + 1) % len(sh.win)
}

// throttleEngaged reports whether the windowed conflict rate exceeds the
// threshold. The window must be full first, so a single early conflict on
// a quiet run cannot trip it.
func (sh *supdrShared) throttleEngaged() bool {
	if sh.throttleRate <= 0 {
		return false
	}
	sh.winMu.Lock()
	defer sh.winMu.Unlock()
	if sh.winFilled < len(sh.win) {
		return false
	}
	return float64(sh.winConfl)/float64(sh.winFilled) > sh.throttleRate
}

func (sh *supdrShared) exportFail(err error) {
	sh.expMu.Lock()
	if sh.expErr == nil {
		sh.expErr = err
	}
	sh.expMu.Unlock()
}

// registerSUPDR installs the S-UPDR handlers on every node of the cluster.
func registerSUPDR(cl *cluster.Cluster, sh *supdrShared) {
	for _, rt := range cl.Runtimes() {
		rt.Register(hSpecMesh, func(c *core.Ctx, arg []byte) {
			specMeshHandler(c, c.Object().(*specBlockObj), arg, sh)
		})
		rt.Register(hSpecAnnounce, func(c *core.Ctx, arg []byte) {
			specAnnounceHandler(c, c.Object().(*specBlockObj), arg, sh)
		})
		rt.Register(hSpecAck, func(c *core.Ctx, arg []byte) {
			specAckHandler(c, c.Object().(*specBlockObj), arg, sh)
		})
		rt.Register(hSpecLose, func(c *core.Ctx, arg []byte) {
			specLoseHandler(c, c.Object().(*specBlockObj), arg, sh)
		})
		rt.Register(hSpecIface, func(c *core.Ctx, arg []byte) {
			specIfaceHandler(c.Object().(*specBlockObj), arg, sh)
		})
	}
}

func specNeighbors(o *specBlockObj) []core.MobilePtr {
	var out []core.MobilePtr
	for _, p := range []core.MobilePtr{o.Left, o.Right, o.Top, o.Bottom} {
		if !p.IsNil() {
			out = append(out, p)
		}
	}
	return out
}

// specMeshHandler starts (or retries) a speculative refinement.
func specMeshHandler(c *core.Ctx, o *specBlockObj, arg []byte, sh *supdrShared) {
	if len(arg) < 4 {
		return
	}
	e := int32(binary.LittleEndian.Uint32(arg))
	if o.Phase != specIdle || e < o.Epoch {
		return // stale or duplicate kick
	}
	if len(arg) >= 4+4*8 {
		// Initial kick: the driver supplies the four neighbor pointers (no
		// single creation order can — Left and Bottom do not exist yet when
		// the top-right corner is created).
		r := bytesReader(arg[4:])
		for _, p := range []*core.MobilePtr{&o.Left, &o.Right, &o.Top, &o.Bottom} {
			var err error
			if *p, err = readPtr(r); err != nil {
				return
			}
		}
	}
	if len(arg) == 5 && arg[4] == specKickBulk {
		// Throttled retry: bulk-sync pacing. No snapshot, no announce round —
		// refine and commit in one step, exactly like a barrier-paced block.
		// A committed cavity can no longer move, so any later same-epoch
		// announce against this block resolves against committed state; and
		// since meshBlock is pure, the mesh is the one every pacing produces.
		o.Epoch = e
		o.LosePending = false
		o.AcksPending = 0
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
		specCommit(c, o, sh)
		return
	}

	o.Epoch = e
	// Snapshot the pre-refinement state; a conflict loser rolls back to
	// exactly this point and retries at the next epoch. Taken after the
	// epoch and neighbors are set so both survive the rollback.
	if err := c.Runtime().SnapshotObject(c.Self); err != nil {
		return
	}
	o.Phase = specInFlight
	o.LosePending = false

	// Announce BEFORE refining. A neighbor that has not speculated yet has
	// no cavity to conflict with, so it acks clean immediately — usually
	// inline, while it is still idle in the scheduler queue — and this
	// block's in-flight window shrinks to its own refinement time instead
	// of stretching until every neighbor has worked through its own heavy
	// kick. Detection does not suffer: in any conflicting pair, whichever
	// side announces later finds the other in flight or committed at the
	// same epoch, and that one announce decides the conflict for both.
	nbrs := specNeighbors(o)
	o.AcksPending = int32(len(nbrs))
	if len(nbrs) > 0 {
		// While acks are outstanding this block is the protocol's hot set:
		// keep it in-core preferentially (the paper's priority hint,
		// exactly as OUPDR pins blocks awaiting interface payloads) so the
		// ack and lose directives do not each pay a swap reload.
		c.SetPriority(c.Self, 5)
		ann := encodeSpecAnnounce(c.Self, o.ID, e)
		for _, nb := range nbrs {
			// Shared-memory fast path first: an in-core idle neighbor
			// evaluates the announcement inline in this goroutine, no
			// queue, no copy.
			if !c.CallInline(nb, hSpecAnnounce, ann) {
				c.Post(nb, hSpecAnnounce, ann)
			}
		}
	}

	bm, err := meshBlock(o.Rect, o.H, o.Beta)
	if err != nil {
		_ = c.Runtime().RollbackObject(c.Self)
		return
	}
	var buf bytes.Buffer
	if err := bm.mesh.EncodeTo(&buf); err != nil {
		_ = c.Runtime().RollbackObject(c.Self)
		return
	}
	o.MeshData = buf.Bytes()
	o.Elements = int32(bm.mesh.NumTriangles())
	o.Verts = int32(bm.mesh.NumVertices())
	// Shared totals are deliberately NOT added here: a rolled-back
	// speculation must leave no trace in the accumulators.

	// The conformity exchange is speculative too. meshBlock is pure, so a
	// retry after a rollback reproduces the identical interface — points
	// shipped from a doomed speculation are still the committed interface.
	// Shipping them now, on the first epoch only, means the right/top
	// receivers are usually not yet refined (tiny, in-core, CallInline-able)
	// instead of fat and possibly evicted by commit time, and a retry never
	// double-counts the receiver-side check.
	if e == 1 {
		if !o.Right.IsNil() {
			ifc := append([]byte{0}, encodePoints(bm.interfacePoints(0))...)
			if !c.CallInline(o.Right, hSpecIface, ifc) {
				c.Post(o.Right, hSpecIface, ifc)
			}
		}
		if !o.Top.IsNil() {
			ifc := append([]byte{1}, encodePoints(bm.interfacePoints(1))...)
			if !c.CallInline(o.Top, hSpecIface, ifc) {
				c.Post(o.Top, hSpecIface, ifc)
			}
		}
	}

	if len(nbrs) == 0 {
		specCommit(c, o, sh) // 1x1 grid: nothing to conflict with
	}
	// Otherwise the acks already queued behind this handler drive the
	// commit the moment the handler returns (specAckHandler runs only
	// after the refinement, so MeshData is always set by commit time).
}

// specAnnounceHandler evaluates a neighbor's speculation announcement
// against this block's own state and replies with exactly one ack.
func specAnnounceHandler(c *core.Ctx, o *specBlockObj, arg []byte, sh *supdrShared) {
	from, fromID, e, err := decodeSpecAnnounce(arg)
	if err != nil {
		return
	}
	sh.announces.Add(1)
	verdict := specAckNone
	lo, hi := o.ID, fromID
	if lo > hi {
		lo, hi = hi, lo
	}
	// Conflicts exist only between same-epoch cavity updates; an idle
	// receiver has no cavity to conflict with.
	conflicted := o.Epoch == e && o.Phase != specIdle && conflictDraw(o.Seed, lo, hi, e) < o.Prob
	sh.noteAnnounce(conflicted)
	if conflicted {
		sh.conflicts.Add(1)
		rt := c.Runtime()
		switch {
		case o.Phase == specCommitted:
			// A committed cavity can no longer move: the announcer loses
			// regardless of priority. This is also the progress guarantee —
			// losing to a committed neighbor means someone finished.
			verdict = specAckLose
			rt.Tracer().Emit(obs.KindSpeculConflict, packSpecPtr(from), int64(e))
			rt.PostMulticast([]core.MobilePtr{from, c.Self}, 1, hSpecLose, encodeSpecEpoch(e))
		case o.ID < fromID:
			// Both speculative: the lower block ID wins deterministically.
			verdict = specAckLose
			rt.Tracer().Emit(obs.KindSpeculConflict, packSpecPtr(from), int64(e))
			rt.PostMulticast([]core.MobilePtr{from, c.Self}, 1, hSpecLose, encodeSpecEpoch(e))
		default:
			// I lose. Block my own commit immediately — my remaining acks
			// may all arrive clean before the lose directive does — then
			// schedule the rollback through the conflict multicast.
			o.LosePending = true
			rt.Tracer().Emit(obs.KindSpeculConflict, packSpecPtr(c.Self), int64(e))
			rt.PostMulticast([]core.MobilePtr{c.Self, from}, 1, hSpecLose, encodeSpecEpoch(e))
		}
	}
	ack := encodeSpecAck(e, verdict)
	if !c.CallInline(from, hSpecAck, ack) {
		c.Post(from, hSpecAck, ack)
	}
}

// specAckHandler collects announce replies; the last clean ack commits.
func specAckHandler(c *core.Ctx, o *specBlockObj, arg []byte, sh *supdrShared) {
	if len(arg) < 8 {
		return
	}
	e := int32(binary.LittleEndian.Uint32(arg[0:4]))
	verdict := binary.LittleEndian.Uint32(arg[4:8])
	if o.Phase != specInFlight || o.Epoch != e {
		return // stale ack from an epoch we already rolled back
	}
	if verdict == specAckLose {
		o.LosePending = true
	}
	o.AcksPending--
	if o.AcksPending == 0 && !o.LosePending {
		specCommit(c, o, sh)
	}
	// With LosePending set the block holds at specInFlight until the
	// conflict multicast delivers the rollback directive.
}

// specLoseHandler rolls a conflict loser back to its pre-refinement
// snapshot and retries at the next epoch. Stale epochs make it idempotent:
// the symmetric detection on both endpoints of a pair may issue the
// directive twice, and a block that lost two conflicts in one epoch
// receives two directives — only the first acts.
func specLoseHandler(c *core.Ctx, o *specBlockObj, arg []byte, sh *supdrShared) {
	if len(arg) < 4 {
		return
	}
	e := int32(binary.LittleEndian.Uint32(arg))
	if o.Phase != specInFlight || o.Epoch != e {
		return
	}
	rt := c.Runtime()
	rt.Tracer().Emit(obs.KindSpeculRollback, packSpecPtr(c.Self), int64(e))
	sh.rollbacks.Add(1)
	if err := rt.RollbackObject(c.Self); err != nil {
		return
	}
	// o now holds the pre-refinement state again (idle, epoch e, neighbors
	// intact, no mesh). Retry one epoch up: a fresh snapshot, a fresh round
	// of announces, and no possible conflict with anything committed at e.
	// Under adaptive throttling a hot conflict window demotes the retry to
	// bulk-sync pacing instead — refine-and-commit with no speculation, so
	// a conflict storm stops feeding itself.
	kick := encodeSpecEpoch(e + 1)
	if sh.throttleEngaged() {
		sh.throttled.Add(1)
		rt.Tracer().Emit(obs.KindSpeculThrottle, packSpecPtr(c.Self), int64(e+1))
		kick = append(kick, specKickBulk)
	}
	c.Post(c.Self, hSpecMesh, kick)
}

// specCommit finalizes a speculation: the snapshot is discarded, totals are
// added, and the block's canonical digest is folded into the run digest.
func specCommit(c *core.Ctx, o *specBlockObj, sh *supdrShared) {
	c.Runtime().CommitObject(c.Self)
	o.Phase = specCommitted
	// Committed blocks leave the hot set: they are fair game for eviction
	// again, which is what keeps the still-speculating blocks resident.
	c.SetPriority(c.Self, 0)
	sh.elements.Add(int64(o.Elements))
	sh.verts.Add(int64(o.Verts))
	// A commit is irrevocable, so the canonical per-block digest is final
	// right now — and the mesh is still resident. Hashing here folds the
	// whole collection phase into the commit: bulk-sync OUPDR runs a
	// separate dump pass after its barrier and pays one cold reload per
	// block for the identical digest.
	nb := int(o.Nb)
	i, j := int(o.ID)%nb, int(o.ID)/nb
	digest := hex.EncodeToString(hashMesh(o.MeshData))
	sh.dumpMu.Lock()
	sh.dump = append(sh.dump, BlockDump{I: i, J: j, Elements: o.Elements, Hash: digest})
	sh.dumpMu.Unlock()
	// Streaming export rides the same irrevocability: once committed, this
	// block's bytes can never change, so they are appended to the chunk
	// right now, mid-run — a reader polling the store sees the mesh grow.
	if sh.export != nil {
		if err := exportSpecBlock(sh.export, i, j, o, digest); err != nil {
			sh.exportFail(err)
		}
	}
}

// exportSpecBlock frames a committed speculative block in the canonical
// blockObj payload encoding, so a store restores the same way no matter
// which generator wrote it. The speculation protocol state is dropped — a
// committed block's durable identity is its geometry and mesh — and the
// neighbor pointers are rewritten against the restoring run's placement
// anyway.
func exportSpecBlock(w *meshstore.Writer, i, j int, o *specBlockObj, digest string) error {
	return exportBlock(w, i, j, &blockObj{
		Rect:     o.Rect,
		H:        o.H,
		Beta:     o.Beta,
		Right:    o.Right,
		Top:      o.Top,
		MeshData: o.MeshData,
		Elements: o.Elements,
		Verts:    o.Verts,
	}, digest)
}

// specIfaceHandler verifies a committed neighbor's interface points against
// this block's own matching edge, recomputed on demand from the
// deterministic boundary spacing. Nothing is buffered in the receiver, so
// the check is immune to the receiver's own speculation state — it works
// identically whether the receiver is idle, in flight, rolled back or
// committed.
func specIfaceHandler(o *specBlockObj, arg []byte, sh *supdrShared) {
	if len(arg) < 1 {
		return
	}
	side := arg[0]
	pts, err := decodePoints(arg[1:])
	if err != nil {
		return
	}
	var a, b geom.Point
	if side == 0 {
		// From my left neighbor's right edge: compare against my left edge.
		a, b = o.Rect.Min, geom.Pt(o.Rect.Min.X, o.Rect.Max.Y)
	} else {
		// From my bottom neighbor's top edge: against my bottom edge.
		a, b = o.Rect.Min, geom.Pt(o.Rect.Max.X, o.Rect.Min.Y)
	}
	mine := edgePointsOn(boundaryPoints(o.Rect, o.H), a, b)
	if !samePoints(mine, pts) {
		sh.mismatch.Add(1)
	}
	sh.checked.Add(1)
}

// combineMeshHash folds per-block canonical hashes into the run-wide mesh
// digest: dumps sorted by (J, I), rendered in BlockDump's canonical line
// format, hashed once more. Two runs produce the same digest iff every
// block's refined mesh is byte-identical.
func combineMeshHash(dump []BlockDump) string {
	recs := make([]meshstore.HashRecord, len(dump))
	for i, d := range dump {
		recs[i] = meshstore.HashRecord{I: d.I, J: d.J, Elements: d.Elements, Hash: d.Hash}
	}
	return meshstore.CombineHash(recs)
}

// SUPDRConfig configures a speculative refinement run.
type SUPDRConfig struct {
	UPDRConfig
	// ConflictProb is the probability that two neighboring same-epoch
	// speculations are declared conflicting by the deterministic draw.
	// Zero reproduces pure optimistic execution (no rollbacks ever); one
	// forces the worst case where every announced pair conflicts.
	ConflictProb float64
	// Seed drives the conflict draw: same seed and config, same conflicts,
	// same rollback structure.
	Seed int64
	// ThrottleRate enables adaptive speculation throttling when positive:
	// once the conflict rate over the sliding announce window exceeds it,
	// conflict losers retry under bulk-sync pacing instead of
	// re-speculating. Zero (the default) never throttles.
	ThrottleRate float64
	// ThrottleWindow is the sliding window length in announces (0 = 32).
	ThrottleWindow int
	// Export, when non-nil, streams every block into the store at its
	// commit point: the chunk grows while generation is still running, and
	// a partial mesh is readable mid-run. The writer is left open for the
	// caller to Finalize.
	Export *meshstore.Writer
}

// RunSUPDR executes the speculative uniform method on an MRTS cluster: one
// mobile object per block, refinement kicked everywhere at once with no
// phase barrier, conflicts detected by epoch-stamped announcements and
// resolved by deterministic priority with snapshot rollback.
func RunSUPDR(cl *cluster.Cluster, cfg SUPDRConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	if cfg.ConflictProb < 0 || cfg.ConflictProb > 1 {
		return Result{}, fmt.Errorf("meshgen: ConflictProb %v outside [0,1]", cfg.ConflictProb)
	}
	if cfg.ThrottleRate < 0 || cfg.ThrottleRate > 1 {
		return Result{}, fmt.Errorf("meshgen: ThrottleRate %v outside [0,1]", cfg.ThrottleRate)
	}
	start := time.Now()
	win := cfg.ThrottleWindow
	if win <= 0 {
		win = 32
	}
	sh := &supdrShared{
		throttleRate: cfg.ThrottleRate,
		win:          make([]bool, win),
		export:       cfg.Export,
	}
	registerSUPDR(cl, sh)

	h := workload.UniformSizeFor(cfg.TargetElements, 1.0)
	nb := cfg.Blocks
	ptrs := make([]core.MobilePtr, nb*nb)
	for j := 0; j < nb; j++ {
		for i := 0; i < nb; i++ {
			idx := j*nb + i
			ptrs[idx] = cl.RT(idx % cl.Nodes()).CreateObject(&specBlockObj{
				Rect: blockRect(nb, i, j),
				H:    h,
				Beta: cfg.QualityBound,
				ID:   int32(idx),
				Nb:   int32(nb),
				Prob: cfg.ConflictProb,
				Seed: cfg.Seed,
			})
		}
	}
	nbr := func(i, j int) core.MobilePtr {
		if i < 0 || i >= nb || j < 0 || j >= nb {
			return core.Nil
		}
		return ptrs[j*nb+i]
	}
	// Kick every block immediately — no phase barrier. The initial kick
	// carries the four neighbor pointers and the first epoch.
	for j := 0; j < nb; j++ {
		for i := 0; i < nb; i++ {
			var buf bytes.Buffer
			_ = writeU32(&buf, 1)
			_ = writePtr(&buf, nbr(i-1, j))
			_ = writePtr(&buf, nbr(i+1, j))
			_ = writePtr(&buf, nbr(i, j+1))
			_ = writePtr(&buf, nbr(i, j-1))
			p := ptrs[j*nb+i]
			cl.RT(int(p.Home)).Post(p, hSpecMesh, buf.Bytes())
		}
	}
	cl.Wait()

	if n := sh.elements.Load(); n == 0 {
		return Result{}, fmt.Errorf("meshgen: S-UPDR produced no elements")
	}
	if cfg.Export != nil {
		sh.expMu.Lock()
		expErr := sh.expErr
		sh.expMu.Unlock()
		if expErr == nil {
			expErr = cfg.Export.Err()
		}
		if expErr != nil {
			return Result{}, fmt.Errorf("meshgen: streaming export: %w", expErr)
		}
	}
	// No dump phase: every block hashed itself at commit time while its
	// mesh was still in core, so the canonical digest (same scheme as
	// RunOUPDR's) is already collected.
	sh.dumpMu.Lock()
	meshHash := combineMeshHash(sh.dump)
	sh.dumpMu.Unlock()

	return Result{
		Method:     "S-UPDR",
		Elements:   int(sh.elements.Load()),
		Vertices:   int(sh.verts.Load()),
		Subdomains: nb * nb,
		PEs:        cl.PEs(),
		Elapsed:    time.Since(start),
		Report:     cl.Report(),
		Mem:        cl.MemStats(),
		Conforming: sh.mismatch.Load() == 0 && sh.checked.Load() == int64(2*nb*(nb-1)),
		MeshHash:   meshHash,
		Conflicts:  sh.conflicts.Load(),
		Rollbacks:  sh.rollbacks.Load(),
		Throttled:  sh.throttled.Load(),
	}, nil
}
