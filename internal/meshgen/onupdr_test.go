package meshgen

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"mrts/internal/core"
	"mrts/internal/geom"
)

// midRunQueue returns a queue part way through a run: some leaves finished
// with their boundaries, some in flight, the rest pending.
func midRunQueue(t *testing.T, maxLeafElems int) *queueObj {
	t.Helper()
	domain := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	sp := gradedSizeFor(domain, 6, 20000)
	size := sp.At
	q := &queueObj{leafQueue: newLeafQueue(buildLeafTree(domain, size, maxLeafElems), 3), Elements: 12345, Verts: 6789}
	for i := range q.Leaves {
		q.Ptrs = append(q.Ptrs, core.MobilePtr{Home: core.NodeID(i % 3), Seq: uint32(i + 1)})
	}
	var flying []int32
	fixedOf := make(map[int32][]fixedPortion)
	for round := 0; round < 3; round++ {
		for {
			li, fixed, ok := q.next()
			if !ok {
				break
			}
			flying = append(flying, li)
			fixedOf[li] = fixed
		}
		for ; len(flying) > 1; flying = flying[1:] {
			li := flying[0]
			if err := q.finish(li, assembleLeafBoundary(q.Leaves[li].Rect, size, fixedOf[li])); err != nil {
				t.Fatal(err)
			}
		}
	}
	if q.Inflight == 0 || len(q.Pending) == 0 {
		t.Fatalf("queue not mid-run: %d in flight, %d pending", q.Inflight, len(q.Pending))
	}
	return q
}

// The queue object survives an evict and reload: every leaf's flags and
// boundary, the pending order, the pointers and totals, and the in-flight
// count and busy counts recounted from the flags; the reloaded queue then
// dispatches what the original does.
func TestQueueObjRoundTrip(t *testing.T) {
	q := midRunQueue(t, 800)
	var enc bytes.Buffer
	if err := q.EncodeTo(&enc); err != nil {
		t.Fatal(err)
	}
	got := &queueObj{}
	if err := got.DecodeFrom(bytes.NewReader(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := got.EncodeTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), again.Bytes()) {
		t.Fatal("re-encoded queue differs")
	}
	finished := 0
	for i, l := range q.Leaves {
		g := got.Leaves[i]
		if g.Done != l.Done || g.InFlight != l.InFlight || !samePoints(g.Boundary, l.Boundary) {
			t.Fatalf("leaf %d: got done=%v inflight=%v %d points, want %v %v %d", i,
				g.Done, g.InFlight, len(g.Boundary), l.Done, l.InFlight, len(l.Boundary))
		}
		if l.Done {
			finished++
		}
	}
	if finished == 0 {
		t.Fatal("no finished leaf to carry a boundary")
	}
	if got.Inflight != q.Inflight || !reflect.DeepEqual(got.busy, q.busy) {
		t.Fatalf("recounted %d in flight, busy %v; want %d, %v", got.Inflight, got.busy, q.Inflight, q.busy)
	}
	if !reflect.DeepEqual(got.Ptrs, q.Ptrs) || got.Elements != q.Elements || got.Verts != q.Verts {
		t.Fatal("pointers or totals differ")
	}
	for i := range q.Leaves {
		if q.Leaves[i].InFlight {
			if err := q.finish(int32(i), nil); err != nil {
				t.Fatal(err)
			}
			if err := got.finish(int32(i), nil); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	li, fixed, ok := q.next()
	gli, gfixed, gok := got.next()
	if ok != gok || li != gli || !reflect.DeepEqual(fixed, gfixed) {
		t.Fatalf("reloaded queue dispatches (%d, %v), original (%d, %v)", gli, gok, li, ok)
	}
}

// A queue blob with any u32 corrupted decodes or fails; it never panics on a
// leaf index past the leaves or sizes an allocation from a corrupt count.
func TestQueueObjDecodeCorrupt(t *testing.T) {
	var enc bytes.Buffer
	if err := midRunQueue(t, 1500).EncodeTo(&enc); err != nil {
		t.Fatal(err)
	}
	blob := enc.Bytes()
	for off := 0; off+4 <= len(blob); off++ {
		mut := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(mut[off:off+4], 0xFFFFFFF0)
		_ = (&queueObj{}).DecodeFrom(bytes.NewReader(mut))
	}
	for _, cut := range []int{0, 4, len(blob) / 2, len(blob) - 1} {
		if err := (&queueObj{}).DecodeFrom(bytes.NewReader(blob[:cut])); err == nil {
			t.Errorf("queue blob cut at %d of %d decoded", cut, len(blob))
		}
	}
}

// testLeaf is the lower-left quarter of the unit square under RunONUPDR's
// sizing, unrefined.
func testLeaf() *leafObj {
	domain := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	return &leafObj{
		Rect: geom.NewRect(geom.Pt(0, 0), geom.Pt(0.5, 0.5)),
		Size: gradedSizeFor(domain, 6, 4000),
		Beta: 1.5,
	}
}

// The right edge of testLeaf as its refined right-hand neighbour fixed it.
func testFixedPortion() fixedPortion {
	a, b := geom.Pt(0.5, 0), geom.Pt(0.5, 0.5)
	return fixedPortion{A: a, B: b, Pts: edgePointCycle(a, b, func(geom.Point) float64 { return 0.07 }, nil)}
}

// A leaf refines inside the one message the queue sends it: it meshes
// against the fixed portions, reuses their points verbatim, and answers
// with its counts and boundary. The refined leaf survives an evict and
// reload.
func TestONUPDRRefineAndLeafRoundTrip(t *testing.T) {
	queue := core.MobilePtr{Home: 0, Seq: 7}
	fp := testFixedPortion()
	o := testLeaf()
	to, update, err := onupdrRefine(o, encodeLConstruct(queue, 3, []fixedPortion{fp}))
	if err != nil {
		t.Fatal(err)
	}
	if to != queue || len(o.MeshData) == 0 || o.Elements == 0 {
		t.Fatalf("refined leaf: reply to %v, %d mesh bytes, %d elements", to, len(o.MeshData), o.Elements)
	}
	idx, elems, verts, boundary, err := decodeQUpdate(update)
	if err != nil {
		t.Fatal(err)
	}
	if got := edgePointsOn(boundary, fp.A, fp.B); !samePoints(got, fp.Pts) {
		t.Errorf("fixed edge not reused: %v, want %v", got, fp.Pts)
	}
	if idx != 3 || elems != o.Elements || verts != o.Verts {
		t.Errorf("update (%d, %d, %d), leaf (3, %d, %d)", idx, elems, verts, o.Elements, o.Verts)
	}
	var enc bytes.Buffer
	if err := o.EncodeTo(&enc); err != nil {
		t.Fatal(err)
	}
	got := &leafObj{}
	if err := got.DecodeFrom(bytes.NewReader(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, o) {
		t.Errorf("leaf round trip: got %+v", got)
	}
}

// A construct payload the leaf cannot read fails the run instead of leaving
// the leaf unrefined and the queue waiting on it.
func TestONUPDRLeafRejectsMalformedPayload(t *testing.T) {
	queue := core.MobilePtr{Home: 0, Seq: 7}
	good := encodeLConstruct(queue, 0, []fixedPortion{testFixedPortion()})
	if _, _, err := onupdrRefine(testLeaf(), good); err != nil {
		t.Fatalf("well-formed payload: %v", err)
	}
	var noEnds bytes.Buffer
	writePtr(&noEnds, queue)
	writeU32(&noEnds, 0)
	writeU32(&noEnds, 1)
	writePoints(&noEnds, []geom.Point{geom.Pt(0.5, 0)})
	for _, arg := range [][]byte{nil, {0}, good[:12], good[:len(good)-1], noEnds.Bytes()} {
		o := testLeaf()
		if _, _, err := onupdrRefine(o, arg); err == nil {
			t.Errorf("payload %x accepted, want an error", arg)
		}
		if o.MeshData != nil {
			t.Errorf("payload %x refined the leaf", arg)
		}
	}
}

// An update the queue cannot read, or one for a leaf that is not in flight,
// fails the run and leaves the queue as it was.
func TestONUPDRQueueRejectsMalformedPayload(t *testing.T) {
	domain := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	size := gradedSizeFor(domain, 6, 1000)
	newQueue := func() *queueObj {
		// One leaf, dispatched: finishing it leaves nothing to dispatch.
		q := &queueObj{
			leafQueue: newLeafQueue(buildLeafTree(domain, size.At, 1<<30), 1),
			Ptrs:      []core.MobilePtr{{Home: 0, Seq: 1}},
		}
		if _, _, ok := q.next(); !ok || len(q.Leaves) != 1 {
			t.Fatalf("%d leaves, dispatched %v", len(q.Leaves), ok)
		}
		return q
	}
	boundary := assembleLeafBoundary(domain, size.At, nil)
	good := encodeQUpdate(0, 10, 8, boundary)
	for _, arg := range [][]byte{nil, {0}, good[:12], good[:len(good)-1],
		encodeQUpdate(1, 10, 8, boundary), encodeQUpdate(-2, 10, 8, boundary)} {
		q := newQueue()
		if err := onupdrQUpdate(nil, q, arg); err == nil {
			t.Errorf("payload %x accepted, want an error", arg)
		}
		if !q.Leaves[0].InFlight || q.Elements != 0 {
			t.Errorf("payload %x changed the queue", arg)
		}
	}
	q := newQueue()
	if err := onupdrQUpdate(nil, q, good); err != nil {
		t.Fatalf("well-formed payload: %v", err)
	}
	if !q.Leaves[0].Done || q.Inflight != 0 || q.Elements != 10 || q.Verts != 8 || !samePoints(q.Leaves[0].Boundary, boundary) {
		t.Errorf("finished leaf not recorded: %+v", q.Leaves[0])
	}
}
