package meshgen

import (
	"bytes"
	"reflect"
	"testing"

	"mrts/internal/core"
	"mrts/internal/geom"
)

// testLeaf is the lower-left quarter of the unit square under RunONUPDR's
// sizing, unrefined, as leaf 2 of a plan: leaf 1, its right-hand neighbour,
// precedes it, and leaf 3 above it and leaf 4 at its upper-right corner
// follow it.
func testLeaf() *leafObj {
	domain := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	ptr := func(seq int) core.MobilePtr { return core.MobilePtr{Home: core.NodeID(seq % 2), Seq: uint32(seq)} }
	return &leafObj{
		Rect: geom.NewRect(geom.Pt(0, 0), geom.Pt(0.5, 0.5)),
		Size: gradedSizeFor(domain, 6, 4000),
		Beta: 1.5,
		Idx:  2,
		Nbs: []leafNb{
			{Idx: 3, Ptr: ptr(3), Rect: geom.NewRect(geom.Pt(0, 0.5), geom.Pt(0.5, 1))},
			{Idx: 1, Ptr: ptr(1), Rect: geom.NewRect(geom.Pt(0.5, 0), geom.Pt(1, 0.5))},
			{Idx: 4, Ptr: ptr(4), Rect: geom.NewRect(geom.Pt(0.5, 0.5), geom.Pt(1, 1))},
		},
	}
}

// The right edge of testLeaf as its refined right-hand neighbour, leaf 1,
// fixed it.
func testPortion() leafPortion {
	a, b := geom.Pt(0.5, 0), geom.Pt(0.5, 0.5)
	return leafPortion{From: 1, Fixed: []fixedPortion{
		{A: a, B: b, Pts: edgePointCycle(a, b, func(geom.Point) float64 { return 0.07 }, nil)},
	}}
}

// roundTrip encodes o and decodes the bytes into a new leaf.
func roundTrip(t *testing.T, o *leafObj) *leafObj {
	t.Helper()
	var enc bytes.Buffer
	if err := o.EncodeTo(&enc); err != nil {
		t.Fatal(err)
	}
	got := &leafObj{}
	if err := got.DecodeFrom(bytes.NewReader(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	return got
}

// A leaf meshes once its one predecessor's portion is in: it reuses the
// portion's points verbatim, keeps its mesh and drops the portion. It
// survives an evict and reload while it waits and once it is meshed.
func TestONUPDRRefineAndLeafRoundTrip(t *testing.T) {
	o := testLeaf()
	fp := testPortion()
	ready, err := o.receive(encodePortion(fp))
	if err != nil || !ready {
		t.Fatalf("its one predecessor's portion: ready %v, %v", ready, err)
	}
	if got := roundTrip(t, o); !reflect.DeepEqual(got, o) {
		t.Errorf("waiting leaf round trip: got %+v", got)
	}
	q := NewQuality(o.Beta)
	cycle, mismatched, err := o.refine(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.MeshData) == 0 || o.Elements == 0 || o.Got != nil || mismatched != 0 {
		t.Fatalf("refined leaf: %d mesh bytes, %d elements, %d portions kept, %d mismatches",
			len(o.MeshData), o.Elements, len(o.Got), mismatched)
	}
	f := fp.Fixed[0]
	if got := edgePointsOn(cycle, f.A, f.B); !samePoints(got, f.Pts) {
		t.Errorf("fixed edge not reused: %v, want %v", got, f.Pts)
	}
	if q.Pieces != 1 || q.Elements != int(o.Elements) {
		t.Errorf("the report holds %d pieces, %d elements; want 1, %d", q.Pieces, q.Elements, o.Elements)
	}
	if got := roundTrip(t, o); !reflect.DeepEqual(got, o) {
		t.Errorf("meshed leaf round trip: got %+v", got)
	}
}

// A message the leaf cannot take fails the run instead of meshing the leaf
// against the wrong portions or leaving it waiting: a payload it cannot
// read, a kick-off to a leaf with a predecessor, a portion from a leaf that
// is not a predecessor, a second portion from one that is, and any message
// once it meshed.
func TestONUPDRLeafRejectsMalformedPayload(t *testing.T) {
	good := encodePortion(testPortion())
	if _, err := testLeaf().receive(good); err != nil {
		t.Fatalf("well-formed payload: %v", err)
	}
	var noEnds, two bytes.Buffer
	writeU32(&noEnds, 1)
	writeU32(&noEnds, 1)
	writePoints(&noEnds, []geom.Point{geom.Pt(0.5, 0)})
	writeU32(&two, 1)
	writeU32(&two, 2)
	for _, arg := range [][]byte{nil, {0}, good[:12], good[:len(good)-1], append(good, 0), noEnds.Bytes(), two.Bytes(),
		encodePortion(leafPortion{From: 3}), encodePortion(leafPortion{From: 0})} {
		o := testLeaf()
		if _, err := o.receive(arg); err == nil {
			t.Errorf("payload %x accepted, want an error", arg)
		}
		if o.Got != nil {
			t.Errorf("payload %x was kept", arg)
		}
	}
	o := testLeaf()
	o.receive(good)
	if _, err := o.receive(good); err == nil {
		t.Error("a second portion from leaf 1 accepted")
	}
	if _, _, err := o.refine(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := o.receive(encodePortion(leafPortion{From: 1})); err == nil {
		t.Error("a portion to a meshed leaf accepted")
	}
	src := testLeaf()
	src.Nbs = src.Nbs[:1] // leaf 3 only: no predecessor
	if ready, err := src.receive(nil); err != nil || !ready {
		t.Errorf("kick-off of a leaf with no predecessor: ready %v, %v", ready, err)
	}
}
