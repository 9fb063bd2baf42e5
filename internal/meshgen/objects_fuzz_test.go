package meshgen

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"mrts/internal/core"
	"mrts/internal/geom"
	"mrts/internal/mesh"
)

// objectSeeds are the three mobile object types as the methods fill them,
// kept small: the fuzzer minimizes every input that finds new coverage, and
// on one of several kilobytes that takes most of a short run.
func objectSeeds(t testing.TB) []core.Object {
	rect := geom.NewRect(geom.Pt(0.25, 0.5), geom.Pt(0.5, 0.75))
	enc := refinedBlock(t, rect, 0.2)
	m := mesh.New()
	if err := m.DecodeFrom(bytes.NewReader(enc)); err != nil {
		t.Fatal(err)
	}
	edge := []geom.Point{geom.Pt(0.25, 0.5), geom.Pt(0.25, 0.625), geom.Pt(0.25, 0.75)}
	ptr := func(node, seq int) core.MobilePtr { return core.MobilePtr{Home: core.NodeID(node), Seq: uint32(seq)} }
	return []core.Object{
		&blockObj{Rect: rect, H: 0.2, Beta: math.Sqrt2, Right: ptr(1, 7), Top: ptr(0, 3),
			MeshData: canonical(t, enc), Elements: int32(m.NumTriangles()), Verts: int32(m.NumVertices()),
			IfaceNeeded: 1, Left: edge, Bottom: edge[:2], Pending: [][]byte{append([]byte{1}, encodePoints(edge)...)}},
		&leafObj{Rect: rect, Size: sizeParams{Scale: 0.01, Grading: 2, Center: geom.Pt(0.5, 0.5), DMax: 1}, Beta: math.Sqrt2,
			Idx: 5, Nbs: []leafNb{{Idx: 2, Ptr: ptr(0, 1), Rect: geom.NewRect(geom.Pt(0, 0.5), geom.Pt(0.25, 0.75))}},
			Got:      []leafPortion{testSeedPortion(edge)},
			MeshData: enc, Elements: int32(m.NumTriangles()), Verts: int32(m.NumVertices())},
		&subdomainObj{Rect: rect, MaxArea: 0.001, Beta: math.Sqrt2, Nbs: [4]core.MobilePtr{ptr(0, 2), core.Nil, ptr(1, 4), core.Nil},
			M: m, since: 4},
	}
}

// testSeedPortion is what a finished leaf sends a successor that shares
// its edge on the line x = 0.25.
func testSeedPortion(edge []geom.Point) leafPortion {
	return leafPortion{From: 2, Fixed: []fixedPortion{{A: edge[0], B: edge[2], Pts: edge}}}
}

// encodeObject is o's encoding.
func encodeObject(t testing.TB, o core.Object) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := o.EncodeTo(&buf); err != nil {
		t.Fatalf("%T: EncodeTo: %v", o, err)
	}
	return buf.Bytes()
}

// FuzzObjectDecoders feeds the meshgen object decoders, reached through
// Factory as a reload or migration reaches them, and the decoder of
// ONUPDR's portion message whatever bytes the fuzzer finds, starting from
// each type's encoder output and its first half, and a portion message
// (type ID 0, which no object has) and its first half. A type ID Factory
// does not know must fail with core.ErrUnknownType; a decoder must not
// panic; and an object or a message that decodes without error must
// re-encode to bytes that decode again to one with the same encoding — the
// same object, as far as the wire holds it (NaN among its floats included,
// which no equality on values would call equal).
func FuzzObjectDecoders(f *testing.F) {
	for _, o := range objectSeeds(f) {
		enc := encodeObject(f, o)
		f.Add(o.TypeID(), enc)
		f.Add(o.TypeID(), enc[:len(enc)/2])
	}
	msg := encodePortion(testSeedPortion([]geom.Point{geom.Pt(0.25, 0.5), geom.Pt(0.25, 0.625), geom.Pt(0.25, 0.75)}))
	f.Add(uint16(0), msg)
	f.Add(uint16(0), msg[:len(msg)/2])
	f.Fuzz(func(t *testing.T, typeID uint16, blob []byte) {
		if g, err := decodePortion(blob); err == nil {
			first := encodePortion(g)
			again, err := decodePortion(first)
			if err != nil {
				t.Fatalf("a portion's re-encoding does not decode: %v", err)
			}
			if second := encodePortion(again); !bytes.Equal(second, first) {
				t.Fatalf("decoding a portion's re-encoding gave one that encodes to %d other bytes", len(second))
			}
		}
		o, err := Factory(typeID)
		if err != nil {
			if !errors.Is(err, core.ErrUnknownType) {
				t.Fatalf("Factory(%d): %v, want ErrUnknownType", typeID, err)
			}
			return
		}
		if o.DecodeFrom(bytes.NewReader(blob)) != nil {
			return
		}
		first := encodeObject(t, o)
		again, _ := Factory(typeID)
		if err := again.DecodeFrom(bytes.NewReader(first)); err != nil {
			t.Fatalf("%T: its re-encoding does not decode: %v", o, err)
		}
		if second := encodeObject(t, again); !bytes.Equal(second, first) {
			t.Fatalf("%T: decoding its re-encoding gave an object that encodes to %d other bytes", o, len(second))
		}
	})
}
