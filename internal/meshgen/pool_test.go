package meshgen

import (
	"bytes"
	"runtime"
	"testing"

	"mrts/internal/delaunay"
)

// TestMeshPoolChangesNoResult: an OUPDR block and an ONUPDR leaf meshed on
// the storage of a larger, recycled mesh — one whose carving killed
// triangles, so its arrays hold dead slots, stale records and a free list —
// encode byte for byte as when meshed with nothing in the pool.
func TestMeshPoolChangesNoResult(t *testing.T) {
	block := func() []byte {
		bm, err := meshBlock(blockRect(4, 1, 2), 0.01, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := bm.mesh.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		bm.mesh.Recycle()
		return append(buf.Bytes(), encodePoints(bm.hull)...)
	}
	leaf := func() []byte {
		o := testLeaf()
		if _, err := o.receive(encodePortion(testPortion())); err != nil {
			t.Fatal(err)
		}
		cycle, _, err := o.refine(nil)
		if err != nil {
			t.Fatal(err)
		}
		return append(o.MeshData, encodePoints(cycle)...)
	}
	emptyPool := func() { // twice: the pool keeps a victim generation
		runtime.GC()
		runtime.GC()
	}
	// The CDT of a finely divided square, carved: its exterior triangles
	// are dead slots on the free list.
	fillPool := func() {
		pts := boundaryPoints(blockRect(1, 0, 0), 0.002)
		p := &delaunay.PSLG{Points: pts}
		for i := range pts {
			p.Segments = append(p.Segments, [2]int{i, (i + 1) % len(pts)})
		}
		m, _, err := delaunay.BuildCDT(p)
		if err != nil {
			t.Fatal(err)
		}
		m.Recycle()
	}

	emptyPool()
	wantBlock := block()
	emptyPool()
	wantLeaf := leaf()
	for i := 0; i < 3; i++ {
		fillPool()
		if got := block(); !bytes.Equal(got, wantBlock) {
			t.Fatalf("round %d: block on recycled storage encodes differently (%d vs %d bytes)", i, len(got), len(wantBlock))
		}
		fillPool()
		if got := leaf(); !bytes.Equal(got, wantLeaf) {
			t.Fatalf("round %d: leaf on recycled storage encodes differently (%d vs %d bytes)", i, len(got), len(wantLeaf))
		}
	}
}
