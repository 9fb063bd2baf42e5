package quadtree

import (
	"math"
	"testing"
	"testing/quick"

	"mrts/internal/geom"
)

func unitTree() *Tree {
	return New(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
}

// leafAt returns a leaf whose rectangle contains p, or NoNode.
func leafAt(tr *Tree, p geom.Point) NodeID {
	for _, leaf := range tr.Leaves() {
		if tr.Bounds(leaf).Contains(p) {
			return leaf
		}
	}
	return NoNode
}

func TestNewAndRoot(t *testing.T) {
	tr := unitTree()
	if len(tr.nodes) != 1 || tr.NumLeaves() != 1 {
		t.Fatalf("nodes=%d leaves=%d", len(tr.nodes), tr.NumLeaves())
	}
	if !tr.nodes[0].isLeaf() {
		t.Fatal("root should start as a leaf")
	}
	if tr.nodes[0].depth != 0 {
		t.Fatal("root depth should be 0")
	}
	if tr.nodes[0].parent != NoNode {
		t.Fatal("root has no parent")
	}
}

func TestSplitGeometry(t *testing.T) {
	tr := unitTree()
	kids := tr.Split(0)
	if tr.NumLeaves() != 4 || len(tr.nodes) != 5 {
		t.Fatalf("after split: leaves=%d nodes=%d", tr.NumLeaves(), len(tr.nodes))
	}
	if tr.nodes[0].isLeaf() {
		t.Fatal("root should no longer be a leaf")
	}
	wants := [4]geom.Rect{
		geom.NewRect(geom.Pt(0, 0), geom.Pt(0.5, 0.5)),
		geom.NewRect(geom.Pt(0.5, 0), geom.Pt(1, 0.5)),
		geom.NewRect(geom.Pt(0, 0.5), geom.Pt(0.5, 1)),
		geom.NewRect(geom.Pt(0.5, 0.5), geom.Pt(1, 1)),
	}
	for i, k := range kids {
		if got := tr.Bounds(k); got != wants[i] {
			t.Errorf("quadrant %d bounds = %+v, want %+v", i, got, wants[i])
		}
		if tr.nodes[k].depth != 1 {
			t.Errorf("child depth = %d", tr.nodes[k].depth)
		}
		if tr.nodes[k].parent != 0 {
			t.Errorf("child parent wrong")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("splitting a non-leaf should panic")
		}
	}()
	tr.Split(0)
}

func TestNeighbors(t *testing.T) {
	tr := unitTree()
	kids := tr.Split(0)
	// All four quadrants touch each other (corner at the center).
	for _, k := range kids {
		nbs := tr.Neighbors(k)
		if len(nbs) != 3 {
			t.Fatalf("quadrant %d: %d neighbors, want 3", k, len(nbs))
		}
		for _, nb := range nbs {
			if nb == k {
				t.Fatal("leaf listed as its own neighbor")
			}
		}
	}
	// Split SW further: NE of that sub-split touches all original quadrants.
	sub := tr.Split(kids[SW])
	nbs := tr.Neighbors(sub[NE])
	if len(nbs) != 6 {
		t.Fatalf("inner corner leaf: %d neighbors, want 6", len(nbs))
	}
}

func TestRefineToSize(t *testing.T) {
	tr := unitTree()
	splits := tr.RefineToSize(func(p geom.Point) float64 {
		// Fine near origin.
		return 0.05 + 0.4*math.Hypot(p.X, p.Y)
	}, 0)
	if splits == 0 {
		t.Fatal("expected splits")
	}
	for _, leaf := range tr.Leaves() {
		b := tr.Bounds(leaf)
		h := 0.05 + 0.4*math.Hypot(b.Center().X, b.Center().Y)
		if b.W() > h || b.H() > h {
			t.Errorf("leaf %d (%v) exceeds size %v", leaf, b, h)
		}
	}
	// Leaves near origin must be deeper than leaves far away.
	dNear := tr.nodes[leafAt(tr, geom.Pt(0.01, 0.01))].depth
	dFar := tr.nodes[leafAt(tr, geom.Pt(0.99, 0.99))].depth
	if dNear <= dFar {
		t.Errorf("expected gradation: near depth %d, far depth %d", dNear, dFar)
	}
}

func TestBalance(t *testing.T) {
	tr := unitTree()
	// Split SW corner repeatedly to create a sharp depth gradient.
	n := NodeID(0)
	for i := 0; i < 6; i++ {
		kids := tr.Split(n)
		n = kids[SW]
	}
	tr.Balance()
	for _, leaf := range tr.Leaves() {
		for _, nb := range tr.Neighbors(leaf) {
			if d := tr.nodes[nb].depth - tr.nodes[leaf].depth; d > 1 || d < -1 {
				t.Fatalf("2:1 balance violated: leaf depth %d vs neighbor depth %d",
					tr.nodes[leaf].depth, tr.nodes[nb].depth)
			}
		}
	}
}

func TestLeavesPartition(t *testing.T) {
	// Leaves always tile the root: areas sum to the root area and every
	// interior point lies in a leaf.
	tr := unitTree()
	tr.RefineToSize(func(p geom.Point) float64 { return 0.07 + 0.3*p.X }, 0)
	var area float64
	for _, leaf := range tr.Leaves() {
		b := tr.Bounds(leaf)
		area += b.W() * b.H()
	}
	if math.Abs(area-1) > 1e-12 {
		t.Errorf("leaf areas sum to %v, want 1", area)
	}
	f := func(x, y float64) bool {
		p := geom.Pt(math.Abs(math.Mod(x, 1)), math.Abs(math.Mod(y, 1)))
		return leafAt(tr, p) != NoNode
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
