// Package quadtree provides the adaptive quad-tree used by the non-uniform
// parallel Delaunay refinement method (NUPDR): the domain is covered by
// leaves whose sizes adapt to a local sizing function, each leaf owning the
// portion of the mesh it encloses. Neighbor queries supply the buffer zones
// (BUF) that must be co-located with a leaf during refinement.
package quadtree

import (
	"fmt"
	"math"

	"mrts/internal/geom"
)

// NodeID identifies a node of the tree. The root is always 0.
type NodeID int32

// NoNode is the nil node ID.
const NoNode NodeID = -1

type node struct {
	bounds geom.Rect
	parent NodeID
	child  [4]NodeID // all NoNode for a leaf
	depth  int32
}

func (n *node) isLeaf() bool { return n.child[0] == NoNode }

// Tree is an adaptive quad-tree over a rectangular domain. The zero value is
// not usable; call New.
type Tree struct {
	nodes   []node
	nLeaves int
}

// New returns a tree with a single leaf covering bounds.
func New(bounds geom.Rect) *Tree {
	t := &Tree{}
	t.nodes = append(t.nodes, node{
		bounds: bounds,
		parent: NoNode,
		child:  [4]NodeID{NoNode, NoNode, NoNode, NoNode},
	})
	t.nLeaves = 1
	return t
}

// Bounds returns the rectangle covered by n.
func (t *Tree) Bounds(n NodeID) geom.Rect { return t.nodes[n].bounds }

// Split subdivides leaf n into four quadrant children and returns them in
// SW, SE, NW, NE order. Split panics if n is not a leaf.
func (t *Tree) Split(n NodeID) [4]NodeID {
	if !t.nodes[n].isLeaf() {
		panic(fmt.Sprintf("quadtree: Split of non-leaf %d", n))
	}
	b := t.nodes[n].bounds
	c := b.Center()
	quads := [4]geom.Rect{
		{Min: b.Min, Max: c}, // SW
		{Min: geom.Pt(c.X, b.Min.Y), Max: geom.Pt(b.Max.X, c.Y)}, // SE
		{Min: geom.Pt(b.Min.X, c.Y), Max: geom.Pt(c.X, b.Max.Y)}, // NW
		{Min: c, Max: b.Max}, // NE
	}
	var kids [4]NodeID
	depth := t.nodes[n].depth + 1
	for i := 0; i < 4; i++ {
		id := NodeID(len(t.nodes))
		t.nodes = append(t.nodes, node{
			bounds: quads[i],
			parent: n,
			child:  [4]NodeID{NoNode, NoNode, NoNode, NoNode},
			depth:  depth,
		})
		kids[i] = id
	}
	t.nodes[n].child = kids
	t.nLeaves += 3 // one leaf became four
	return kids
}

// Leaves returns the IDs of all leaves.
func (t *Tree) Leaves() []NodeID {
	out := make([]NodeID, 0, t.nLeaves)
	for i := range t.nodes {
		if t.nodes[i].isLeaf() {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Neighbors returns the leaves adjacent to leaf n: every other leaf whose
// rectangle touches n's rectangle (sharing an edge or a corner). This is the
// buffer zone BUF of the NUPDR method.
func (t *Tree) Neighbors(n NodeID) []NodeID {
	target := t.nodes[n].bounds
	var out []NodeID
	var walk func(NodeID)
	walk = func(m NodeID) {
		if !t.nodes[m].bounds.Intersects(target) {
			return
		}
		if t.nodes[m].isLeaf() {
			if m != n {
				out = append(out, m)
			}
			return
		}
		for _, c := range t.nodes[m].child {
			walk(c)
		}
	}
	walk(0)
	return out
}

// RefineToSize splits leaves until every leaf's width and height are at most
// size(center of leaf). maxDepth bounds the subdivision (0 means 30).
// It returns the number of splits performed.
func (t *Tree) RefineToSize(size func(geom.Point) float64, maxDepth int) int {
	if maxDepth <= 0 {
		maxDepth = 30
	}
	splits := 0
	stack := t.Leaves()
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := t.nodes[n].bounds
		h := size(b.Center())
		if h <= 0 || math.IsNaN(h) {
			continue
		}
		if (b.W() > h || b.H() > h) && int(t.nodes[n].depth) < maxDepth {
			kids := t.Split(n)
			stack = append(stack, kids[0], kids[1], kids[2], kids[3])
			splits++
		}
	}
	return splits
}

// Balance enforces the 2:1 rule: adjacent leaves differ by at most one level.
// NUPDR's quad-tree construction maintains this so that buffer zones stay
// bounded. Returns the number of extra splits.
func (t *Tree) Balance() int {
	splits := 0
	for {
		var toSplit []NodeID
		for _, leaf := range t.Leaves() {
			for _, nb := range t.Neighbors(leaf) {
				if t.nodes[nb].depth > t.nodes[leaf].depth+1 {
					toSplit = append(toSplit, leaf)
					break
				}
			}
		}
		if len(toSplit) == 0 {
			return splits
		}
		for _, n := range toSplit {
			if t.nodes[n].isLeaf() {
				t.Split(n)
				splits++
			}
		}
	}
}
