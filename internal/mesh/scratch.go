package mesh

import (
	"sync"

	"mrts/internal/geom"
)

// bedge is one edge (a, b) of a cavity's boundary, counter-clockwise as seen
// from inside, with the triangle beyond it, the index of the edge there that
// links back into the cavity (-1 if none) and whether it is constrained.
type bedge struct {
	a, b        VertexID
	out         TriID
	back        int8
	constrained bool
}

// scratch is the working storage of the operations that mutate a mesh. A
// mesh takes one from scratchPool on its first mutation and keeps it until
// ReleaseScratch, so a burst of insertions allocates nothing and a mesh at
// rest carries none. Nothing in it identifies the mesh: the marks compare
// against the scratch's own epoch, which only ever grows.
type scratch struct {
	mark  []uint32 // mark[t] == epoch: slot t is in the set being grown
	epoch uint32

	// The cavity GrowCavity found and CommitCavity consumes.
	p              geom.Point
	cavity         []TriID // in discovery order
	boundary       []bedge // in cavity order, edge index 0→2 within a triangle
	segs           [][2]VertexID
	splitA, splitB VertexID // the constrained edge p splits, or NoVertex

	stack, created []TriID

	// ends[v].epoch == epoch: v is on the boundary CommitCavity is wiring.
	ends []boundaryEnds
}

// boundaryEnds is, for one vertex, the index in scratch.boundary of the last
// edge that starts there and of the last that ends there, or -1.
type boundaryEnds struct {
	epoch      uint32
	from, into int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// extended returns s lengthened with zero values to at least n elements.
func extended[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// begin starts a new marked set over n triangle slots.
func (s *scratch) begin(n int) {
	s.mark = extended(s.mark, n)
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps of 2³² sets ago would read as current
		clear(s.mark)
		clear(s.ends)
		s.epoch = 1
	}
}

// end returns the boundary record of vertex v in the current set, fresh if
// this is the set's first look at v. ends must cover v.
func (s *scratch) end(v VertexID) *boundaryEnds {
	e := &s.ends[v]
	if e.epoch != s.epoch {
		*e = boundaryEnds{epoch: s.epoch, from: -1, into: -1}
	}
	return e
}

func (m *Mesh) scratch() *scratch {
	if m.scr == nil {
		m.scr = scratchPool.Get().(*scratch)
	}
	return m.scr
}

// ReleaseScratch hands the mesh's working storage back for other meshes to
// use. Callers that mutate a mesh in bursts (BuildCDT, Refine) call it at the
// end of one, so that resident meshes carry no per-triangle scratch. It
// invalidates a cavity grown but not committed.
func (m *Mesh) ReleaseScratch() {
	if m.scr != nil {
		scratchPool.Put(m.scr)
		m.scr = nil
	}
}
