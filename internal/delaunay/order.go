package delaunay

import (
	"slices"
	"sync"

	"mrts/internal/geom"
)

// BuildCDT inserts a PSLG's points coarse to fine. A block's or a leaf's
// boundary is a few corners joined by long straight runs of evenly spaced
// points, and inserting such a run in walk order keeps each new point
// cocircular with the last few, which defeats the in-circle filter and
// rebuilds the same thin fan again and again. Bisection inserts every run
// as a refinement of what is already there: each new point splits the edge
// between two inserted neighbours.
//
// The order:
//   - first the anchors, in index order: every point where the segment chain
//     does not run straight through — on no segment or on one, on three or
//     more (a branch), or on two that turn or fold back (a corner);
//   - then the points of every straight run between two anchors by interval
//     bisection, one level at a time across all runs: each run's middle
//     point (the upper one of two), then the middle of each half, and so on.
//     The intervals of a level are bisected in the order they were made,
//     except at every odd level, which takes them in reverse.
//
// A run is met first through its lowest-indexed point, so the order, like
// the mesh, is a function of the PSLG alone. A closed chain with no anchor
// at all (a polygon has corners, so only a degenerate input) is anchored at
// its lowest-indexed point.
//
// The tie-breaks (upper middle, walk direction, runs in the order met, odd
// levels reversed) pick one of many equally valid orders, which differ in
// the initial CDT's numbering and cocircular ties, and so in element
// counts, by as much as 2.6 % on a small mesh. This one keeps every golden
// and traced probe within the count bound of DESIGN.md "When a mesh may
// change", which most of them do not.
//
// Each point also names the inserted point its walk should start from: the
// previous anchor for an anchor, and the lower end of its interval for a run
// point, which is its neighbour along the chain.

// orderScratch is the per-call storage of insertionOrder, pooled: sized by
// the PSLG, allocated once per pool entry, never per point.
type orderScratch struct {
	deg   []uint8    // segments at each point, saturating at 3; 2 only on a run
	nb    [][2]int32 // the first two neighbours of each point
	seen  []bool     // a run point already placed in chain
	chain []int32    // every run as anchor, its points in chain order, anchor
	spans [][2]int32 // the bisection queue, level after level: open intervals of chain
	order []step
}

// step is one insertion: point pt, walking from where point from went in
// (-1: from where the previous insertion went in).
type step struct{ pt, from int32 }

var orderPool = sync.Pool{New: func() any { return new(orderScratch) }}

// grow returns s resized to n, reusing its storage.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// insertionOrder fills s.order with BuildCDT's insertion order for p (see
// above). p must be valid.
func insertionOrder(p *PSLG, s *orderScratch) {
	n := len(p.Points)
	s.deg = grow(s.deg, n)
	s.nb = grow(s.nb, n)
	s.seen = grow(s.seen, n)
	clear(s.deg)
	clear(s.seen)
	s.chain, s.spans, s.order = s.chain[:0], s.spans[:0], s.order[:0]
	for _, seg := range p.Segments {
		for k, v := range seg {
			if d := s.deg[v]; d < 2 {
				s.nb[v][d] = int32(seg[1-k])
			}
			s.deg[v] = min(s.deg[v]+1, 3)
		}
	}
	for i := range n {
		if s.deg[i] == 2 && !s.straight(p, i) {
			s.deg[i] = 3 // a corner is an anchor
		}
		if s.deg[i] != 2 {
			s.order = append(s.order, step{int32(i), -1})
		}
	}
	for i := range n {
		if s.seen[i] || s.deg[i] != 2 {
			continue
		}
		// Walk from i to the run's first anchor, then back across the run
		// to its other one.
		prev, cur := int32(i), s.nb[i][0]
		for s.deg[cur] == 2 && cur != int32(i) {
			prev, cur = cur, s.other(cur, prev)
		}
		a := cur
		if a == int32(i) { // a closed chain without an anchor
			s.order = append(s.order, step{a, -1})
			s.seen[a] = true
			prev = s.nb[a][1]
		}
		lo := int32(len(s.chain))
		s.chain = append(s.chain, a)
		for cur, prev = prev, a; ; prev, cur = cur, s.other(cur, prev) {
			s.chain = append(s.chain, cur)
			if s.deg[cur] != 2 || s.seen[cur] {
				break
			}
			s.seen[cur] = true
		}
		s.spans = append(s.spans, [2]int32{lo, int32(len(s.chain)) - 1})
	}
	for first, odd := 0, false; first < len(s.spans); odd = !odd {
		level := s.spans[first:]
		first = len(s.spans)
		if odd {
			slices.Reverse(level)
		}
		for _, sp := range level {
			lo, hi := sp[0], sp[1]
			if hi-lo < 2 {
				continue
			}
			mid := lo + (hi-lo+1)/2
			s.order = append(s.order, step{s.chain[mid], s.chain[lo]})
			s.spans = append(s.spans, [2]int32{lo, mid}, [2]int32{mid, hi})
		}
	}
}

// other returns the neighbour of run point v that is not prev.
func (s *orderScratch) other(v, prev int32) int32 {
	if s.nb[v][0] == prev {
		return s.nb[v][1]
	}
	return s.nb[v][0]
}

// straight reports whether the chain runs straight through point i, which
// is on exactly two segments: their far ends lie on one line with it, on
// opposite sides.
func (s *orderScratch) straight(p *PSLG, i int) bool {
	a, b, c := p.Points[s.nb[i][0]], p.Points[i], p.Points[s.nb[i][1]]
	return geom.Orient2D(a, b, c) == geom.Zero && a.Sub(b).Dot(c.Sub(b)) < 0
}
