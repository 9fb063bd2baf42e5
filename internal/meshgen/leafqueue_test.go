package meshgen

import (
	"math/rand"
	"reflect"
	"testing"

	"mrts/internal/geom"
	"mrts/internal/workload"
)

// oldDispatcher is RunNUPDR's master loop as it stood before leafQueue: a
// busy map rebuilt over every leaf on each finish, with a linear search of
// the pending list to tell an in-flight leaf. It is the oracle of
// TestLeafQueueMatchesOldDispatcher.
type oldDispatcher struct {
	rects    []geom.Rect
	nbs      [][]int
	done     []bool
	bounds   [][]geom.Point
	pending  []int
	busy     map[int]bool
	inflight int
	max      int
}

func newOldDispatcher(q *leafQueue) *oldDispatcher {
	n := len(q.Leaves)
	d := &oldDispatcher{
		nbs:    make([][]int, n),
		done:   make([]bool, n),
		bounds: make([][]geom.Point, n),
		busy:   make(map[int]bool),
		max:    int(q.MaxInflight),
	}
	for i, l := range q.Leaves {
		d.rects = append(d.rects, l.Rect)
		for _, nb := range l.Nbs {
			d.nbs[i] = append(d.nbs[i], int(nb))
		}
		d.pending = append(d.pending, i)
	}
	return d
}

// dispatch is one pass of the old inner loop: the first pending leaf whose
// region is free, with the fixed portions of its finished neighbours.
func (d *oldDispatcher) dispatch() (int, []fixedPortion, bool) {
	if d.inflight >= d.max {
		return 0, nil, false
	}
	for pi, li := range d.pending {
		if li < 0 {
			continue
		}
		conflict := d.busy[li]
		for _, nb := range d.nbs[li] {
			if d.busy[nb] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		var fixed []fixedPortion
		for _, nb := range d.nbs[li] {
			if !d.done[nb] {
				continue
			}
			a, b, ok := sharedEdge(d.rects[li], d.rects[nb])
			if !ok {
				continue
			}
			fixed = append(fixed, fixedPortion{A: a, B: b, Pts: edgePointsOn(d.bounds[nb], a, b)})
		}
		d.busy[li] = true
		for _, nb := range d.nbs[li] {
			d.busy[nb] = true
		}
		d.pending[pi] = -1
		d.inflight++
		return li, fixed, true
	}
	return 0, nil, false
}

func (d *oldDispatcher) finish(idx int, boundary []geom.Point) {
	d.inflight--
	d.done[idx] = true
	d.bounds[idx] = boundary
	d.busy = make(map[int]bool)
	for i := range d.done {
		if !d.done[i] && !d.isPending(i) { // i is in flight
			d.busy[i] = true
			for _, nb := range d.nbs[i] {
				d.busy[nb] = true
			}
		}
	}
}

func (d *oldDispatcher) isPending(i int) bool {
	for _, x := range d.pending {
		if x == i {
			return true
		}
	}
	return false
}

// checkQueue compares q's busy counts with a recount from the in-flight
// flags and with the old dispatcher's map, and checks that no two in-flight
// leaves are neighbours or share a neighbour.
func checkQueue(t *testing.T, q *leafQueue, old *oldDispatcher) {
	t.Helper()
	count := make([]int32, len(q.Leaves))
	var flying []int32
	for i, l := range q.Leaves {
		if l.InFlight {
			flying = append(flying, int32(i))
			count[i]++
			for _, nb := range l.Nbs {
				count[nb]++
			}
		}
	}
	if !reflect.DeepEqual(count, q.busy) {
		t.Fatalf("busy counts %v, recount %v", q.busy, count)
	}
	if int(q.Inflight) != len(flying) || q.Inflight > q.MaxInflight {
		t.Fatalf("Inflight %d, %d leaves in flight, cap %d", q.Inflight, len(flying), q.MaxInflight)
	}
	for i := range q.Leaves {
		if (q.busy[i] > 0) != old.busy[i] {
			t.Fatalf("leaf %d busy %d, old map says %v", i, q.busy[i], old.busy[i])
		}
	}
	for x, a := range flying {
		for _, b := range flying[x+1:] {
			region := map[int32]bool{a: true}
			for _, nb := range q.Leaves[a].Nbs {
				region[nb] = true
			}
			if region[b] {
				t.Fatalf("in-flight leaves %d and %d are neighbours", a, b)
			}
			for _, nb := range q.Leaves[b].Nbs {
				if region[nb] {
					t.Fatalf("in-flight leaves %d and %d share neighbour %d", a, b, nb)
				}
			}
		}
	}
}

// On random leaf trees, random in-flight caps and random finish orders,
// leafQueue dispatches what the old master loop dispatched, with the same
// fixed portions, and its busy counts always match a recount.
func TestLeafQueueMatchesOldDispatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	domain := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	for trial := 0; trial < 25; trial++ {
		sp := gradedSizeFor(domain, 2+8*rng.Float64(), 2000+rng.Intn(40000))
		size := sp.At
		q := newLeafQueue(buildLeafTree(domain, size, 300+rng.Intn(1700)), 1+rng.Intn(6))
		old := newOldDispatcher(&q)
		checkQueue(t, &q, old)
		fixedOf := make(map[int32][]fixedPortion)
		var flying []int32
		for done := 0; done < len(q.Leaves); done++ {
			for {
				li, fixed, ok := q.next()
				oli, ofixed, ook := old.dispatch()
				if ok != ook || (ok && (int(li) != oli || !reflect.DeepEqual(fixed, ofixed))) {
					t.Fatalf("trial %d: dispatched (%d, %v, %v), old loop (%d, %v, %v)", trial, li, fixed, ok, oli, ofixed, ook)
				}
				if !ok {
					break
				}
				fixedOf[li] = fixed
				flying = append(flying, li)
				checkQueue(t, &q, old)
			}
			if len(flying) == 0 {
				t.Fatalf("trial %d: nothing in flight with %d leaves pending", trial, len(q.Pending))
			}
			k := rng.Intn(len(flying))
			li := flying[k]
			flying = append(flying[:k], flying[k+1:]...)
			boundary := assembleLeafBoundary(q.Leaves[li].Rect, size, fixedOf[li])
			if err := q.finish(li, boundary); err != nil {
				t.Fatal(err)
			}
			old.finish(int(li), boundary)
			checkQueue(t, &q, old)
		}
		if len(q.Pending) != 0 || q.Inflight != 0 {
			t.Fatalf("trial %d: %d pending, %d in flight at the end", trial, len(q.Pending), q.Inflight)
		}
		if !q.conforming() {
			t.Fatalf("trial %d: boundaries assembled from the fixed portions do not conform", trial)
		}
	}
}

// A leaf that is not in flight cannot finish: the queue would release a
// region it never marked.
func TestLeafQueueFinishRejectsIdleLeaf(t *testing.T) {
	domain := geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))
	q := newLeafQueue(buildLeafTree(domain, workload.SizeFunc(func(geom.Point) float64 { return 0.05 }), 500), 2)
	for _, idx := range []int32{-1, 0, int32(len(q.Leaves))} {
		if err := q.finish(idx, nil); err == nil {
			t.Errorf("finish(%d) on an idle queue accepted", idx)
		}
	}
	li, _, ok := q.next()
	if !ok {
		t.Fatal("nothing dispatched")
	}
	if err := q.finish(li, nil); err != nil {
		t.Fatal(err)
	}
	if err := q.finish(li, nil); err == nil {
		t.Error("a leaf finished twice")
	}
}
