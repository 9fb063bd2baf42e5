package core

import (
	"sync"
	"sync/atomic"

	"mrts/internal/swapio"
)

// Admission of demand loads. A message to an out-of-core object makes the
// object a demand load, and a phase kick makes every out-of-core object one
// at once. Loaded objects with a message queued cannot be evicted until a
// worker has run them, so loads that outrun the workers pile up in core past
// the budget. Admission paces them by the budget instead: a load caused by a
// queued message starts only if the object fits once every idle resident is
// evicted — what is pinned in core (ooc.Manager.Admits), plus what admitted
// loads still in flight will bring in, plus the object itself, stays inside
// the allocation limit. Otherwise the object waits here, in arrival order,
// and its messages wait on its own queue where termination already counts
// them.
//
// The size admission budgets by is the manager's accounted size of the object
// (ooc.Manager.Size): the number finishLoad makes room for and MarkIn adds to
// the bytes in core. It is the encoded size after an eviction that wrote, and
// the last SizeHint after a clean drop; either way it is what the load will
// be charged, which is the quantity the budget is kept in.
//
// Waiters are admitted when pinned memory shrinks (a drain empties an object,
// an object is unlocked) and when an admitted load settles. An object only
// ever waits behind one of those events: a load in flight will settle, and a
// resident with messages queued will drain. When neither is left — what pins
// the memory is locked, and nobody has promised to unlock it — the head of
// the queue is admitted whether it fits or not. That one load may find
// nothing to evict and stall loudly (noteEvictStall), which beats waiting for
// room nothing will make. Locks and multicast collections load at once, as
// before: they pin what they load, and delaying a pin does not make it
// smaller.

// admission is the per-runtime admission state.
type admission struct {
	waiters  atomic.Int32  // len(fifo): the lock-free "nobody waits" test
	deferred atomic.Uint64 // loads that had to wait, ever

	mu       sync.Mutex
	fifo     []*localObject
	reserved int64 // accounted bytes of the admitted loads still in flight
}

// fitsLocked reports whether a load of size bytes may start now: it fits, or
// no admitted load is in flight and no resident is about to drain, so that
// nothing would ever admit it. Caller holds a.mu.
func (rt *Runtime) fitsLocked(size int64) bool {
	a := &rt.adm
	fits, wait := rt.mem.Admits(a.reserved + size)
	return fits || (a.reserved == 0 && !wait)
}

// admitLoadLocked is how a queued message asks for its stOut object: the
// load starts at demand class if it is admitted, and the object joins the
// waiters if not. With nothing queued on lo there is nothing to ask for: a
// caller going by the manager's view of the queue (prefetchTick) may be a
// moment behind it. Caller holds lo.mu.
func (rt *Runtime) admitLoadLocked(lo *localObject) {
	if lo.state != stOut || lo.admitWait || len(lo.queue) == 0 {
		return
	}
	a := &rt.adm
	size := rt.mem.Size(oid(lo.ptr))
	a.mu.Lock()
	if len(a.fifo) == 0 && rt.fitsLocked(size) {
		a.reserved += size
		a.mu.Unlock()
		rt.startLoadLocked(lo, swapio.Demand, size)
		return
	}
	a.fifo = append(a.fifo, lo)
	a.waiters.Store(int32(len(a.fifo)))
	a.mu.Unlock()
	lo.admitWait = true
	a.deferred.Add(1)
}

// admitWaiting starts the loads at the head of the queue that fit by now.
// It must be called with no object lock held.
func (rt *Runtime) admitWaiting() {
	a := &rt.adm
	for a.waiters.Load() > 0 {
		a.mu.Lock()
		if len(a.fifo) == 0 {
			a.mu.Unlock()
			return
		}
		lo := a.fifo[0]
		size := rt.mem.Size(oid(lo.ptr))
		if !rt.fitsLocked(size) {
			a.mu.Unlock()
			return
		}
		a.fifo[0] = nil
		a.fifo = a.fifo[1:]
		a.waiters.Store(int32(len(a.fifo)))
		a.reserved += size
		a.mu.Unlock()

		lo.mu.Lock()
		if lo.admitWait {
			lo.admitWait = false
			rt.startLoadLocked(lo, swapio.Demand, size)
		} else {
			// Taken off the list by remove between the pop and here.
			a.release(size)
		}
		lo.mu.Unlock()
	}
}

// remove takes lo off the waiters, if it is one: something else started its
// load, or it is leaving the node (migration, destruction). Caller holds
// lo.mu.
func (a *admission) remove(lo *localObject) {
	if !lo.admitWait {
		return
	}
	lo.admitWait = false
	a.mu.Lock()
	for i, w := range a.fifo {
		if w == lo {
			copy(a.fifo[i:], a.fifo[i+1:])
			a.fifo[len(a.fifo)-1] = nil
			a.fifo = a.fifo[:len(a.fifo)-1]
			a.waiters.Store(int32(len(a.fifo)))
			break
		}
	}
	a.mu.Unlock()
}

// release hands a settled load's reservation back.
func (a *admission) release(size int64) {
	if size == 0 {
		return
	}
	a.mu.Lock()
	a.reserved -= size
	a.mu.Unlock()
}
