package core

import (
	"errors"

	"mrts/internal/obs"
	"mrts/internal/ooc"
	"mrts/internal/swapio"
)

// The swap data path. Residency decisions (what to evict, what to load,
// when) stay here in the control layer; every byte that moves to or from
// disk flows through the swapio scheduler, which serves demand loads ahead
// of eviction writes ahead of prefetches, coalesces duplicate loads of one
// key, and runs serialization on its own I/O workers so compute workers
// never encode or decode inside drain.

// startLoadLocked transitions lo from stOut to stLoading and submits the
// read to the I/O scheduler at the given class. reserved is what admission
// set aside for this load (0 for the loads that bypass it: locks and
// prefetches); it is handed back when the load settles, however it settles.
// Caller holds lo.mu.
func (rt *Runtime) startLoadLocked(lo *localObject, class swapio.Class, reserved int64) {
	if lo.state != stOut {
		rt.adm.release(reserved)
		return
	}
	rt.adm.remove(lo) // whoever starts the load, the object no longer waits for one
	lo.state = stLoading
	rt.swapOps.Add(1)
	sp := rt.tracer.Start(obs.KindSwapLoad, uint64(oid(lo.ptr)))
	ok := rt.io.Load(storeKey(lo.ptr), uint64(oid(lo.ptr)), class, func(blob []byte, err error) {
		defer rt.swapOps.Add(-1)
		rt.finishLoad(lo, sp, blob, err)
		if reserved > 0 {
			rt.adm.release(reserved)
			rt.admitWaiting()
		}
	})
	if !ok {
		// Refused: the scheduler is closed, or the prefetch backlog hit
		// the bound and this was speculative. Revert; a demand will
		// resubmit when a message actually arrives.
		lo.state = stOut
		rt.swapOps.Add(-1)
		rt.adm.release(reserved)
		sp.End(0)
	}
}

// finishLoad completes a load on an I/O worker: it makes room per the hard
// threshold, decodes the blob there (never on a compute worker), and
// reschedules pending work. A load that fails after the storage layer's
// retry budget loses the object: it enters the terminal stLost state, its
// queue is dropped (termination must still fire), and the failure is
// surfaced through the counters and OnSwapError — never silently.
func (rt *Runtime) finishLoad(lo *localObject, sp obs.Span, blob []byte, err error) {
	id := oid(lo.ptr)
	if errors.Is(err, swapio.ErrCanceled) {
		// A superseded prefetch: the object simply stays out of core. A
		// message may have raced in between the cancellation decision and
		// this callback; resume re-issues the load if so.
		sp.End(0)
		lo.mu.Lock()
		if lo.state == stLoading {
			lo.state = stOut
		}
		rt.resume(lo)
		return
	}
	op := SwapLoad
	var obj Object
	if err == nil {
		// Make room before the decoded object re-enters the accounting.
		// Memory pressure supersedes speculation: drop the queued prefetch
		// backlog before evicting victims.
		if need := rt.mem.NeedForAlloc(rt.mem.Size(id)); need > 0 {
			rt.io.CancelPrefetches()
			if !rt.evictVictims(need, lo.ptr, func() int64 {
				return rt.mem.NeedForAlloc(rt.mem.Size(id))
			}) {
				rt.noteEvictStall(rt.mem.NeedForAlloc(rt.mem.Size(id)))
			}
		}
		op = SwapDecode
		obj, err = rt.decodeObject(lo.typeID, blob)
	}
	sp.End(int64(len(blob)))
	if err != nil {
		lo.mu.Lock()
		n := len(lo.queue)
		parked := len(lo.moves)
		lo.queue, lo.moves = nil, nil
		lo.state = stLost
		lo.wantLoad, lo.wantDemand = false, false
		lo.mu.Unlock()
		rt.mem.SetQueueLen(id, 0)
		rt.work.Add(int64(-n - parked))
		rt.tracer.Emit(obs.KindSwapLost, uint64(id), int64(n))
		rt.noteSwapError(SwapError{Ptr: lo.ptr, Op: op, Err: err, Dropped: n, Lost: true})
		return
	}
	lo.mu.Lock()
	lo.obj = obj
	lo.state = stInCore
	// Satisfied; left set it would reload the next eviction at once.
	lo.wantLoad, lo.wantDemand = false, false
	rt.mem.MarkIn(id)
	rt.resume(lo)
}

// tryEvict unloads lo to the storage layer if it can have it for that
// (tryAcquire toEvict). It reports whether the eviction was initiated. A
// clean object — the store already holds its current encoding — is simply
// dropped. For a dirty one serialization is pipelined: the object is committed
// to stStoring here, but the encode and the write both happen on an I/O
// worker.
func (rt *Runtime) tryEvict(lo *localObject) bool {
	id := oid(lo.ptr)
	rt.swapOps.Add(1)
	if rt.closed.Load() {
		rt.swapOps.Add(-1)
		return false
	}
	lo.mu.Lock()
	if rt.tryAcquire(lo, toEvict) != nil {
		lo.mu.Unlock()
		rt.swapOps.Add(-1)
		return false
	}
	obj := lo.obj
	lo.obj = nil
	if lo.clean {
		lo.state = stOut
		lo.mu.Unlock()
		rt.mem.MarkOut(id)
		rt.cleanDrops.Add(1)
		rt.tracer.Start(obs.KindSwapEvict, uint64(id)).End(0)
		rt.swapOps.Add(-1)
		return true
	}
	lo.state = stStoring
	lo.mu.Unlock()

	// The bytes leave the accounting at the commit point, not when the
	// write lands: victim selection must see the effect immediately, or a
	// burst of evictions against a slow disk would over-evict (the residual
	// need would not drop until the queued writes drained). Until it lands
	// they are writeback: let go of by the budget, still held by the process.
	held := rt.mem.Size(id)
	rt.mem.MarkOut(id)
	rt.noteWriteback(held)

	sp := rt.tracer.Start(obs.KindSwapEvict, uint64(id))
	encoded := false
	ok := rt.io.Store(storeKey(lo.ptr), uint64(id),
		func() ([]byte, error) { return encodeObject(obj) },
		func(n int) {
			// Runs on the I/O worker between encode and write; both
			// closures run sequentially there, so the flag needs no lock.
			encoded = true
			rt.mem.SetStoredSize(id, int64(n))
		},
		func(n int, err error) {
			defer rt.swapOps.Add(-1)
			rt.writeback.Add(-held)
			sp.End(int64(n))
			rt.finishEvict(lo, obj, encoded, n, err)
		})
	if !ok {
		// Scheduler closed under us: restore the object untouched.
		lo.mu.Lock()
		lo.obj = obj
		lo.state = stInCore
		rt.mem.MarkIn(id)
		rt.resume(lo)
		rt.writeback.Add(-held)
		sp.End(0)
		rt.swapOps.Add(-1)
		return false
	}
	return true
}

// noteWriteback adds n bytes to the writeback gauge and keeps its peak.
func (rt *Runtime) noteWriteback(n int64) {
	now := rt.writeback.Add(n)
	for {
		peak := rt.writebackPeak.Load()
		if now <= peak || rt.writebackPeak.CompareAndSwap(peak, now) {
			return
		}
	}
}

// finishEvict completes an eviction on an I/O worker after the encode+write
// settle. encoded distinguishes a serialization failure (silent in-core
// restore) from a write failure (counted rollback). n is the serialized
// size; the blob itself already belongs to the store (or the arena).
func (rt *Runtime) finishEvict(lo *localObject, obj Object, encoded bool, n int, err error) {
	id := oid(lo.ptr)
	if err != nil {
		// Restore the in-core copy (we still hold obj via the closure).
		// The restore satisfies any load requested while storing, so
		// wantLoad must be cleared — leaving it set would make the next
		// successful eviction trigger a spurious immediate reload.
		lo.mu.Lock()
		lo.obj = obj
		lo.state = stInCore
		lo.wantLoad, lo.wantDemand = false, false
		rt.mem.MarkIn(id)
		rt.resume(lo)
		if encoded {
			// The write failed after the retry budget: loud rollback.
			rt.tracer.Emit(obs.KindSwapStoreFail, uint64(id), int64(n))
			rt.noteSwapError(SwapError{Ptr: lo.ptr, Op: SwapStore, Err: err})
		}
		return
	}
	lo.mu.Lock()
	lo.state = stOut
	lo.clean = true
	rt.resume(lo)
}

// evictVictims evicts objects until residual reports no remaining need,
// skipping exclude. need seeds the victim selection; the residual need is
// re-read from the live accounting between victims rather than summed from
// the pre-selected sizes — evictions commit their accounting at submission,
// and a failed write returns its bytes in-core, so sizes captured before
// eviction go stale immediately. A second scan re-picks victims in case
// candidates that tryAcquire refused in the first pass have gone idle. It
// reports whether the need was met; callers on the hard path must treat false
// as a loud stall, not silently proceed over budget.
func (rt *Runtime) evictVictims(need int64, exclude MobilePtr, residual func() int64) bool {
	if need <= 0 {
		return true
	}
	pick := need
	for pass := 0; pass < 2; pass++ {
		for _, vid := range rt.mem.PickVictims(pick) {
			if vid == oid(exclude) {
				continue
			}
			lo := rt.findByOID(vid)
			if lo == nil {
				continue
			}
			if rt.tryEvict(lo) && residual() <= 0 {
				return true
			}
		}
		if residual() <= 0 {
			return true
		}
		pick = residual()
	}
	return residual() <= 0
}

// noteEvictStall surfaces a hard-threshold eviction pass that could not
// free the needed bytes: every candidate was busy. The run proceeds over
// budget (the alternative is deadlock), but loudly — counted, traced.
func (rt *Runtime) noteEvictStall(need int64) {
	rt.evictStalls.Add(1)
	rt.tracer.Emit(obs.KindSwapStall, 0, need)
}

// EvictStalls returns how many hard-threshold eviction passes failed to
// free the needed bytes because every victim candidate was busy.
func (rt *Runtime) EvictStalls() uint64 { return rt.evictStalls.Load() }

// maybeEvictForSoft responds to the soft threshold: when free memory drops
// below the configured fraction, the out-of-core layer is "advised" to swap.
// The advice is best-effort; an unmet need here is not a stall.
func (rt *Runtime) maybeEvictForSoft() {
	if need := rt.mem.NeedForSoft(); need > 0 {
		rt.evictVictims(need, Nil, rt.mem.NeedForSoft)
	}
}

// prefetchTick tops up the prefetch pipeline — the out-of-core layer's
// cache population at work. It runs even under memory pressure: the load
// path evicts idle victims to make room, which is exactly the streaming the
// runtime exists to overlap. Queue-depth feedback throttles it: the tick
// only fills the gap between the scheduler's queued prefetches and the
// configured depth, and the scheduler itself refuses speculative loads when
// its backlog saturates. It runs after every object a drain empties, and
// almost always nothing out of core is wanted: that case must cost neither
// the manager's lock nor the scheduler's, so it is tested first.
func (rt *Runtime) prefetchTick() {
	if !rt.mem.PrefetchWanted() || rt.closed.Load() {
		return
	}
	budget := rt.pfDepth - rt.io.QueuedPrefetches()
	if budget <= 0 {
		return
	}
	for _, cand := range rt.mem.SuggestPrefetchRanked(budget) {
		lo := rt.findByOID(cand.ID)
		if lo == nil {
			continue
		}
		lo.mu.Lock()
		if cand.Urgent {
			rt.admitLoadLocked(lo)
		} else {
			rt.startLoadLocked(lo, swapio.Prefetch, 0)
		}
		lo.mu.Unlock()
	}
}

func (rt *Runtime) findByOID(id ooc.ObjectID) *localObject {
	return rt.lookup(MobilePtr{Home: NodeID(int32(uint64(id) >> 32)), Seq: uint32(uint64(id))})
}

// Lock pins the object in core: it will not be selected for eviction until
// Unlock. Locking an out-of-core object also schedules its load at demand
// class. It reports whether the object is local — a false return means the
// pointer lives elsewhere and nothing was pinned;
// callers that require residency must check it.
func (rt *Runtime) Lock(ptr MobilePtr) bool {
	if !rt.IsLocal(ptr) {
		return false
	}
	rt.mem.Lock(oid(ptr))
	rt.wantIn(ptr, true) // the paper's "force loading": at demand class
	return true
}

// Unlock releases a Lock. An unpinned object can be evicted again, which may
// be what a load waiting for admission needs.
func (rt *Runtime) Unlock(ptr MobilePtr) {
	rt.mem.Unlock(oid(ptr))
	rt.admitWaiting()
}

// SetPriority sets the object's swapping priority hint: higher values keep
// the object in core longer. The hint lives in this node's out-of-core
// layer, so a pointer this node does not hold is ignored.
func (rt *Runtime) SetPriority(ptr MobilePtr, pri int) { rt.mem.SetPriority(oid(ptr), pri) }

// Prefetch schedules a speculative load of a local out-of-core object. It
// reports whether the object is local; a false return means the pointer
// lives on another node and no load was scheduled.
func (rt *Runtime) Prefetch(ptr MobilePtr) bool { return rt.wantIn(ptr, false) }

// wantIn records that a local object is wanted in core and lets resume start
// the load, now or when whatever holds the object lets go. A load already on
// its way is enough, except for a demand: a queued prefetch of the key is
// promoted rather than duplicated, and if the load is no longer the
// scheduler's — read and about to install, or a prefetch that memory
// pressure just cancelled, with nothing queued on the object to make the
// cancellation path load it again — it is asked for once more.
func (rt *Runtime) wantIn(ptr MobilePtr, demand bool) bool {
	lo := rt.lookup(ptr)
	if lo == nil {
		return false
	}
	lo.mu.Lock()
	switch lo.state {
	case stOut, stStoring:
		lo.wantLoad, lo.wantDemand = true, lo.wantDemand || demand
	case stLoading:
		if demand && !rt.io.Promote(storeKey(ptr)) {
			lo.wantLoad, lo.wantDemand = true, true
		}
	}
	rt.resume(lo)
	return true
}

// InCore reports whether the object is local and resident in memory.
func (rt *Runtime) InCore(ptr MobilePtr) bool {
	lo := rt.lookup(ptr)
	if lo == nil {
		return false
	}
	lo.mu.Lock()
	defer lo.mu.Unlock()
	return lo.state == stInCore
}

// IsLocal reports whether the object currently lives on this node.
func (rt *Runtime) IsLocal(ptr MobilePtr) bool {
	return rt.lookup(ptr) != nil
}

// NumLocalObjects returns the number of mobile objects on this node.
func (rt *Runtime) NumLocalObjects() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.objects)
}

// LocalObjects returns the mobile pointers of all objects on this node.
func (rt *Runtime) LocalObjects() []MobilePtr {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]MobilePtr, 0, len(rt.objects))
	for p := range rt.objects {
		out = append(out, p)
	}
	return out
}
