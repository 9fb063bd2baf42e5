package core

// DestroyObject permanently removes an idle local mobile object: its memory
// accounting is unregistered, its on-disk blob is deleted (swapped blobs
// must not outlive their objects — long runs would leak disk up to the
// total ever-evicted footprint), and the local record becomes a terminal
// tombstone so late messages are dropped with correct termination
// accounting instead of parking forever.
//
// It returns ErrNotLocal if the object is not here, ErrBusy if anything holds
// it or it has work pending (tryAcquire toTake in own.go; retry after
// quiescence), and ErrObjectLost if it was already lost.
func (rt *Runtime) DestroyObject(ptr MobilePtr) error {
	lo := rt.lookup(ptr)
	if lo == nil {
		return ErrNotLocal
	}
	lo.mu.Lock()
	if err := rt.tryAcquire(lo, toTake); err != nil {
		lo.mu.Unlock()
		return err
	}
	n := len(lo.queue)
	lo.queue = nil
	lo.obj = nil
	lo.state = stLost
	rt.adm.remove(lo)
	lo.mu.Unlock()

	rt.work.Add(int64(-n))
	rt.mem.Unregister(oid(ptr))
	rt.io.Delete(storeKey(ptr))
	// A multicast waiting on this object can never complete; cancel it
	// rather than wedge.
	rt.mcasts.objectLost(rt, ptr)
	return nil
}
