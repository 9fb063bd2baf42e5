package core

// DestroyObject permanently removes an idle local mobile object: its memory
// accounting is unregistered, its on-disk blob is deleted (swapped blobs
// must not outlive their objects — long runs would leak disk up to the
// total ever-evicted footprint), and the local record becomes a terminal
// tombstone so late messages are dropped with correct termination
// accounting instead of parking forever.
//
// It returns ErrNotLocal if the object is not here, ErrBusy if a handler is
// running, scheduled, or the object is mid-swap or mid-migration (retry
// after quiescence), and ErrObjectLost if it was already lost.
func (rt *Runtime) DestroyObject(ptr MobilePtr) error {
	rt.mu.Lock()
	lo, ok := rt.objects[ptr]
	rt.mu.Unlock()
	if !ok {
		return ErrNotLocal
	}
	lo.mu.Lock()
	switch {
	case lo.state == stLost:
		lo.mu.Unlock()
		return ErrObjectLost
	case lo.state == stMoved:
		lo.mu.Unlock()
		return ErrNotLocal
	case lo.running || lo.scheduled || lo.migrating || lo.state == stStoring || lo.state == stLoading:
		lo.mu.Unlock()
		return ErrBusy
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
