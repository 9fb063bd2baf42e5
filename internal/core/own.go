package core

import (
	"mrts/internal/sched"
	"mrts/internal/swapio"
)

// Object ownership. A mobile object is, at any instant, held by at most one
// of: a message handler (run by the object's drain, or called inline), the
// out-of-core layer (stStoring, stLoading), or a move (a Migrate reading its
// blob). This file is the one statement of that rule: whoever wants an object
// says what for and gets yes or no (tryAcquire), and whoever lets one go
// (release; resume for the out-of-core layer) starts what had to wait for it.
// Nothing else reads or writes running and migrating, or decides from state,
// scheduled and the lock count whether an object is free (CheckInvariants
// only looks).

// need is what a caller wants an object for.
type need uint8

const (
	toRun   need = iota // run a handler on it: in core, no handler or move on it
	toEvict             // unload it: idle, in core, not pinned by a lock
	toTake              // take it off this node for good (migrate): idle
	toRead              // read it where it is (checkpoint, size refresh): idle
)

// lookup returns the record of a local object, nil if ptr is not here.
func (rt *Runtime) lookup(ptr MobilePtr) *localObject {
	rt.mu.Lock()
	lo := rt.objects[ptr]
	rt.mu.Unlock()
	return lo
}

// held says why nobody can have lo right now: nil if nothing holds it, the
// terminal state's error for a dead record, ErrBusy otherwise. Caller holds
// lo.mu, as for everything below.
func (lo *localObject) held() error {
	switch lo.state {
	case stLost:
		return ErrObjectLost
	case stMoved:
		return ErrNotLocal
	case stStoring, stLoading:
		return ErrBusy
	}
	if lo.running || lo.migrating {
		return ErrBusy
	}
	return nil
}

// tryAcquire gives the caller lo for why, or says why not. Idle means in core
// or out, nothing holding it and no drain scheduled. A handler's hold and a
// move's last until release; an eviction's passes to the out-of-core layer
// with the state the caller sets next; a read's ends with the critical
// section.
func (rt *Runtime) tryAcquire(lo *localObject, why need) error {
	if err := lo.held(); err != nil {
		return err
	}
	if why == toRun {
		if lo.state != stInCore {
			return ErrBusy
		}
		lo.running = true
		return nil
	}
	if lo.scheduled {
		return ErrBusy
	}
	switch why {
	case toEvict:
		if lo.state != stInCore || rt.mem.Locked(oid(lo.ptr)) {
			return ErrBusy
		}
	case toTake:
		lo.migrating = true
	}
	return nil
}

// assertRunning panics unless a handler's hold is in place (only its holder
// can clear it, so the holder may look without the lock).
func (lo *localObject) assertRunning() {
	if !lo.running {
		panic("core: handler run on an object its caller does not hold")
	}
}

// release ends a handler's or a move's hold on lo and resumes what waited for
// it; like resume it returns with lo.mu unlocked.
func (rt *Runtime) release(lo *localObject) {
	lo.running, lo.migrating = false, false
	rt.resume(lo)
}

// resume starts what is pending on lo if nothing holds it: a parked migration
// request first — the object leaves with its queue — then the drain of its
// queued messages if it is in core, or if it is out the load that they, a
// lock, a prefetch or a parked request wait for: at demand class at once if
// something blocks on the object (what it pins, it pins sooner or later),
// through admission if only messages are queued, as a prefetch otherwise. release ends with it and the out-of-core layer
// calls it when a store or a load has settled, so it runs between handlers
// and on I/O workers and never waits for I/O: a request parked on an
// out-of-core object is not served from the stored blob (that read would
// queue behind the I/O worker running this) but by a demand load that comes
// back here. Called with lo.mu held, it returns with it unlocked — an object
// leaves the node outside its own lock — and reports whether the object left.
func (rt *Runtime) resume(lo *localObject) (left bool) {
	switch {
	case lo.held() != nil:
	case lo.state == stInCore:
		if len(lo.moves) > 0 {
			lo.migrating = true
			return rt.moveHeld(lo, lo.moves[0]) == nil
		}
		rt.schedule(lo)
	default: // stOut
		demand := lo.wantDemand || len(lo.moves) > 0
		prefetch := lo.wantLoad
		lo.wantLoad, lo.wantDemand = false, false
		switch {
		case rt.closed.Load():
		case demand:
			rt.startLoadLocked(lo, swapio.Demand, 0)
		case len(lo.queue) > 0:
			rt.admitLoadLocked(lo)
		case prefetch:
			rt.startLoadLocked(lo, swapio.Prefetch, 0)
		}
	}
	lo.mu.Unlock()
	return false
}

// schedule submits lo's drain if messages are queued and no drain is on its
// way. lo is in core.
func (rt *Runtime) schedule(lo *localObject) {
	if len(lo.queue) > 0 && !lo.scheduled {
		lo.scheduled = true
		rt.pool.Submit(func(sc *sched.Ctx) { rt.drain(lo, sc) })
	}
}
