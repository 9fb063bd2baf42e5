package core

import "mrts/internal/comm"

// Migrate moves a local, idle mobile object to another node, together with
// its pending message queue and out-of-core hints. The object's mobile
// pointer remains valid everywhere: this node keeps a forwarding entry, the
// home node is informed, and messages routed through stale directory entries
// are forwarded and trigger lazy updates.
//
// Migrate returns ErrNotLocal if the object is not here, ErrObjectLost if it
// was lost, and ErrBusy if something holds it or it has work pending
// (tryAcquire toTake in own.go); callers retry or give up (the paper's load
// balancing migrates idle objects only). RequestMigration is the form that
// waits for the object instead.
func (rt *Runtime) Migrate(ptr MobilePtr, dest NodeID) error {
	if dest == rt.node {
		return nil
	}
	lo := rt.lookup(ptr)
	if lo == nil {
		return ErrNotLocal
	}

	lo.mu.Lock()
	if err := rt.tryAcquire(lo, toTake); err != nil {
		lo.mu.Unlock()
		return err
	}
	return rt.moveHeld(lo, dest)
}

// moveHeld moves lo to dest. The caller has lo.mu locked and holds lo for the
// move (toTake); moveHeld returns with it unlocked.
func (rt *Runtime) moveHeld(lo *localObject, dest NodeID) error {
	ptr := lo.ptr
	var blob []byte
	var err error
	if lo.state == stInCore {
		if blob, err = encodeObject(lo.obj); err != nil {
			// It cannot move anywhere: the requests parked on it are dropped.
			rt.work.Add(int64(-len(lo.moves)))
			lo.moves = nil
		}
	} else {
		// Load the serialized form straight from the store; no need to
		// deserialize just to move bytes. The read goes through the I/O
		// scheduler at demand class, coalescing with any in-flight load. The
		// hold keeps handlers, destruction and other moves off meanwhile, but
		// not a load somebody asks for: if one started, the blob is no longer
		// the object, and the move gives way.
		lo.mu.Unlock()
		blob, err = rt.io.LoadSync(storeKey(ptr), uint64(oid(ptr)))
		lo.mu.Lock()
		if err == nil && lo.state != stOut {
			err = ErrBusy
		}
	}
	if err != nil {
		rt.release(lo)
		return err
	}

	// Point of no return: capture the queue, drop the local record. The
	// record leaves the table, the locator learns the destination and the
	// record is marked stMoved all under lo.mu: a sender that looked the
	// record up a moment ago and is waiting on this lock must find it moved
	// and route again (enqueueLocal) — queued here, its message would run on
	// a copy of the object that has already been serialized and is gone. The
	// migration requests parked on the record follow the object.
	in := &install{ptr: ptr, typeID: lo.typeID, blob: blob, queue: lo.queue}
	parked := lo.moves
	lo.queue, lo.moves, lo.obj = nil, nil, nil
	lo.state = stMoved
	rt.adm.remove(lo)
	rt.mu.Lock()
	delete(rt.objects, ptr)
	rt.mu.Unlock()
	rt.loc.Note(ptr, dest)
	lo.mu.Unlock()

	id := oid(ptr)
	in.priority = int32(rt.mem.Priority(id))
	in.locked = rt.mem.Locked(id)
	rt.mem.Unregister(id)
	// The blob leaves with the object — unconditionally, not just for
	// stOut: an in-core object that was ever evicted here still has a
	// stale blob on disk, and without this the spool leaks every
	// migrated-away object's footprint forever.
	rt.io.Delete(storeKey(ptr))

	// The queued messages and the parked requests leave this node's work
	// count only once they are in its sent count, so termination cannot fire
	// in between.
	rt.sent.Add(1)
	if err := rt.ep.Send(dest, wireInstall, encodeInstall(in)); err != nil {
		// Transport failure: reinstall locally; the requests are dropped.
		rt.sent.Add(-1)
		rt.work.Add(int64(-len(parked)))
		rt.installLocal(in)
		return err
	}
	// Proactively tell whichever nodes the locator anchors routing on (the
	// home node for the policy locators — plus the whole cluster under
	// eager — or the ring owner for the placed locator).
	if targets := rt.loc.MigrateTargets(ptr, dest); len(targets) > 0 {
		upd := encodeDirUpdate(ptr, dest)
		for _, n := range targets {
			rt.dstats.dirUpdates.Add(1)
			_ = rt.ep.Send(n, wireDirUpdate, upd)
		}
	}
	for _, to := range parked {
		if to != dest { // else the object is where the request wanted it
			rt.requestMove(ptr, to)
		}
	}
	rt.work.Add(int64(-len(in.queue) - len(parked)))
	return nil
}

// onWireInstall receives a migrating object.
func (rt *Runtime) onWireInstall(msg comm.Message) {
	in, err := decodeInstall(msg.Payload)
	if err != nil {
		return
	}
	rt.recv.Add(1)
	rt.work.Add(int64(len(in.queue)))
	rt.installLocal(in)
}

// installLocal registers an installed object and reschedules its queue.
func (rt *Runtime) installLocal(in *install) {
	obj, err := rt.decodeObject(in.typeID, in.blob)
	if err != nil {
		// Unknown type or corrupt blob: drop the object and its work.
		rt.work.Add(int64(-len(in.queue)))
		return
	}
	lo := &localObject{
		ptr:    in.ptr,
		typeID: in.typeID,
		obj:    obj,
		state:  stInCore,
		queue:  in.queue,
	}
	rt.mu.Lock()
	rt.objects[in.ptr] = lo
	parked := rt.parked[in.ptr]
	delete(rt.parked, in.ptr)
	rt.mu.Unlock()
	rt.loc.Forget(in.ptr)

	id := oid(in.ptr)
	_ = rt.mem.Register(id, int64(obj.SizeHint()))
	if in.locked {
		rt.mem.Lock(id)
	}
	if in.priority != 0 {
		rt.mem.SetPriority(id, int(in.priority))
	}

	lo.mu.Lock()
	for _, m := range parked {
		lo.queue = append(lo.queue, queued{handler: m.handler, arg: m.arg})
	}
	rt.mem.SetQueueLen(id, len(lo.queue))
	rt.resume(lo)
	rt.maybeEvictForSoft()
}

// RequestMigration asks the node currently holding ptr to migrate it to
// dest. It is one-sided: the request is routed like an application message
// (forwarded along stale directory chains), and where it finds the object
// held — by a handler, by the out-of-core layer, by another move — it waits
// on the object's record until resume serves it. Termination counts it like
// a message: in a node's work while it is there, in sent/recv on the wire.
func (rt *Runtime) RequestMigration(ptr MobilePtr, dest NodeID) {
	if !rt.closed.Load() {
		rt.requestMove(ptr, dest)
	}
}

func (rt *Runtime) onWireMigrateReq(msg comm.Message) {
	ptr, dest, err := decodeDirUpdate(msg.Payload) // same frame: a pointer and a node
	if err != nil {
		return
	}
	rt.recv.Add(1)
	rt.requestMove(ptr, dest)
}

// requestMove places one migration request: parked on the object's record if
// the object is here (resume serves it at once when nothing holds the object),
// sent on toward the object otherwise. The request is one unit of this node's
// work until it is served, on the wire again, or dropped.
func (rt *Runtime) requestMove(ptr MobilePtr, dest NodeID) {
	rt.work.Add(1)
	if lo := rt.lookup(ptr); lo != nil {
		lo.mu.Lock()
		switch {
		case lo.state == stMoved:
			// Left between the lookup and here; the locator knows where to.
			lo.mu.Unlock()
		case lo.state == stLost || dest == rt.node:
			lo.mu.Unlock()
			rt.work.Add(-1)
			return
		default:
			lo.moves = append(lo.moves, dest)
			if lo.state == stLoading {
				rt.io.Promote(storeKey(ptr)) // a prefetch somebody now waits for
			}
			if !rt.resume(lo) {
				rt.movesParked.Add(1)
			}
			return
		}
	}
	// Not here. A locator that answers "here" means the object is in flight
	// to this node (or gone for good): there is nowhere to send the request.
	if target, _ := rt.loc.Locate(ptr); target != rt.node {
		rt.sent.Add(1)
		if err := rt.ep.Send(target, wireMigrateReq, encodeDirUpdate(ptr, dest)); err != nil {
			rt.sent.Add(-1)
		}
	}
	rt.work.Add(-1)
}
