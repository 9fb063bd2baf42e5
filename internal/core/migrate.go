package core

import (
	"encoding/binary"

	"mrts/internal/comm"
	"mrts/internal/sched"
)

// Additional wire kinds for object mobility.
const (
	wireMigrateReq uint32 = 4 // "send object X to node Y"
)

// Migrate moves a local, idle mobile object to another node, together with
// its pending message queue and out-of-core hints. The object's mobile
// pointer remains valid everywhere: this node keeps a forwarding entry, the
// home node is informed, and messages routed through stale directory entries
// are forwarded and trigger lazy updates.
//
// Migrate returns ErrNotLocal if the object is not here, and ErrBusy if a
// handler is running, scheduled or the object is being swapped; callers
// retry or give up (the paper's load balancing migrates idle objects only).
func (rt *Runtime) Migrate(ptr MobilePtr, dest NodeID) error {
	if dest == rt.node {
		return nil
	}
	rt.mu.Lock()
	lo, ok := rt.objects[ptr]
	rt.mu.Unlock()
	if !ok {
		return ErrNotLocal
	}

	lo.mu.Lock()
	if lo.running || lo.scheduled || lo.migrating {
		lo.mu.Unlock()
		return ErrBusy
	}
	var blob []byte
	var err error
	switch lo.state {
	case stInCore:
		blob, err = encodeObject(lo.obj)
		if err != nil {
			lo.mu.Unlock()
			return err
		}
	case stOut:
		// Load the serialized form straight from the store; no need to
		// deserialize just to move bytes. The read goes through the I/O
		// scheduler at demand class, coalescing with any in-flight load.
		lo.migrating = true
		lo.mu.Unlock()
		blob, err = rt.io.LoadSync(storeKey(ptr), uint64(oid(ptr)))
		lo.mu.Lock()
		lo.migrating = false
		if err != nil {
			lo.mu.Unlock()
			return err
		}
		if lo.running || lo.scheduled || lo.state != stOut {
			lo.mu.Unlock()
			return ErrBusy
		}
	case stLost:
		// Terminal: returning ErrBusy here would make RequestMigration's
		// retry loop spin forever on an object that can never move.
		lo.mu.Unlock()
		return ErrObjectLost
	case stMoved:
		// Another Migrate took the object after this one's table lookup.
		lo.mu.Unlock()
		return ErrNotLocal
	default: // stStoring, stLoading
		lo.mu.Unlock()
		return ErrBusy
	}

	// Point of no return: capture the queue, drop the local record. The
	// record leaves the table, the locator learns the destination and the
	// record is marked stMoved all under lo.mu: a sender that looked the
	// record up a moment ago and is waiting on this lock must find it moved
	// and route again (enqueueLocal) — queued here, its message would run on
	// a copy of the object that has already been serialized and is gone.
	q := lo.queue
	lo.queue = nil
	lo.obj = nil
	lo.state = stMoved
	rt.adm.remove(lo)
	typeID := lo.typeID
	rt.mu.Lock()
	delete(rt.objects, ptr)
	rt.mu.Unlock()
	rt.loc.Note(ptr, dest)
	lo.mu.Unlock()

	id := oid(ptr)
	in := &install{
		ptr:      ptr,
		typeID:   typeID,
		priority: int32(rt.mem.Priority(id)),
		locked:   rt.mem.Locked(id),
		blob:     blob,
		queue:    q,
	}
	rt.mem.Unregister(id)
	// The blob leaves with the object — unconditionally, not just for
	// stOut: an in-core object that was ever evicted here still has a
	// stale blob on disk, and without this the spool leaks every
	// migrated-away object's footprint forever.
	rt.io.Delete(storeKey(ptr))

	// The queued messages leave this node inside the install message.
	rt.work.Add(int64(-len(q)))
	rt.sent.Add(1)
	if err := rt.ep.Send(dest, wireInstall, encodeInstall(in)); err != nil {
		// Transport failure: reinstall locally.
		rt.sent.Add(-1)
		rt.work.Add(int64(len(q)))
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
	rt.mcasts.objectArrived(rt, in.ptr)

	lo.mu.Lock()
	for _, m := range parked {
		lo.queue = append(lo.queue, queued{handler: m.handler, arg: m.arg})
	}
	rt.mem.SetQueueLen(id, len(lo.queue))
	if len(lo.queue) > 0 && !lo.scheduled {
		lo.scheduled = true
		rt.pool.Submit(func(sc *sched.Ctx) { rt.drain(lo, sc) })
	}
	lo.mu.Unlock()
	rt.maybeEvictForSoft()
}

// RequestMigration asks the node currently holding ptr to migrate it to
// dest. It is one-sided: the request is routed like an application message
// (forwarded along stale directory chains).
func (rt *Runtime) RequestMigration(ptr MobilePtr, dest NodeID) {
	if rt.IsLocal(ptr) {
		_ = rt.Migrate(ptr, dest)
		return
	}
	b := make([]byte, 12)
	putPtr(b[0:8], ptr)
	binary.LittleEndian.PutUint32(b[8:12], uint32(dest))
	target, _ := rt.loc.Locate(ptr)
	if target == rt.node {
		return // in flight to us; nothing sensible to do
	}
	_ = rt.ep.Send(target, wireMigrateReq, b)
}

func (rt *Runtime) onWireMigrateReq(msg comm.Message) {
	if len(msg.Payload) != 12 {
		return
	}
	ptr := getPtr(msg.Payload[0:8])
	dest := NodeID(int32(binary.LittleEndian.Uint32(msg.Payload[8:12])))
	if rt.IsLocal(ptr) {
		if err := rt.Migrate(ptr, dest); err == ErrBusy {
			// Busy: retry once the current work drains by re-posting the
			// request to ourselves through the transport (keeps the
			// request one-sided and non-blocking).
			_ = rt.ep.Send(rt.node, wireMigrateReq, msg.Payload)
		}
		return
	}
	// Forward toward the current location.
	if target, _ := rt.loc.Locate(ptr); target != rt.node {
		_ = rt.ep.Send(target, wireMigrateReq, msg.Payload)
	}
}
