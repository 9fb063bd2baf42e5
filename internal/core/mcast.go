package core

import (
	"encoding/binary"
	"sync"

	"mrts/internal/comm"
	"mrts/internal/obs"
)

// wireMcast carries a multicast mobile message to its collection node.
const wireMcast uint32 = 5

// PostMulticast sends the paper's experimental multicast mobile message: a
// message addressed to a vector of mobile pointers that is delivered only
// after the runtime has collected all of the objects onto one node, in core.
// deliverCount selects how many of the leading pointers actually receive the
// message (the ONUPDR uses the vector {leaf, buffer...} with deliverCount 1:
// the buffer leaves are co-located but only the leaf's handler runs).
//
// Collection happens on the node currently holding ptrs[0]; the remaining
// objects are pulled there with migration requests, pinned in core until
// delivery, then unpinned.
func (rt *Runtime) PostMulticast(ptrs []MobilePtr, deliverCount int, h HandlerID, arg []byte) {
	if len(ptrs) == 0 || deliverCount <= 0 {
		return
	}
	if deliverCount > len(ptrs) {
		deliverCount = len(ptrs)
	}
	if rt.IsLocal(ptrs[0]) {
		rt.startMcast(ptrs, deliverCount, h, arg)
		return
	}
	target, _ := rt.loc.Locate(ptrs[0])
	if target == rt.node {
		// ptrs[0] is in flight to us; collect here anyway.
		rt.startMcast(ptrs, deliverCount, h, arg)
		return
	}
	rt.sent.Add(1)
	if err := rt.ep.Send(target, wireMcast, encodeMcast(ptrs, deliverCount, h, arg)); err != nil {
		rt.sent.Add(-1)
	}
}

func encodeMcast(ptrs []MobilePtr, deliver int, h HandlerID, arg []byte) []byte {
	b := make([]byte, 2+8*len(ptrs)+2+4+4+len(arg))
	binary.LittleEndian.PutUint16(b[0:2], uint16(len(ptrs)))
	off := 2
	for _, p := range ptrs {
		putPtr(b[off:off+8], p)
		off += 8
	}
	binary.LittleEndian.PutUint16(b[off:off+2], uint16(deliver))
	binary.LittleEndian.PutUint32(b[off+2:off+6], uint32(h))
	binary.LittleEndian.PutUint32(b[off+6:off+10], uint32(len(arg)))
	off += 10
	copy(b[off:], arg)
	return b
}

func decodeMcast(b []byte) (ptrs []MobilePtr, deliver int, h HandlerID, arg []byte, ok bool) {
	if len(b) < 2 {
		return
	}
	n := int(binary.LittleEndian.Uint16(b[0:2]))
	off := 2
	if len(b) < off+8*n+10 {
		return
	}
	for i := 0; i < n; i++ {
		ptrs = append(ptrs, getPtr(b[off:off+8]))
		off += 8
	}
	deliver = int(binary.LittleEndian.Uint16(b[off : off+2]))
	h = HandlerID(binary.LittleEndian.Uint32(b[off+2 : off+6]))
	na := int(binary.LittleEndian.Uint32(b[off+6 : off+10]))
	off += 10
	if len(b) < off+na {
		return nil, 0, 0, nil, false
	}
	return ptrs, deliver, h, b[off : off+na], true
}

func (rt *Runtime) onWireMcast(msg comm.Message) {
	ptrs, deliver, h, arg, ok := decodeMcast(msg.Payload)
	if !ok {
		return
	}
	rt.recv.Add(1)
	rt.startMcast(ptrs, deliver, h, arg)
}

// mcastEntry tracks one pending multicast on its collection node.
type mcastEntry struct {
	id      uint64
	ptrs    []MobilePtr
	deliver int
	h       HandlerID
	arg     []byte
	missing map[MobilePtr]bool
	pinned  []MobilePtr
}

type mcastTable struct {
	mu      sync.Mutex
	next    uint64
	pending map[uint64]*mcastEntry
	byPtr   map[MobilePtr]map[uint64]bool
}

func newMcastTable() *mcastTable {
	return &mcastTable{
		pending: make(map[uint64]*mcastEntry),
		byPtr:   make(map[MobilePtr]map[uint64]bool),
	}
}

// startMcast begins collecting the objects on this node. The pending
// multicast counts as one unit of work so termination cannot fire under it.
func (rt *Runtime) startMcast(ptrs []MobilePtr, deliver int, h HandlerID, arg []byte) {
	rt.work.Add(1)
	e := &mcastEntry{
		ptrs:    ptrs,
		deliver: deliver,
		h:       h,
		arg:     arg,
		missing: make(map[MobilePtr]bool, len(ptrs)),
	}
	t := rt.mcasts
	t.mu.Lock()
	t.next++
	e.id = t.next
	t.pending[e.id] = e
	for _, p := range ptrs {
		e.missing[p] = true
		if t.byPtr[p] == nil {
			t.byPtr[p] = make(map[uint64]bool)
		}
		t.byPtr[p][e.id] = true
	}
	t.mu.Unlock()
	rt.tracer.Emit(obs.KindMcastStart, e.id, int64(len(ptrs)))

	// Kick every pointer: a local one may already satisfy the condition or is
	// loaded at demand class (the collection blocks on it, so not as
	// speculation); one that is elsewhere, or migrated away between the
	// checks, is pulled here.
	for _, p := range ptrs {
		if rt.InCore(p) {
			t.objectArrived(rt, p)
		} else if !rt.forceLoad(p) {
			rt.RequestMigration(p, rt.node)
		}
	}
}

// objectArrived is called whenever an object becomes local+in-core (install
// or load completion); it advances any multicast waiting on it.
func (t *mcastTable) objectArrived(rt *Runtime, ptr MobilePtr) {
	t.mu.Lock()
	ids := t.byPtr[ptr]
	if len(ids) == 0 {
		t.mu.Unlock()
		return
	}
	var completed []*mcastEntry
	for id := range ids {
		e := t.pending[id]
		if e == nil || !e.missing[ptr] {
			continue
		}
		delete(e.missing, ptr)
		e.pinned = append(e.pinned, ptr)
		rt.mem.Lock(oid(ptr)) // pin until delivery
		if len(e.missing) == 0 {
			completed = append(completed, e)
			delete(t.pending, id)
			for _, p := range e.ptrs {
				if m := t.byPtr[p]; m != nil {
					delete(m, id)
					if len(m) == 0 {
						delete(t.byPtr, p)
					}
				}
			}
		}
	}
	t.mu.Unlock()

	for _, e := range completed {
		rt.tracer.Emit(obs.KindMcastDeliver, e.id, int64(e.deliver))
		for i := 0; i < e.deliver; i++ {
			rt.Post(e.ptrs[i], e.h, e.arg)
		}
		for _, p := range e.pinned {
			rt.Unlock(p)
		}
		rt.work.Add(-1)
	}
}

// objectLost cancels every multicast waiting on ptr: the object can never
// arrive, so the collection would hold its work unit (and its pins) forever
// and wedge termination. Pinned members are released and the work accounted
// off; the loss itself is surfaced by the swap path's error reporting.
func (t *mcastTable) objectLost(rt *Runtime, ptr MobilePtr) {
	t.mu.Lock()
	ids := t.byPtr[ptr]
	if len(ids) == 0 {
		t.mu.Unlock()
		return
	}
	var cancelled []*mcastEntry
	for id := range ids {
		e := t.pending[id]
		if e == nil {
			continue
		}
		cancelled = append(cancelled, e)
		delete(t.pending, id)
		for _, p := range e.ptrs {
			if m := t.byPtr[p]; m != nil {
				delete(m, id)
				if len(m) == 0 {
					delete(t.byPtr, p)
				}
			}
		}
	}
	t.mu.Unlock()

	for _, e := range cancelled {
		rt.tracer.Emit(obs.KindMcastCancel, e.id, int64(len(e.ptrs)))
		for _, p := range e.pinned {
			rt.Unlock(p)
		}
		rt.work.Add(-1)
	}
}

// PendingMulticasts returns the number of multicasts still collecting.
func (rt *Runtime) PendingMulticasts() int {
	rt.mcasts.mu.Lock()
	defer rt.mcasts.mu.Unlock()
	return len(rt.mcasts.pending)
}
