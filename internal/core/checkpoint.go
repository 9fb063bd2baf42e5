package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"mrts/internal/storage"
)

// This file implements the check/restore functionality the paper's
// conclusion derives from the out-of-core subsystem: "check and restore
// functionality for fault tolerance can be implemented with little effort on
// top of the out-of-core subsystem". A checkpoint serializes every local
// mobile object — reusing the exact serialization path the swapping machinery
// exercises constantly — together with the directory and the OOC hints, into
// a storage.Store. Restore rebuilds the node from it.
//
// The cluster must be quiescent (WaitQuiescence) when checkpointing; this is
// the natural phase boundary of the paper's programming model, where control
// is back at the application and no object has a message queued. A
// checkpoint records no message queues: it refuses an object that has one.

// checkpointMagic marks a manifest whose object records carry no message
// queue. Manifests of the earlier format, which had one, begin "MCPT" and are
// refused.
const checkpointMagic = 0x4D435032 // "MCP2"

// Checkpoint writes this node's full state into st under the given prefix.
// Objects currently swapped out are copied from the runtime's own store
// without deserializing them. The runtime must be quiescent. That stops
// handlers and messages, not the evictions the last handlers started:
// Checkpoint waits those out (200 ms of the runtime's clock at most), and an
// object something still holds after that, or one with queued messages,
// fails it with ErrBusy.
func (rt *Runtime) Checkpoint(st storage.Store, prefix string) error {
	for i := 0; i < 1000 && rt.swapOps.Load() > 0; i++ {
		rt.clk.Sleep(200 * time.Microsecond)
	}
	rt.mu.Lock()
	ptrs := make([]MobilePtr, 0, len(rt.objects))
	for p := range rt.objects {
		ptrs = append(ptrs, p)
	}
	seq := rt.seq
	rt.mu.Unlock()
	dir := rt.loc.Cached()

	var manifest bytes.Buffer
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], checkpointMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(rt.node))
	binary.LittleEndian.PutUint32(hdr[8:12], seq)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(ptrs)))
	manifest.Write(hdr[:])

	// A failed checkpoint leaves nothing under prefix: the blobs written
	// before the failure go again.
	written := make([]storage.Key, 0, len(ptrs))
	abandon := func() {
		for _, k := range written {
			_ = st.Delete(k) // best effort: the failure is the error to report
		}
	}
	for _, p := range ptrs {
		key := storage.Key(fmt.Sprintf("%s-%d-%d", prefix, p.Home, p.Seq))
		rec, err := rt.checkpointObject(p, st, key)
		if err != nil {
			abandon()
			return fmt.Errorf("core: checkpoint %v: %w", p, err)
		}
		written = append(written, key)
		manifest.Write(rec)
	}

	// Directory entries.
	var db [12]byte
	binary.LittleEndian.PutUint32(db[0:4], uint32(len(dir)))
	manifest.Write(db[0:4])
	for p, n := range dir {
		putPtr(db[0:8], p)
		binary.LittleEndian.PutUint32(db[8:12], uint32(n))
		manifest.Write(db[:])
	}

	// Termination counters. A restored node must rejoin the Mattern
	// double-count where its old incarnation left off: the other nodes'
	// counters still include traffic exchanged with it, so a node restarting
	// at zero would leave the cluster's sent/recv totals unbalanced forever.
	// Quiescence makes the snapshot stable (only application messages are
	// counted, and none are in flight).
	var cb [16]byte
	binary.LittleEndian.PutUint64(cb[0:8], uint64(rt.sent.Load()))
	binary.LittleEndian.PutUint64(cb[8:16], uint64(rt.recv.Load()))
	manifest.Write(cb[:])

	if err := st.Put(storage.Key(prefix+"-manifest"), manifest.Bytes()); err != nil {
		abandon()
		return err
	}
	return nil
}

// checkpointObject snapshots one object: its blob goes to st under key, and
// the manifest record with its hints is returned.
func (rt *Runtime) checkpointObject(p MobilePtr, st storage.Store, key storage.Key) ([]byte, error) {
	lo := rt.lookup(p)
	if lo == nil {
		return nil, ErrUnknownObject
	}
	lo.mu.Lock()
	if err := rt.tryAcquire(lo, toRead); err != nil {
		lo.mu.Unlock()
		return nil, err
	}
	if n := len(lo.queue); n > 0 {
		lo.mu.Unlock()
		return nil, fmt.Errorf("%w: message queue not empty (%d)", ErrBusy, n)
	}
	var blob []byte
	var err error
	if lo.state == stInCore {
		blob, err = encodeObject(lo.obj)
	} else {
		blob, err = rt.io.Backing().Get(storeKey(p))
	}
	typeID := lo.typeID
	lo.mu.Unlock()
	if err != nil {
		return nil, err
	}

	id := oid(p)
	if err := st.Put(key, blob); err != nil {
		return nil, err
	}

	var rec bytes.Buffer
	var b [8]byte
	putPtr(b[0:8], p)
	rec.Write(b[:8])
	binary.LittleEndian.PutUint16(b[0:2], typeID)
	rec.Write(b[0:2])
	flags := byte(0)
	if rt.mem.Locked(id) {
		flags |= 1
	}
	rec.WriteByte(flags)
	return rec.Bytes(), nil
}

// Restore rebuilds this node from a checkpoint written by Checkpoint. The
// runtime must be freshly created (no objects) with the same node ID and
// factory. Restored objects start out-of-core-cold: they are registered and
// their blobs installed in the runtime's store; loads happen on demand, so
// restoring is cheap even for huge datasets (the point of building restore
// on the out-of-core path).
func (rt *Runtime) Restore(st storage.Store, prefix string) error {
	data, err := st.Get(storage.Key(prefix + "-manifest"))
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	r := bytes.NewReader(data)
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("core: restore: short manifest: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != checkpointMagic {
		return fmt.Errorf("core: restore: bad magic")
	}
	if node := NodeID(int32(binary.LittleEndian.Uint32(hdr[4:8]))); node != rt.node {
		return fmt.Errorf("core: restore: checkpoint is for node %d, this is node %d", node, rt.node)
	}
	seq := binary.LittleEndian.Uint32(hdr[8:12])
	n := int(binary.LittleEndian.Uint32(hdr[12:16]))

	rt.mu.Lock()
	if len(rt.objects) != 0 {
		rt.mu.Unlock()
		return fmt.Errorf("core: restore: runtime already has objects")
	}
	rt.seq = seq
	rt.mu.Unlock()

	var b [12]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(r, b[0:8]); err != nil {
			return fmt.Errorf("core: restore: truncated record: %w", err)
		}
		ptr := getPtr(b[0:8])
		if _, err := io.ReadFull(r, b[0:2]); err != nil {
			return err
		}
		typeID := binary.LittleEndian.Uint16(b[0:2])
		fb, err := r.ReadByte()
		if err != nil {
			return err
		}

		blob, err := st.Get(storage.Key(fmt.Sprintf("%s-%d-%d", prefix, ptr.Home, ptr.Seq)))
		if err != nil {
			return fmt.Errorf("core: restore %v: %w", ptr, err)
		}
		if err := rt.io.Backing().Put(storeKey(ptr), blob); err != nil {
			return err
		}

		lo := &localObject{ptr: ptr, typeID: typeID, state: stOut}
		rt.mu.Lock()
		rt.objects[ptr] = lo
		// Peers may have posted to this pointer while the restoring node was
		// still coming up; those messages parked here and already hold the
		// work counter, so adopt them into the queue.
		parked := rt.parked[ptr]
		delete(rt.parked, ptr)
		rt.mu.Unlock()
		id := oid(ptr)
		if err := rt.mem.Register(id, int64(len(blob))); err != nil {
			return err
		}
		rt.mem.MarkOut(id)
		if fb&1 != 0 {
			rt.mem.Lock(id)
		}
		lo.mu.Lock()
		for _, m := range parked {
			lo.queue = append(lo.queue, queued{handler: m.handler, arg: m.arg})
		}
		rt.mem.SetQueueLen(id, len(lo.queue))
		rt.resume(lo)
	}

	// Directory: replay the checkpointed location cache into the locator.
	if _, err := io.ReadFull(r, b[0:4]); err != nil {
		return err
	}
	nd := int(binary.LittleEndian.Uint32(b[0:4]))
	for i := 0; i < nd; i++ {
		if _, err := io.ReadFull(r, b[0:12]); err != nil {
			return err
		}
		rt.loc.Note(getPtr(b[0:8]), NodeID(int32(binary.LittleEndian.Uint32(b[8:12]))))
	}

	// Termination counters (see Checkpoint). Added, not stored: the new
	// incarnation may already have live counts — peers that learned its
	// address post as soon as it joins, racing Restore — and overwriting
	// them would erase receives from the global Mattern balance, wedging
	// termination detection cluster-wide.
	var cb [16]byte
	if _, err := io.ReadFull(r, cb[:]); err != nil {
		return fmt.Errorf("core: restore: truncated counters: %w", err)
	}
	rt.sent.Add(int64(binary.LittleEndian.Uint64(cb[0:8])))
	rt.recv.Add(int64(binary.LittleEndian.Uint64(cb[8:16])))
	return nil
}
