package core

import (
	"encoding/binary"
	"fmt"
)

// Transport-level message kinds (comm handler IDs).
const (
	wireApp        uint32 = 1 // application message to a mobile pointer
	wireDirUpdate  uint32 = 2 // lazy directory update
	wireInstall    uint32 = 3 // object migration payload
	wireMigrateReq uint32 = 4 // "send object X to node Y"
	// 5 is reserved: it carried the retired multicast frame.
)

// appMsg is an application message on the wire or in an object queue.
type appMsg struct {
	dst     MobilePtr
	handler HandlerID
	route   []NodeID
	arg     []byte
}

func putPtr(b []byte, p MobilePtr) {
	binary.LittleEndian.PutUint32(b[0:4], uint32(p.Home))
	binary.LittleEndian.PutUint32(b[4:8], p.Seq)
}

func getPtr(b []byte) MobilePtr {
	return MobilePtr{
		Home: NodeID(int32(binary.LittleEndian.Uint32(b[0:4]))),
		Seq:  binary.LittleEndian.Uint32(b[4:8]),
	}
}

// appHeader is an application message's fixed part: ptr, handler, route
// length and arg length.
const appHeader = 8 + 4 + 2 + 4

// encodeApp encodes an application message.
// Layout: ptr(8) handler(4) routeLen(2) route(4 each) argLen(4) arg.
func encodeApp(m *appMsg) []byte {
	b := make([]byte, appHeader+4*len(m.route)+len(m.arg))
	putPtr(b[0:8], m.dst)
	binary.LittleEndian.PutUint32(b[8:12], uint32(m.handler))
	binary.LittleEndian.PutUint16(b[12:14], uint16(len(m.route)))
	off := 14
	for _, r := range m.route {
		binary.LittleEndian.PutUint32(b[off:off+4], uint32(r))
		off += 4
	}
	binary.LittleEndian.PutUint32(b[off:off+4], uint32(len(m.arg)))
	off += 4
	copy(b[off:], m.arg)
	return b
}

func decodeApp(b []byte) (*appMsg, error) {
	if len(b) < appHeader {
		return nil, fmt.Errorf("core: short app message (%d bytes)", len(b))
	}
	m := &appMsg{
		dst:     getPtr(b[0:8]),
		handler: HandlerID(binary.LittleEndian.Uint32(b[8:12])),
	}
	nr := int(binary.LittleEndian.Uint16(b[12:14]))
	off := 14
	if len(b) < appHeader+4*nr {
		return nil, fmt.Errorf("core: truncated app message route")
	}
	for i := 0; i < nr; i++ {
		m.route = append(m.route, NodeID(int32(binary.LittleEndian.Uint32(b[off:off+4]))))
		off += 4
	}
	na := int(binary.LittleEndian.Uint32(b[off : off+4]))
	off += 4
	// Every process of a run is one binary, so the frame ends with the arg.
	if len(b)-off != na {
		return nil, fmt.Errorf("core: app message arg of %d bytes in %d", na, len(b)-off)
	}
	m.arg = b[off:]
	return m, nil
}

// encodeDirUpdate encodes a directory update: "object ptr now lives at node".
func encodeDirUpdate(p MobilePtr, at NodeID) []byte {
	b := make([]byte, 12)
	putPtr(b[0:8], p)
	binary.LittleEndian.PutUint32(b[8:12], uint32(at))
	return b
}

func decodeDirUpdate(b []byte) (MobilePtr, NodeID, error) {
	if len(b) != 12 {
		return Nil, 0, fmt.Errorf("core: bad dir update (%d bytes)", len(b))
	}
	return getPtr(b[0:8]), NodeID(int32(binary.LittleEndian.Uint32(b[8:12]))), nil
}

// install carries a migrating object: its identity, serialized state, OOC
// hints (priority, lock) and pending message queue.
type install struct {
	ptr      MobilePtr
	typeID   uint16
	priority int32
	locked   bool
	blob     []byte
	queue    []queued
}

type queued struct {
	handler HandlerID
	arg     []byte
}

func encodeInstall(in *install) []byte {
	n := 8 + 2 + 4 + 1 + 4 + len(in.blob) + 4
	for _, q := range in.queue {
		n += 4 + 4 + len(q.arg)
	}
	b := make([]byte, n)
	putPtr(b[0:8], in.ptr)
	binary.LittleEndian.PutUint16(b[8:10], in.typeID)
	binary.LittleEndian.PutUint32(b[10:14], uint32(in.priority))
	if in.locked {
		b[14] = 1
	}
	binary.LittleEndian.PutUint32(b[15:19], uint32(len(in.blob)))
	off := 19
	copy(b[off:], in.blob)
	off += len(in.blob)
	binary.LittleEndian.PutUint32(b[off:off+4], uint32(len(in.queue)))
	off += 4
	for _, q := range in.queue {
		binary.LittleEndian.PutUint32(b[off:off+4], uint32(q.handler))
		binary.LittleEndian.PutUint32(b[off+4:off+8], uint32(len(q.arg)))
		off += 8
		copy(b[off:], q.arg)
		off += len(q.arg)
	}
	return b
}

func decodeInstall(b []byte) (*install, error) {
	if len(b) < 23 {
		return nil, fmt.Errorf("core: short install (%d bytes)", len(b))
	}
	in := &install{
		ptr:      getPtr(b[0:8]),
		typeID:   binary.LittleEndian.Uint16(b[8:10]),
		priority: int32(binary.LittleEndian.Uint32(b[10:14])),
		locked:   b[14] == 1,
	}
	nb := int(binary.LittleEndian.Uint32(b[15:19]))
	off := 19
	if len(b) < off+nb+4 {
		return nil, fmt.Errorf("core: truncated install blob")
	}
	in.blob = b[off : off+nb]
	off += nb
	nq := int(binary.LittleEndian.Uint32(b[off : off+4]))
	off += 4
	for i := 0; i < nq; i++ {
		if len(b) < off+8 {
			return nil, fmt.Errorf("core: truncated install queue")
		}
		q := queued{handler: HandlerID(binary.LittleEndian.Uint32(b[off : off+4]))}
		na := int(binary.LittleEndian.Uint32(b[off+4 : off+8]))
		off += 8
		if len(b) < off+na {
			return nil, fmt.Errorf("core: truncated install queue arg")
		}
		q.arg = b[off : off+na]
		off += na
		in.queue = append(in.queue, q)
	}
	// Every process of a run is one binary, so the frame ends here.
	if off != len(b) {
		return nil, fmt.Errorf("core: %d trailing bytes after install queue", len(b)-off)
	}
	return in, nil
}
