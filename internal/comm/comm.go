// Package comm provides one-sided active-message transports between the
// nodes of a (simulated or real) cluster. It is the stand-in for the ARMCI
// one-sided communication library the paper's MRTS builds on: a sender
// deposits a message (handler ID + payload) at a destination node without
// the receiver posting a receive; the destination runs the registered
// handler for it.
//
// Two transports are provided:
//
//   - InProc: N endpoints inside one process, with a configurable
//     latency/bandwidth model, used by the simulated cluster;
//   - TCPNode: one endpoint per process, joining the others over real TCP
//     sockets through a seed node; NewTCP starts n of them inside one
//     process on loopback.
//
// Delivery guarantees match the paper: message order is preserved between
// every pair of endpoints; no ordering holds across pairs. Handlers for one
// endpoint run on a single dispatcher goroutine, so they never run
// concurrently with each other.
package comm

import (
	"errors"
	"sync/atomic"

	"mrts/internal/obs"
)

// NodeID identifies a node.
type NodeID int32

// Message is a delivered active message.
type Message struct {
	From    NodeID
	Handler uint32
	Payload []byte
}

// Handler processes an incoming active message on the receiving node's
// dispatcher goroutine. The payload is owned by the handler.
type Handler func(Message)

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("comm: endpoint closed")

// ErrPeerDown is returned (wrapped) by Send when the destination peer is
// unreachable: its connection died mid-stream, a dial failed, or the
// membership layer marked it down. It is retryable — transports drop the
// broken connection and re-dial on a later Send — so callers should treat
// it like a transient storage error, not a permanent one.
var ErrPeerDown = errors.New("comm: peer down")

// Endpoint is one node's attachment to a transport.
type Endpoint interface {
	// Node returns this endpoint's ID.
	Node() NodeID
	// Send delivers a one-sided message to the destination node. It is
	// asynchronous and safe for concurrent use. The payload is not copied
	// for in-process transports; the caller must not mutate it afterwards.
	Send(to NodeID, handler uint32, payload []byte) error
	// SendBuf is Send for a payload obtained from bufpool: the transport
	// recycles the buffer once the message no longer needs it (after the
	// receiving handler returns in process, after the frame is flushed
	// over a socket). It takes ownership unconditionally: whether it
	// returns nil or an error, the caller must not touch payload again. It
	// is only safe for messages whose handler does not retain the payload
	// past its return, as the remote-memory protocol's handlers do not.
	SendBuf(to NodeID, handler uint32, payload []byte) error
	// Register installs the handler for messages with the given ID. All
	// registrations must happen before traffic starts.
	Register(id uint32, h Handler)
	// Close stops the dispatcher after draining already-queued messages.
	Close() error
	// Stats returns a snapshot of this endpoint's counters.
	Stats() Stats
	// SetTracer installs a structured event tracer: sends are recorded as
	// comm.send instants, handler dispatches as comm.deliver spans, and an
	// endpoint with a network model adds each send's modeled wire time to the
	// comm.send total. A nil tracer (the default) disables all three. Safe to
	// call at any time.
	SetTracer(tr *obs.Tracer)
}

// Transport wires a set of endpoints together.
type Transport interface {
	Endpoint(n NodeID) Endpoint
	NumNodes() int
	// Close closes every endpoint.
	Close() error
}

// Stats are per-endpoint counters.
type Stats struct {
	MsgsSent      uint64
	MsgsReceived  uint64
	BytesSent     uint64
	BytesReceived uint64
}

type statCounters struct {
	msgsSent      atomic.Uint64
	msgsReceived  atomic.Uint64
	bytesSent     atomic.Uint64
	bytesReceived atomic.Uint64
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		MsgsSent:      c.msgsSent.Load(),
		MsgsReceived:  c.msgsReceived.Load(),
		BytesSent:     c.bytesSent.Load(),
		BytesReceived: c.bytesReceived.Load(),
	}
}
