// Package core implements the MRTS control layer and programming model: the
// paper's primary contribution. Applications decompose their dataset into
// mobile objects — location-independent, globally addressable containers —
// and drive all computation by posting one-sided messages to mobile
// pointers. The runtime routes messages (locally, to disk-resident objects,
// or across nodes through a distributed directory with lazy updates),
// executes message handlers on the computing layer, swaps objects between
// memory and the storage layer under the out-of-core layer's policies, and
// detects global termination.
//
// The package composes the substrates:
//
//	comm    one-sided active messages between nodes  ("ARMCI")
//	sched   task pools executing handlers            ("TBB"/"GCD")
//	ooc     residency decisions, eviction policies
//	storage serialized object blobs
//	trace   computation/communication/disk accounting
package core

import (
	"errors"
	"fmt"
	"io"

	"mrts/internal/comm"
)

// NodeID identifies a node; it aliases the transport's node ID.
type NodeID = comm.NodeID

// HandlerID identifies a registered message handler. The same handler IDs
// must be registered on every node (SPMD model).
type HandlerID uint32

// MobilePtr is the global identifier of a mobile object: the node that
// created it plus a per-node sequence number. A MobilePtr stays valid when
// the object migrates or is swapped out of core.
type MobilePtr struct {
	Home NodeID
	Seq  uint32
}

// Nil is the zero MobilePtr, addressing nothing.
var Nil MobilePtr

// IsNil reports whether p addresses nothing.
func (p MobilePtr) IsNil() bool { return p == Nil }

// String implements fmt.Stringer.
func (p MobilePtr) String() string { return fmt.Sprintf("mp{%d:%d}", p.Home, p.Seq) }

// Object is the interface a mobile object must implement: serialization for
// out-of-core unloading and migration, plus a size estimate for the memory
// accounting of the out-of-core layer.
type Object interface {
	// TypeID identifies the concrete type to the Factory when the object
	// is reloaded or installed on another node.
	TypeID() uint16
	// EncodeTo serializes the object.
	EncodeTo(w io.Writer) error
	// DecodeFrom restores the object from its serialized form.
	DecodeFrom(r io.Reader) error
	// SizeHint estimates the in-core footprint in bytes. It is re-read
	// after every handler execution, so growing objects (meshes under
	// refinement) keep their accounting current.
	SizeHint() int
}

// Factory constructs an empty Object of the given type, ready for
// DecodeFrom. Every node must use the same factory (SPMD).
type Factory func(typeID uint16) (Object, error)

// Handler is an application message handler. It runs on the node currently
// holding the destination object, with the object loaded in-core, and is
// never run concurrently with another handler of the same object.
type Handler func(c *Ctx, arg []byte)

// maxForwardHops bounds directory-chain forwarding: a message that visited
// this many nodes without finding its object is considered undeliverable and
// dropped (the object was lost — e.g. its type is unknown to a node's
// factory — and unbounded forwarding would livelock the cluster).
const maxForwardHops = 64

// Errors returned by the runtime.
var (
	ErrUnknownObject = errors.New("core: unknown mobile object")
	ErrUnknownType   = errors.New("core: unknown object type")
	ErrNotLocal      = errors.New("core: object is not local")
	ErrBusy          = errors.New("core: object is busy")
	ErrObjectLost    = errors.New("core: mobile object lost to a storage failure")
)
