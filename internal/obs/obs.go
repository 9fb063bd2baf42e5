// Package obs is the unified observability layer of the MRTS: a
// low-overhead structured event tracer plus a metrics registry.
//
// The per-category timers in internal/trace answer "how much time went
// where" in aggregate; they cannot answer "what was this node doing at
// t=1.2s, and did the load overlap the refinement". That question — the one
// behind Tables IV-VI of the paper — needs per-event timelines. The Tracer
// records the swap lifecycle (evict/load/retry/lost), communication
// send/deliver, scheduler run/steal and multicast progress as fixed-size
// events in a per-node ring buffer; the exporter in chrome.go turns a set
// of tracers into Chrome trace-event JSON that Perfetto renders directly.
//
// Everything here is nil-safe: a nil *Tracer accepts Emit/Start calls and
// does nothing, so instrumented code paths never need to branch on whether
// tracing is enabled.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Kind classifies a trace event.
type Kind uint8

// The event kinds recorded by the runtime layers.
const (
	// KindSwapEvict spans one eviction: serialize plus the store write
	// (Arg: blob bytes).
	KindSwapEvict Kind = iota
	// KindSwapLoad spans one load: the store read plus decode (Arg: blob
	// bytes).
	KindSwapLoad
	// KindSwapRetry marks a transient storage fault absorbed by the retry
	// layer (Arg: 1-based attempt number that failed).
	KindSwapRetry
	// KindSwapStoreFail marks an eviction write that failed after the
	// retry budget; the object stayed in core.
	KindSwapStoreFail
	// KindSwapLost marks an object made unreachable by a failed load
	// (Arg: queued messages dropped with it).
	KindSwapLost
	// KindCommSend marks a message handed to the transport (Arg: payload
	// bytes).
	KindCommSend
	// KindCommDeliver spans the dispatch of a received message on the
	// endpoint's dispatcher goroutine (Arg: payload bytes).
	KindCommDeliver
	// KindSchedRun spans one task execution on a pool worker (Arg: worker
	// index).
	KindSchedRun
	// KindSchedSteal marks a successful steal (Arg: victim worker index).
	KindSchedSteal
	// KindHandler spans one application message handler (ID: the object's
	// packed mobile pointer, Arg: handler ID).
	KindHandler
	// KindMcastStart marks a multicast beginning collection (Arg: vector
	// length).
	KindMcastStart
	// KindMcastDeliver marks a multicast whose collection completed and
	// whose messages were posted.
	KindMcastDeliver
	// KindMcastCancel marks a multicast cancelled because a member object
	// was lost.
	KindMcastCancel
	// KindSwapWait spans the time a demand load sat queued in the swap I/O
	// scheduler before a worker dispatched it (ID: object).
	KindSwapWait
	// KindSwapCancel marks a queued prefetch load cancelled because it was
	// superseded (memory pressure or shutdown; ID: object).
	KindSwapCancel
	// KindSwapStall marks a hard-threshold eviction pass that could not
	// free the needed bytes — every victim candidate was busy (Arg: bytes
	// still needed).
	KindSwapStall
	// KindTierSpill marks a write the fast tier could not admit — no lease
	// room, too big, too cold, or a fast-store error — placed directly on
	// the slow tier (Arg: blob bytes).
	KindTierSpill
	// KindTierDemote marks a completed background fast→slow move (Arg:
	// blob bytes).
	KindTierDemote
	// KindTierPromote marks a completed slow→fast move earned by repeated
	// demand misses (Arg: blob bytes).
	KindTierPromote
	// KindNodeJoin marks a node (re)entering the placement ring (ID: the
	// node, Arg: the new ring epoch).
	KindNodeJoin
	// KindNodeLeave marks a node leaving the placement ring (ID: the
	// node, Arg: the new ring epoch).
	KindNodeLeave
	// KindDirRebalance marks one object migrated to its ring owner during
	// a membership change (ID: the object's packed mobile pointer, Arg:
	// the destination node).
	KindDirRebalance
	// KindRouteStale marks a received message whose carried resolution
	// epoch was older than the locator's current one (ID: the object's
	// packed mobile pointer, Arg: the stale epoch).
	KindRouteStale
	// KindRouteDrop marks a message dropped at the forward-hop bound —
	// always a routing defect, surfaced by CheckInvariants too (ID: the
	// object's packed mobile pointer, Arg: the hop count at the drop).
	KindRouteDrop
	// KindMeshExport marks one block frame appended to a meshstore chunk
	// at an irrevocable commit point (ID: the packed block grid
	// coordinates, Arg: the frame bytes written).
	KindMeshExport
	// KindMeshRestore marks one block re-created into a runtime from a
	// meshstore chunk during a rank-independent restore (ID: the packed
	// block grid coordinates, Arg: the raw payload bytes).
	KindMeshRestore
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSwapEvict:
		return "swap.evict"
	case KindSwapLoad:
		return "swap.load"
	case KindSwapRetry:
		return "swap.retry"
	case KindSwapStoreFail:
		return "swap.storefail"
	case KindSwapLost:
		return "swap.lost"
	case KindCommSend:
		return "comm.send"
	case KindCommDeliver:
		return "comm.deliver"
	case KindSchedRun:
		return "sched.run"
	case KindSchedSteal:
		return "sched.steal"
	case KindHandler:
		return "app.handler"
	case KindMcastStart:
		return "mcast.start"
	case KindMcastDeliver:
		return "mcast.deliver"
	case KindMcastCancel:
		return "mcast.cancel"
	case KindSwapWait:
		return "swap.wait"
	case KindSwapCancel:
		return "swap.cancel"
	case KindSwapStall:
		return "swap.stall"
	case KindTierSpill:
		return "tier.spill"
	case KindTierDemote:
		return "tier.demote"
	case KindTierPromote:
		return "tier.promote"
	case KindNodeJoin:
		return "node.join"
	case KindNodeLeave:
		return "node.leave"
	case KindDirRebalance:
		return "dir.rebalance"
	case KindRouteStale:
		return "route.stale"
	case KindRouteDrop:
		return "route.drop"
	case KindMeshExport:
		return "mesh.export"
	case KindMeshRestore:
		return "mesh.restore"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Track returns the timeline the kind belongs to when rendered (one named
// thread per track in the Chrome trace).
func (k Kind) Track() string {
	switch k {
	case KindSwapEvict, KindSwapLoad, KindSwapRetry, KindSwapStoreFail, KindSwapLost,
		KindSwapWait, KindSwapCancel, KindSwapStall:
		return "swap"
	case KindCommSend, KindCommDeliver, KindRouteStale, KindRouteDrop:
		return "comm"
	case KindSchedRun, KindSchedSteal:
		return "sched"
	case KindTierSpill, KindTierDemote, KindTierPromote:
		return "tier"
	case KindNodeJoin, KindNodeLeave, KindDirRebalance:
		return "cluster"
	case KindHandler:
		return "app"
	case KindMeshExport, KindMeshRestore:
		return "mesh"
	default:
		return "mcast"
	}
}

// Event is one recorded occurrence. Events are fixed-size so the ring
// buffer never allocates after construction.
type Event struct {
	// TS is the start time in nanoseconds since the tracer's epoch.
	TS int64
	// Dur is the duration in nanoseconds; zero for instant events.
	Dur int64
	// Kind classifies the event.
	Kind Kind
	// ID identifies the subject (object ID, message handler, ...); its
	// meaning is per-kind.
	ID uint64
	// Arg carries the kind-specific scalar payload (bytes, attempt,
	// dropped count, worker index, ...).
	Arg int64
}

// DefaultCapacity is the per-tracer ring size used when none is given.
const DefaultCapacity = 1 << 15

// Tracer records events for one node into a bounded ring. When the ring
// wraps, the oldest events are overwritten and counted in Dropped. All
// methods are safe for concurrent use and safe on a nil receiver.
type Tracer struct {
	pid   int
	label string
	epoch time.Time

	mu      sync.Mutex
	buf     []Event
	next    uint64 // total events ever emitted
	dropped uint64
}

// NewTracer returns a standalone tracer (pid 0). Tracers that should share
// a timeline must come from one TraceSink instead.
func NewTracer(label string, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{label: label, epoch: time.Now(), buf: make([]Event, 0, capacity)}
}

// Enabled reports whether events are being recorded (false on nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Label returns the tracer's display label.
func (t *Tracer) Label() string {
	if t == nil {
		return ""
	}
	return t.label
}

// now returns nanoseconds since the epoch.
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Emit records an instant event.
func (t *Tracer) Emit(k Kind, id uint64, arg int64) {
	if t == nil {
		return
	}
	t.record(Event{TS: t.now(), Kind: k, ID: id, Arg: arg})
}

// Start opens a duration event; call End on the returned span to record
// it. The zero Span (from a nil tracer) is inert.
func (t *Tracer) Start(k Kind, id uint64) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, kind: k, id: id, start: t.now()}
}

// Span is an open duration event.
type Span struct {
	t     *Tracer
	kind  Kind
	id    uint64
	start int64
}

// End closes the span with the kind-specific argument.
func (s Span) End(arg int64) {
	if s.t == nil {
		return
	}
	s.t.record(Event{TS: s.start, Dur: s.t.now() - s.start, Kind: s.kind, ID: s.id, Arg: arg})
}

func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next%uint64(cap(t.buf))] = ev
		t.dropped++
	}
	t.next++
	t.mu.Unlock()
}

// Dropped returns how many old events were overwritten by ring wrap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns the number of events currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Events returns a copy of the recorded events sorted by start time.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Event(nil), t.buf...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// CountByKind tallies the recorded events per kind.
func (t *Tracer) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ev := range t.buf {
		out[ev.Kind]++
	}
	return out
}

// TraceSink groups the tracers of one capture: every tracer created from a
// sink shares its epoch (so timelines align) and gets a distinct pid (so
// Perfetto renders each node — across clusters — as its own process).
type TraceSink struct {
	epoch    time.Time
	capacity int

	mu      sync.Mutex
	tracers []*Tracer
}

// NewTraceSink returns an empty sink. capacity <= 0 selects
// DefaultCapacity for each tracer.
func NewTraceSink(capacity int) *TraceSink {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &TraceSink{epoch: time.Now(), capacity: capacity}
}

// NewTracer creates a tracer labeled label sharing the sink's epoch. Safe
// on a nil sink, which returns a nil (disabled) tracer.
func (s *TraceSink) NewTracer(label string) *Tracer {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	t := &Tracer{pid: len(s.tracers), label: label, epoch: s.epoch,
		buf: make([]Event, 0, s.capacity)}
	s.tracers = append(s.tracers, t)
	s.mu.Unlock()
	return t
}

// Tracers returns the tracers created so far.
func (s *TraceSink) Tracers() []*Tracer {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Tracer(nil), s.tracers...)
}
