// Package obs is the unified observability layer of the MRTS: a
// low-overhead structured event tracer, the time account derived from it,
// and a metrics registry.
//
// A Tracer answers two questions from one set of Start/End calls. "How much
// time went where" — the comp/comm/disk breakdown and the Overlap of Tables
// IV-VI of the paper — is a Report: a pure function of per-kind duration
// totals the tracer always keeps (account.go). "What was this node doing at
// t=1.2s, and did the load overlap the refinement" needs per-event
// timelines: a tracer drawn from a TraceSink also records the swap lifecycle
// (evict/load/retry/lost), communication send/deliver, scheduler run/steal,
// handlers, tier moves, membership and mesh export/restore as fixed-size
// events in a per-node ring buffer, and
// the exporter in chrome.go turns a set of tracers into Chrome trace-event
// JSON that Perfetto renders directly. Every timestamp comes from the
// tracer's injected clock, so a simulated run reports virtual time.
//
// Everything here is nil-safe: a nil *Tracer accepts Emit/Start calls and
// does nothing, so instrumented code paths never need to branch on whether
// tracing is enabled.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mrts/internal/clock"
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
	// bytes). Its total is the modeled wire time of the sends, added by the
	// endpoint that applies the network model.
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
	// packed mobile pointer, Arg: handler ID). Its total counts the handlers
	// a pool worker ran from a queue; one called inline is inside its caller.
	KindHandler
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
	// KindNodeJoin marks a node returning to service, by rejoin or by
	// restart after a crash (ID: the node, Arg: the number of nodes in
	// service after it).
	KindNodeJoin
	// KindNodeLeave marks a node going out of service, drained or crashed
	// (ID: the node, Arg: the number of nodes in service after it).
	KindNodeLeave
	// KindDirRebalance marks one object a membership change migrates —
	// dealt off a leaving node, or back to the node it was born on (ID:
	// the object's packed mobile pointer, Arg: the destination node).
	KindDirRebalance
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
	// KindSwapBusy spans a stretch in which at least one swap I/O worker was
	// serving a request — encode and write, or read and decode — cut wherever
	// a request completes, so its total is the time the node's disk layer was
	// busy, queue waits excluded.
	KindSwapBusy
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
	case KindNodeJoin:
		return "node.join"
	case KindNodeLeave:
		return "node.leave"
	case KindDirRebalance:
		return "dir.rebalance"
	case KindRouteDrop:
		return "route.drop"
	case KindMeshExport:
		return "mesh.export"
	case KindMeshRestore:
		return "mesh.restore"
	case KindSwapBusy:
		return "swap.busy"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Track returns the timeline the kind belongs to when rendered (one named
// thread per track in the Chrome trace), or "" for a kind it does not know.
func (k Kind) Track() string {
	switch k {
	case KindSwapEvict, KindSwapLoad, KindSwapRetry, KindSwapStoreFail, KindSwapLost,
		KindSwapWait, KindSwapCancel, KindSwapStall, KindSwapBusy:
		return "swap"
	case KindCommSend, KindCommDeliver, KindRouteDrop:
		return "comm"
	case KindSchedRun, KindSchedSteal:
		return "sched"
	case KindTierSpill, KindTierDemote:
		return "tier"
	case KindNodeJoin, KindNodeLeave, KindDirRebalance:
		return "cluster"
	case KindHandler:
		return "app"
	case KindMeshExport, KindMeshRestore:
		return "mesh"
	default:
		return ""
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

// Tracer is one node's instrumentation point. It always keeps a duration
// total per kind, fed by timed spans and by Add; a tracer drawn from a
// TraceSink also records events into a bounded ring. When the ring wraps,
// the oldest events are overwritten and counted in Dropped. All methods are
// safe for concurrent use and safe on a nil receiver.
type Tracer struct {
	pid   int
	label string
	clk   clock.Clock
	epoch time.Time // TS 0 on clk
	born  int64     // TS at creation: where the time account's wall starts
	ring  bool      // events are recorded, not only totalled

	totals [numKinds]atomic.Int64 // nanoseconds

	mu      sync.Mutex
	buf     []Event
	next    uint64 // total events ever emitted
	dropped uint64
}

// NewTracer returns a tracer on clk (nil means the wall clock) that keeps
// the per-kind totals only: timed spans and Add work, events are not
// recorded. Tracers that record events come from a TraceSink.
func NewTracer(label string, clk clock.Clock) *Tracer {
	clk = clock.Or(clk)
	return &Tracer{label: label, clk: clk, epoch: clk.Now()}
}

// now returns nanoseconds since the epoch.
func (t *Tracer) now() int64 { return int64(t.clk.Since(t.epoch)) }

// Emit records an instant event.
func (t *Tracer) Emit(k Kind, id uint64, arg int64) {
	if t == nil || !t.ring {
		return
	}
	t.record(Event{TS: t.now(), Kind: k, ID: id, Arg: arg})
}

// Start opens a duration event; call End on the returned span to record
// it. Without a ring (or on a nil tracer) the span is the inert zero Span
// and the clock is not read.
func (t *Tracer) Start(k Kind, id uint64) Span {
	if t == nil || !t.ring {
		return Span{}
	}
	return Span{t: t, kind: k, id: id, start: t.now()}
}

// Timed opens a span that is measured whether or not events are recorded:
// End adds its duration to the kind's total. It is the one instrumentation
// point of the activities the time account is built from.
func (t *Tracer) Timed(k Kind, id uint64) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, kind: k, id: id, start: t.now(), timed: true}
}

// Add adds d to the kind's total: time that is modeled, not measured.
func (t *Tracer) Add(k Kind, d time.Duration) {
	if t != nil && d > 0 {
		t.totals[k].Add(int64(d))
	}
}

// Total returns the summed duration of the kind's timed spans and Adds.
func (t *Tracer) Total(k Kind) time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.totals[k].Load())
}

// Span is an open duration event.
type Span struct {
	t     *Tracer
	kind  Kind
	id    uint64
	start int64
	timed bool
}

// End closes the span with the kind-specific argument and returns its
// duration (0 for the inert span).
func (s Span) End(arg int64) time.Duration {
	if s.t == nil {
		return 0
	}
	return s.endAt(s.t.now(), arg)
}

// Lap closes the span as End does and reopens it at the same clock reading.
// Laps are contiguous, so their durations sum to the whole stretch, and the
// kind's total is never more than one lap behind an activity that is still
// going on.
func (s *Span) Lap(arg int64) {
	if s.t == nil {
		return
	}
	now := s.t.now()
	s.endAt(now, arg)
	s.start = now
}

func (s Span) endAt(now, arg int64) time.Duration {
	dur := now - s.start
	if s.timed {
		s.t.totals[s.kind].Add(dur)
	}
	if s.t.ring {
		s.t.record(Event{TS: s.start, Dur: dur, Kind: s.kind, ID: s.id, Arg: arg})
	}
	return time.Duration(dur)
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

// TraceSink groups the tracers of one capture: every tracer created from a
// sink on one clock shares an epoch (so timelines align) and gets a distinct
// pid (so Perfetto renders each node — across clusters — as its own
// process). On the wall clock the epoch is the sink's creation; on any other
// clock it is that clock's reading when the sink first saw it.
type TraceSink struct {
	capacity int

	mu      sync.Mutex
	epochs  map[clock.Clock]time.Time
	tracers []*Tracer
}

// NewTraceSink returns an empty sink. capacity <= 0 selects
// DefaultCapacity for each tracer.
func NewTraceSink(capacity int) *TraceSink {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	wall := clock.Real()
	return &TraceSink{capacity: capacity, epochs: map[clock.Clock]time.Time{wall: wall.Now()}}
}

// NewTracer creates a tracer labeled label on clk (nil means the wall
// clock) that records events. Safe on a nil sink, which returns a tracer
// that keeps totals only.
func (s *TraceSink) NewTracer(label string, clk clock.Clock) *Tracer {
	if s == nil {
		return NewTracer(label, clk)
	}
	clk = clock.Or(clk)
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch, ok := s.epochs[clk]
	if !ok {
		epoch = clk.Now()
		s.epochs[clk] = epoch
	}
	t := &Tracer{pid: len(s.tracers), label: label, clk: clk, epoch: epoch, ring: true,
		buf: make([]Event, 0, s.capacity)}
	t.born = t.now()
	s.tracers = append(s.tracers, t)
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
