package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mrts/internal/bufpool"
	"mrts/internal/clock"
	"mrts/internal/comm"
	"mrts/internal/obs"
	"mrts/internal/ooc"
	"mrts/internal/sched"
	"mrts/internal/storage"
	"mrts/internal/swapio"
)

// Config configures one node's runtime.
type Config struct {
	// Endpoint is this node's attachment to the cluster transport.
	Endpoint comm.Endpoint
	// Pool executes message handlers and their nested tasks. The pool's
	// worker count is the node's PE count.
	Pool sched.Pool
	// Factory constructs objects by type ID for reload and migration.
	Factory Factory
	// Mem configures the out-of-core layer (budget, policy, thresholds).
	Mem ooc.Config
	// Store holds serialized objects unloaded from memory.
	Store storage.Store
	// IOWorkers is the swap I/O scheduler's worker count (<= 0 means 2).
	IOWorkers int
	// Retry configures transparent retry with exponential backoff for
	// transient storage faults inside the I/O scheduler. The zero value
	// means a single attempt per operation.
	Retry storage.RetryPolicy
	// OnSwapError, when non-nil, receives every swap-path failure that
	// survived the retry budget: failed eviction writes (the object stays
	// in core) and failed loads (the object is lost and its queue dropped).
	// It runs on a runtime goroutine and must not block.
	OnSwapError func(SwapError)
	// Tracer is the node's instrumentation point: it times handler execution
	// and (through the I/O scheduler) the swap path, which is what Report
	// reads, and a tracer drawn from a TraceSink also records structured
	// events for the swap lifecycle (evict/load/retry/storefail/lost) and
	// handlers. The transport's wire time and the events of the transport
	// and the task pool join the same account by installing the tracer
	// there too (comm.Endpoint.SetTracer and
	// sched.Pool.SetTracer); cluster.New wires all three. Nil means a private
	// tracer on Clock that keeps the totals only.
	Tracer *obs.Tracer
	// PrefetchDepth bounds how many out-of-core objects the runtime loads
	// ahead of need when memory is available (<= 0 means 2).
	PrefetchDepth int
	// Directory selects the location-management policy (default DirLazy,
	// the paper's choice). Ignored when Locator is set.
	Directory DirectoryPolicy
	// NumNodes is the cluster size, needed by the eager directory policy
	// to broadcast migrations. Zero disables broadcasting. Ignored when
	// Locator is set.
	NumNodes int
	// Locator, when non-nil, replaces the home-anchored policy locator as
	// the routing seam: first-hop resolution, the location cache, and the
	// staleness-feedback fan-outs all go through it. Tests inject scripted
	// locators here to drive the routing edges.
	Locator Locator
	// Clock is the time source for message timestamps, handler accounting,
	// termination probing and swap waits. Nil means the wall clock; the
	// simulation harness injects a virtual clock. It is also the default
	// clock of the I/O scheduler and the retry backoff.
	Clock clock.Clock
}

// objState is the residency state of a local object.
type objState int32

const (
	stInCore objState = iota
	stStoring
	stOut
	stLoading
	// stLost is terminal: the object's blob could not be read back (or
	// decoded) after the retry budget, so the object is unreachable.
	// Messages to a lost object are dropped so termination still fires.
	stLost
	// stMoved is terminal for the record, not the object: it migrated away
	// and the record is out of the object table. Whoever still holds the
	// record routes again.
	stMoved
)

type localObject struct {
	mu     sync.Mutex
	ptr    MobilePtr
	typeID uint16
	obj    Object // nil unless in-core
	state  objState
	queue  []queued

	// The ownership flags; only own.go touches them.
	scheduled bool // a drain task is queued or running
	running   bool // a handler is executing right now
	migrating bool // a move holds the object, lo.mu released while it reads the blob
	wantLoad  bool // load requested while storing
	// wantDemand qualifies wantLoad: something is blocked on the object (a
	// lock), so the reload goes in at demand class.
	// At prefetch class memory pressure could cancel it, and with no message
	// queued on the object nothing would ever ask for it again.
	wantDemand bool
	// moves: where the migration requests that found the object held want
	// it, in arrival order; each holds one unit of rt.work until resume serves it.
	moves []NodeID
	// clean says the node's store holds this object's current encoding, so an
	// eviction has nothing to write. A committed eviction write sets it; any
	// handler not registered read-only clears it. Objects that arrive by
	// create, migration or restore start dirty.
	clean bool
	// admitWait: a queued message wants the object loaded and the load is
	// waiting in rt.adm for room (see admit.go).
	admitWait bool
}

// handlerEntry is a registered handler and what it promised.
type handlerEntry struct {
	fn       Handler
	readOnly bool
}

// Runtime is one node's MRTS instance.
type Runtime struct {
	node    NodeID
	ep      comm.Endpoint
	pool    sched.Pool
	factory Factory
	mem     *ooc.Manager
	io      *swapio.Scheduler
	tracer  *obs.Tracer
	clk     clock.Clock
	pfDepth int

	mu      sync.Mutex
	objects map[MobilePtr]*localObject
	parked  map[MobilePtr][]*appMsg
	seq     uint32

	// loc is the routing seam (first-hop resolution + location cache). It
	// lives outside rt.mu: Locate/Note never touch the object table, and
	// the locator never takes runtime locks.
	loc Locator

	hmu      sync.RWMutex
	handlers map[HandlerID]handlerEntry

	work    atomic.Int64 // messages materialized on this node, not yet done
	sent    atomic.Int64 // app/install messages sent to other nodes
	recv    atomic.Int64 // app/install messages received from other nodes
	swapOps atomic.Int64 // evictions/loads in flight (Close waits on this)

	loadFailures  atomic.Uint64
	storeFailures atomic.Uint64
	objectsLost   atomic.Uint64
	evictStalls   atomic.Uint64
	cleanDrops    atomic.Uint64 // evictions that wrote nothing
	movesParked   atomic.Uint64 // migration requests that had to wait for their object
	// writeback is the size of the objects committed to eviction whose write
	// has not landed: memory the accounting has let go of and the process has
	// not. writebackPeak is its high-water mark.
	writeback     atomic.Int64
	writebackPeak atomic.Int64
	adm           admission
	onSwapError   func(SwapError)
	semu          sync.Mutex
	swapErrs      []SwapError

	dstats dirStats

	closed atomic.Bool

	term *termState
}

// NewRuntime creates the runtime for one node and registers its transport
// handlers. The caller retains ownership of the Endpoint and Pool; the
// runtime owns the Store (wrapping it in the swap I/O scheduler) and closes
// it on Close.
func NewRuntime(cfg Config) *Runtime {
	if cfg.Endpoint == nil || cfg.Pool == nil || cfg.Store == nil {
		panic("core: Config requires Endpoint, Pool and Store")
	}
	if cfg.Factory == nil {
		cfg.Factory = func(t uint16) (Object, error) { return nil, ErrUnknownType }
	}
	if cfg.PrefetchDepth <= 0 {
		cfg.PrefetchDepth = 2
	}
	clk := clock.Or(cfg.Clock)
	mem := ooc.NewManager(cfg.Mem)
	// Mirror every absorbed retry into the event tracer, chaining any
	// observer the caller installed.
	retry := cfg.Retry
	userRetryHook := retry.OnRetry
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer("", clk)
	}
	retry.OnRetry = func(key storage.Key, attempt int, err error) {
		tracer.Emit(obs.KindSwapRetry, 0, int64(attempt))
		if userRetryHook != nil {
			userRetryHook(key, attempt, err)
		}
	}
	loc := cfg.Locator
	if loc == nil {
		loc = NewPolicyLocator(cfg.Directory, cfg.Endpoint.Node(), cfg.NumNodes)
	}
	rt := &Runtime{
		node:    cfg.Endpoint.Node(),
		ep:      cfg.Endpoint,
		pool:    cfg.Pool,
		factory: cfg.Factory,
		mem:     mem,
		loc:     loc,
		io: swapio.New(cfg.Store, swapio.Config{
			Workers: cfg.IOWorkers,
			Retry:   retry,
			Tracer:  tracer,
			Clock:   cfg.Clock,
		}),
		tracer:   tracer,
		clk:      clk,
		pfDepth:  cfg.PrefetchDepth,
		objects:  make(map[MobilePtr]*localObject),
		parked:   make(map[MobilePtr][]*appMsg),
		handlers: make(map[HandlerID]handlerEntry),
		term:     newTermState(),
	}
	rt.onSwapError = cfg.OnSwapError
	rt.ep.Register(wireApp, rt.onWireApp)
	rt.ep.Register(wireDirUpdate, rt.onWireDirUpdate)
	rt.ep.Register(wireInstall, rt.onWireInstall)
	rt.ep.Register(wireMigrateReq, rt.onWireMigrateReq)
	rt.ep.Register(wireTermProbe, rt.onWireTermProbe)
	rt.ep.Register(wireTermReply, rt.onWireTermReply)
	rt.ep.Register(wireTermAnnounce, rt.onWireTermAnnounce)
	return rt
}

// Node returns this runtime's node ID.
func (rt *Runtime) Node() NodeID { return rt.node }

// Mem returns the out-of-core residency manager (for stats and tests).
func (rt *Runtime) Mem() *ooc.Manager { return rt.mem }

// Tracer returns the node's tracer (never nil).
func (rt *Runtime) Tracer() *obs.Tracer { return rt.tracer }

// Report returns the node's comp/comm/disk time account since the tracer
// was created, over the pool's workers as its PEs.
func (rt *Runtime) Report() obs.Report { return rt.tracer.Report(rt.pool.Workers()) }

// Clock returns the runtime's injected time source (never nil).
func (rt *Runtime) Clock() clock.Clock { return rt.clk }

// Register installs a message handler under id. All nodes must register the
// same IDs before posting any messages (SPMD model).
func (rt *Runtime) Register(id HandlerID, h Handler) {
	rt.hmu.Lock()
	rt.handlers[id] = handlerEntry{fn: h}
	rt.hmu.Unlock()
}

// RegisterReadOnly is Register for a handler that leaves the object it runs
// on exactly as it found it: nothing EncodeTo writes may change. The runtime
// then knows that an object loaded from the store and touched only by such
// handlers still matches its stored copy, and evicts it without encoding or
// writing. It is a statement about the handler, not a setting: a handler
// that mutates under this registration loses the mutation at the next
// eviction (the simulator's quiescent sweep compares clean objects with
// their stored bytes to catch exactly that).
func (rt *Runtime) RegisterReadOnly(id HandlerID, h Handler) {
	rt.hmu.Lock()
	rt.handlers[id] = handlerEntry{fn: h, readOnly: true}
	rt.hmu.Unlock()
}

func (rt *Runtime) handler(id HandlerID) handlerEntry {
	rt.hmu.RLock()
	h := rt.handlers[id]
	rt.hmu.RUnlock()
	return h
}

func oid(p MobilePtr) ooc.ObjectID {
	return ooc.ObjectID(uint64(uint32(p.Home))<<32 | uint64(p.Seq))
}

func storeKey(p MobilePtr) storage.Key {
	return storage.Key(fmt.Sprintf("obj-%d-%d", p.Home, p.Seq))
}

// CreateObject registers obj as a new mobile object homed on this node and
// returns its mobile pointer.
//
// Peers that predict this node's pointer sequence (a shared placement does)
// can post to the pointer before the object exists; those messages park here,
// so creation must drain the parked set or they — and the work counter they
// hold — would be stranded forever.
func (rt *Runtime) CreateObject(obj Object) MobilePtr {
	rt.mu.Lock()
	rt.seq++
	ptr := MobilePtr{Home: rt.node, Seq: rt.seq}
	lo := &localObject{ptr: ptr, typeID: obj.TypeID(), obj: obj, state: stInCore}
	rt.objects[ptr] = lo
	parked := rt.parked[ptr]
	delete(rt.parked, ptr)
	rt.mu.Unlock()
	if err := rt.mem.Register(oid(ptr), int64(obj.SizeHint())); err != nil {
		panic(err) // impossible: seq is unique
	}
	if len(parked) > 0 {
		lo.mu.Lock()
		for _, m := range parked {
			lo.queue = append(lo.queue, queued{handler: m.handler, arg: m.arg})
		}
		rt.mem.SetQueueLen(oid(ptr), len(lo.queue))
		rt.resume(lo)
	}
	rt.maybeEvictForSoft()
	return ptr
}

// Post sends a one-sided message to the mobile object addressed by dst. The
// receiving object does not post a receive: its handler runs when the
// control layer schedules it. Post never blocks on the destination.
func (rt *Runtime) Post(dst MobilePtr, h HandlerID, arg []byte) {
	if rt.closed.Load() {
		return
	}
	rt.work.Add(1)
	rt.route(&appMsg{dst: dst, handler: h, arg: arg})
}

// route places m: into a local queue, a parked set, or onto the wire. The
// caller must have accounted m in rt.work.
func (rt *Runtime) route(m *appMsg) {
	if lo := rt.lookup(m.dst); lo != nil {
		rt.enqueueLocal(lo, queued{handler: m.handler, arg: m.arg})
		return
	}
	target := rt.loc.Locate(m.dst)
	if target == rt.node {
		// The locator says the object should be here but it is not: it is
		// in flight to us (migration), not created yet, or the view is
		// stale. Park the message; install/create/restore/dirUpdate/
		// ReRouteParked will re-route it. The object table is re-checked
		// under rt.mu so an install landing between the check above and the
		// park cannot strand the message: every path that makes a pointer
		// local drains the parked set under this same lock.
		rt.mu.Lock()
		if lo, ok := rt.objects[m.dst]; ok {
			rt.mu.Unlock()
			rt.enqueueLocal(lo, queued{handler: m.handler, arg: m.arg})
			return
		}
		rt.parked[m.dst] = append(rt.parked[m.dst], m)
		rt.mu.Unlock()
		return
	}
	if len(m.route) >= maxForwardHops {
		// The object is unreachable (lost to a failed install, or a
		// directory cycle): drop the message instead of forwarding it
		// forever. Termination then remains detectable — and the loss is
		// loud: counted, traced, and a quiescent invariant violation.
		rt.dstats.dropped.Add(1)
		rt.tracer.Emit(obs.KindRouteDrop, uint64(oid(m.dst)), int64(len(m.route)))
		rt.work.Add(-1)
		return
	}
	m.route = append(m.route, rt.node)
	rt.sent.Add(1)
	rt.work.Add(-1)
	if err := rt.ep.Send(target, wireApp, encodeApp(m)); err != nil {
		// Transport failure: the message is dropped; undo the sent count
		// (work was already released above).
		rt.sent.Add(-1)
	}
}

// onWireApp receives an application message from the transport.
func (rt *Runtime) onWireApp(msg comm.Message) {
	m, err := decodeApp(msg.Payload)
	if err != nil {
		return
	}
	rt.recv.Add(1)
	rt.work.Add(1)
	if lo := rt.lookup(m.dst); lo != nil {
		// Delivered: repair whatever stale nodes the locator wants told
		// (the lazy chain).
		if targets := rt.loc.FeedbackTargets(m.route); len(targets) > 0 {
			upd := encodeDirUpdate(m.dst, rt.node)
			for _, via := range targets {
				rt.dstats.dirUpdates.Add(1)
				_ = rt.ep.Send(via, wireDirUpdate, upd)
			}
		}
		rt.dstats.observeHops(len(m.route))
		rt.enqueueLocal(lo, queued{handler: m.handler, arg: m.arg})
		return
	}
	rt.dstats.forwarded.Add(1)
	rt.route(m)
}

func (rt *Runtime) onWireDirUpdate(msg comm.Message) {
	ptr, at, err := decodeDirUpdate(msg.Payload)
	if err != nil {
		return
	}
	if rt.lookup(ptr) == nil {
		rt.loc.Note(ptr, at)
	}
	rt.mu.Lock()
	parked := rt.parked[ptr]
	delete(rt.parked, ptr)
	rt.mu.Unlock()
	for _, m := range parked {
		rt.route(m)
	}
}

// ReRouteParked re-resolves every parked message against the locator and
// re-routes those whose first hop is no longer this node, for a locator
// whose answer changed without an install or directory update reaching this
// node: a parked message would otherwise wait forever (parked messages hold
// the work counter, so termination would never fire). Returns the number of
// messages re-routed.
func (rt *Runtime) ReRouteParked() int {
	rt.mu.Lock()
	var ms []*appMsg
	for ptr, list := range rt.parked {
		if rt.loc.Locate(ptr) != rt.node {
			ms = append(ms, list...)
			delete(rt.parked, ptr)
		}
	}
	rt.mu.Unlock()
	for _, m := range ms {
		rt.route(m)
	}
	return len(ms)
}

// enqueueLocal queues q for local object lo and makes sure progress happens
// (resume): a drain task if in-core, a load if on disk, and if something holds
// the object, whatever lets it go looks at the queue.
func (rt *Runtime) enqueueLocal(lo *localObject, q queued) {
	lo.mu.Lock()
	switch lo.state {
	case stLost:
		// The object is unreachable (load failed after retries). Drop the
		// message so termination is still detectable; the loss itself was
		// already surfaced via the counters and OnSwapError.
		lo.mu.Unlock()
		rt.work.Add(-1)
		return
	case stMoved:
		// The object left between the caller's table lookup and here. The
		// table no longer has this record and the locator knows where the
		// object went, so routing again makes progress.
		lo.mu.Unlock()
		rt.route(&appMsg{dst: lo.ptr, handler: q.handler, arg: q.arg})
		return
	}
	lo.queue = append(lo.queue, q)
	rt.mem.SetQueueLen(oid(lo.ptr), len(lo.queue))
	if lo.state == stLoading {
		// Already on its way in — but if it went in as a prefetch, a
		// handler is now blocked on it: promote it past the backlog. A
		// false return (the request just completed or was cancelled) is
		// benign; the load's own completion path sees the queued message.
		rt.io.Promote(storeKey(lo.ptr))
	}
	rt.resume(lo)
}

// drain executes lo's queued handlers until the queue empties or the object
// is no longer its to run: moved away between two handlers by a parked
// migration request, or held by another worker's CallInline, whose release
// resubmits the drain if messages are still queued. If none are, nobody comes
// back, so either way the exit leaves the manager the true queue length —
// under lo.mu, or an enqueue racing with the exit would be overwritten — and
// an object with nothing queued is no longer pinned, which is what a load
// waiting for admission waits for.
func (rt *Runtime) drain(lo *localObject, sc *sched.Ctx) {
	id := oid(lo.ptr)
	for {
		lo.mu.Lock()
		if len(lo.queue) == 0 || rt.tryAcquire(lo, toRun) != nil {
			lo.scheduled = false
			n := len(lo.queue)
			if lo.state != stMoved { // else the count is the new record's, if the object is back
				rt.mem.SetQueueLen(id, n)
			}
			var obj Object
			if n == 0 && rt.tryAcquire(lo, toRead) == nil {
				obj = lo.obj
			}
			lo.mu.Unlock()
			if n > 0 {
				return
			}
			if obj != nil {
				rt.mem.SetSize(id, int64(obj.SizeHint()))
			}
			rt.maybeEvictForSoft()
			rt.admitWaiting()
			rt.prefetchTick()
			return
		}
		// The manager's queue length is left as it is: until the handler
		// returns, the message being run counts as queued, so the object
		// stays pinned for admission and last among the victims.
		// Clear the slot: the backing array must not keep a handled
		// payload alive.
		q := lo.queue[0]
		lo.queue[0] = queued{}
		if lo.queue = lo.queue[1:]; len(lo.queue) == 0 {
			lo.queue = nil
		}
		obj := lo.obj
		lo.mu.Unlock()

		dirtied := rt.runHandler(lo, obj, q, sc, false)

		lo.mu.Lock()
		if dirtied {
			lo.clean = false
		}
		rt.release(lo)
		rt.work.Add(-1)
		rt.serviceIO()
	}
}

// serviceIO is the handler boundary of the paper's non-preemptive runtime,
// where it polls for I/O completions: while a swap operation is in flight the
// worker offers the processor, so an I/O goroutine whose disk wait is over
// runs now instead of at the Go scheduler's next preemption tick, 10 ms into
// a run of back-to-back handlers. With nothing in flight it is one atomic
// load.
func (rt *Runtime) serviceIO() {
	if rt.swapOps.Load() > 0 {
		runtime.Gosched()
	}
}

// runHandler executes q's handler on obj, which the caller holds for it
// (toRun), and reports whether the object may have changed: false only for a
// handler registered read-only. The span of a handler run from the object's
// queue is the PE's compute time; one called inline is already inside its
// caller's span, so it is recorded but not added again.
func (rt *Runtime) runHandler(lo *localObject, obj Object, q queued, sc *sched.Ctx, inline bool) (dirtied bool) {
	lo.assertRunning()
	ptr := lo.ptr
	h := rt.handler(q.handler)
	if h.fn == nil {
		return false
	}
	ctx := &Ctx{rt: rt, Self: ptr, obj: obj, sc: sc}
	var sp obs.Span
	if inline {
		sp = rt.tracer.Start(obs.KindHandler, uint64(oid(ptr)))
	} else {
		sp = rt.tracer.Timed(obs.KindHandler, uint64(oid(ptr)))
	}
	h.fn(ctx, q.arg)
	sp.End(int64(q.handler))
	rt.mem.Touch(oid(ptr))
	return !h.readOnly
}

// Counters for quiescence detection (see WaitQuiescence).

// Work returns the number of messages materialized on this node and not yet
// fully handled.
func (rt *Runtime) Work() int64 { return rt.work.Load() }

// SentCount returns the cumulative count of messages sent to other nodes.
func (rt *Runtime) SentCount() int64 { return rt.sent.Load() }

// RecvCount returns the cumulative count of messages received from other
// nodes.
func (rt *Runtime) RecvCount() int64 { return rt.recv.Load() }

// Close shuts the runtime's storage down. The caller must have established
// quiescence first (WaitQuiescence); Close cancels the queued prefetch
// backlog (nothing will consume it), waits for in-flight swap operations
// started by post-handler housekeeping, then closes the I/O scheduler and
// with it the store.
func (rt *Runtime) Close() error {
	if rt.closed.Swap(true) {
		return nil
	}
	rt.io.CancelPrefetches()
	for rt.swapOps.Load() > 0 {
		rt.clk.Sleep(100 * time.Microsecond)
	}
	return rt.io.Close()
}

// IOStats returns the swap I/O scheduler's statistics snapshot.
func (rt *Runtime) IOStats() swapio.Stats { return rt.io.Snapshot() }

// WaitQuiescence blocks until the whole set of runtimes is globally
// terminated: no handler running, no message queued or parked anywhere, and
// every sent message received. This is the termination condition of the
// paper's control layer ("when no message handlers are executing and no
// messages are being delivered"); with all simulated nodes sharing one
// process the detector reads the distributed counters directly instead of
// exchanging probe messages.
func WaitQuiescence(rts ...*Runtime) {
	clk := clock.Real()
	if len(rts) > 0 {
		clk = rts[0].clk // all nodes of one cluster share a clock
	}
	read := func() (work, sent, recv int64) {
		for _, rt := range rts {
			work += rt.Work()
			sent += rt.SentCount()
			recv += rt.RecvCount()
		}
		return
	}
	for {
		w1, s1, r1 := read()
		if w1 == 0 && s1 == r1 {
			// Double-read: stable across a second observation means no
			// message was in flight between the two reads.
			clk.Sleep(200 * time.Microsecond)
			w2, s2, r2 := read()
			if w2 == 0 && s2 == r2 && s2 == s1 && r2 == r1 {
				return
			}
			continue
		}
		clk.Sleep(500 * time.Microsecond)
	}
}

// encodeObject serializes obj into a pooled buffer. The caller owns the
// returned blob; on the eviction path ownership passes straight to the I/O
// scheduler (which hands it to the store or back to the arena), so the
// steady-state swap cycle allocates nothing here.
func encodeObject(obj Object) ([]byte, error) {
	w := bufpool.GetWriter(obj.SizeHint())
	err := obj.EncodeTo(w)
	blob := w.Detach()
	bufpool.PutWriter(w)
	if err != nil {
		bufpool.Put(blob)
		blob = nil
	}
	return blob, err
}

// readerPool recycles the bytes.Reader wrapped around each decode source;
// no DecodeFrom implementation retains its reader past the call.
var readerPool = sync.Pool{New: func() any { return bytes.NewReader(nil) }}

func (rt *Runtime) decodeObject(typeID uint16, blob []byte) (Object, error) {
	obj, err := rt.factory(typeID)
	if err != nil {
		return nil, err
	}
	r := readerPool.Get().(*bytes.Reader)
	r.Reset(blob)
	err = obj.DecodeFrom(r)
	r.Reset(nil) // drop the blob reference before pooling
	readerPool.Put(r)
	return obj, err
}
