// Package swapio implements the MRTS disk pipeline: a priority-classed,
// coalescing, bounded I/O scheduler through which every byte of the swap
// path flows. It is the storage layer's only asynchronous face (stores
// themselves block): requests carry an explicit class, a bounded worker pool
// serves them strictly in class order, and serialization (encode on
// eviction, the read itself on load) happens on the I/O workers so compute
// workers never stall inside drain.
//
// The three classes, in service order:
//
//	Demand   — a load a message handler is blocked on ("force loading").
//	Write    — an eviction write freeing memory for something else.
//	Prefetch — a speculative load ahead of need (the prefetch cache).
//
// Two further rules keep the pipeline honest. Per-key coalescing: a second
// load of a key already queued or in flight joins the first request instead
// of issuing a duplicate read, and a demand joiner promotes a still-queued
// prefetch to demand class. Bounded speculation: when the backlog reaches
// queueBound requests, further Prefetch submissions are refused (never Demand
// or Write — refusing those could deadlock the eviction path that runs on the
// workers themselves), and queued prefetches can be cancelled wholesale when
// memory pressure or shutdown supersedes them.
package swapio

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"mrts/internal/bufpool"
	"mrts/internal/clock"
	"mrts/internal/obs"
	"mrts/internal/storage"
)

// Class prioritizes a request; lower values are served first.
type Class uint8

// The three request classes, in strict service order.
const (
	// Demand is a load something is blocked on: a queued message, a
	// migration, a lock.
	Demand Class = iota
	// Write is an eviction write; it frees memory but blocks nobody
	// directly.
	Write
	// Prefetch is a speculative load ahead of need.
	Prefetch
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Demand:
		return "demand"
	case Write:
		return "write"
	case Prefetch:
		return "prefetch"
	default:
		return "invalid"
	}
}

// ErrCanceled is delivered to the callbacks of a queued prefetch that was
// cancelled before a worker picked it up.
var ErrCanceled = errors.New("swapio: request canceled")

// queueBound is the queued-request count at which further Prefetch
// submissions are refused. Demand and Write are never bounded.
const queueBound = 64

// Config configures a Scheduler.
type Config struct {
	// Workers is the I/O worker count (<= 0 means 2).
	Workers int
	// Retry is the retry policy applied to every Get/Put (see
	// storage.RetryPolicy). The zero value means a single attempt.
	Retry storage.RetryPolicy
	// Tracer times the scheduler's two spans — swap.wait (queue time of a
	// demand load) and swap.busy (a stretch with a worker serving a request)
	// — and receives swap.cancel events. Nil means a private tracer on Clock
	// that keeps the totals only.
	Tracer *obs.Tracer
	// Clock times retry backoff and the private tracer. Nil means the wall
	// clock. The Retry policy's own Clock, when set, wins for backoff.
	Clock clock.Clock
}

type opKind uint8

const (
	opLoad opKind = iota
	opStore
	opDelete
)

// request is one queued or running operation.
type request struct {
	op      opKind
	key     storage.Key
	id      uint64
	class   Class
	wait    obs.Span // open swap.wait span of a demand load
	running bool

	// Loads accumulate callbacks as duplicates coalesce onto the first.
	dones []func([]byte, error)

	// Stores pipeline serialization onto the worker: encode produces the
	// blob there, encoded (optional) observes its size between a successful
	// encode and the Put, done receives the blob's size and the final error.
	// done no longer receives the blob itself: the scheduler hands its
	// ownership to the store (or recycles it on failure), so by the time
	// done runs the bytes may already be reused.
	encode  func() ([]byte, error)
	encoded func(int)
	done    func(int, error)
}

// Stats is a point-in-time snapshot of scheduler activity. Aggregate
// snapshots from several schedulers with Add.
type Stats struct {
	// Submitted requests per class (accepted ones; rejections count in
	// Rejected).
	DemandLoads, Writes, Prefetches uint64
	// Completed requests per class (cancelled prefetches count in
	// Cancelled, not here).
	CompletedDemand, CompletedWrites, CompletedPrefetch uint64
	// Coalesced counts loads that joined an in-flight request of the same
	// key instead of issuing a duplicate read.
	Coalesced uint64
	// Cancelled counts queued prefetches removed before running.
	Cancelled uint64
	// Rejected counts Prefetch submissions refused by the queue bound.
	Rejected uint64
	// QueueDepth is the currently queued (not yet running) request count;
	// MaxQueueDepth is its high-water mark.
	QueueDepth, MaxQueueDepth int
	// Demand-load queue-wait accounting: total and max time demand loads
	// sat queued before dispatch, and how many were measured.
	DemandWaits     uint64
	DemandWaitTotal time.Duration
	DemandWaitMax   time.Duration
	// Retries is the cumulative count of transient faults absorbed by the
	// retry layer.
	Retries uint64
	// BytesRead / BytesWritten count the payload bytes the scheduler moved
	// through the backing store (loads and eviction writes respectively).
	BytesRead    uint64
	BytesWritten uint64
	// PriorityInversions counts dispatches that handed a worker a Prefetch
	// while a Demand load sat queued. Strict class order makes this
	// impossible by construction, so any non-zero value is a scheduler bug;
	// the simulation harness asserts it stays zero.
	PriorityInversions uint64
}

// DemandWaitMean returns the mean demand-load queue wait (0 when none).
func (s Stats) DemandWaitMean() time.Duration {
	if s.DemandWaits == 0 {
		return 0
	}
	return s.DemandWaitTotal / time.Duration(s.DemandWaits)
}

// Add merges other into s (sums for counters, max for high-water marks).
func (s *Stats) Add(other Stats) {
	s.DemandLoads += other.DemandLoads
	s.Writes += other.Writes
	s.Prefetches += other.Prefetches
	s.CompletedDemand += other.CompletedDemand
	s.CompletedWrites += other.CompletedWrites
	s.CompletedPrefetch += other.CompletedPrefetch
	s.Coalesced += other.Coalesced
	s.Cancelled += other.Cancelled
	s.Rejected += other.Rejected
	s.QueueDepth += other.QueueDepth
	if other.MaxQueueDepth > s.MaxQueueDepth {
		s.MaxQueueDepth = other.MaxQueueDepth
	}
	s.DemandWaits += other.DemandWaits
	s.DemandWaitTotal += other.DemandWaitTotal
	if other.DemandWaitMax > s.DemandWaitMax {
		s.DemandWaitMax = other.DemandWaitMax
	}
	s.Retries += other.Retries
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
	s.PriorityInversions += other.PriorityInversions
}

// Scheduler is the swap-path I/O scheduler for one node. It owns the backing
// store: Close drains the pending demand and write work, cancels queued
// prefetches, and closes the store.
type Scheduler struct {
	st     storage.Store
	retry  *storage.Retrier
	tracer *obs.Tracer

	mu     sync.Mutex
	cond   *sync.Cond
	queues [numClasses][]*request
	loads  map[storage.Key]*request // queued or running loads, by key
	queued int
	closed bool
	wg     sync.WaitGroup
	// The open swap.busy span, and how many workers are inside it.
	serving int
	busy    obs.Span

	// Counters, under mu.
	submitted [numClasses]uint64
	completed [numClasses]uint64
	coalesced uint64
	cancelled uint64
	rejected  uint64
	maxDepth  int

	demandWaits     uint64
	demandWaitTotal time.Duration
	demandWaitMax   time.Duration
	inversions      uint64

	// Byte counters, outside mu: workers bump them mid-operation.
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
}

// New returns a running Scheduler over st. The Scheduler owns st and closes
// it on Close.
func New(st storage.Store, cfg Config) *Scheduler {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2
	}
	retry := cfg.Retry
	if retry.Clock == nil {
		retry.Clock = cfg.Clock
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer("", cfg.Clock)
	}
	s := &Scheduler{
		st:     st,
		retry:  storage.NewRetrier(retry),
		tracer: tracer,
		loads:  make(map[storage.Key]*request),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// Backing returns the underlying store, for the few paths (checkpointing)
// that need synchronous access outside the scheduler's queue.
func (s *Scheduler) Backing() storage.Store { return s.st }

// Retries returns the cumulative count of absorbed transient faults.
func (s *Scheduler) Retries() uint64 { return s.retry.Retries() }

// QueuedPrefetches returns the number of queued prefetch-class requests —
// the feedback signal the prefetch policy throttles on.
func (s *Scheduler) QueuedPrefetches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queues[Prefetch])
}

// Load schedules a read of key at the given class (Write is not a load
// class and is treated as Demand). done runs on an I/O worker with the blob
// and the post-retry error — decode there, not on a compute worker — or,
// for a cancelled prefetch, on the canceller's goroutine with ErrCanceled.
//
// The blob is owned by the scheduler's read path and is recycled as soon as
// every callback of the (possibly coalesced) request has returned: done must
// decode or copy, never retain the blob past its return. Use LoadSync for a
// caller-owned result.
//
// A load of a key already queued or in flight coalesces: done joins the
// existing request's callback list and no second read is issued; a Demand
// joiner additionally promotes a still-queued prefetch. Load reports whether
// the request was accepted (or joined); it refuses when the scheduler is
// closed, or for Prefetch class when the backlog is at the bound.
func (s *Scheduler) Load(key storage.Key, id uint64, class Class, done func([]byte, error)) bool {
	if class == Write {
		class = Demand
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if r, ok := s.loads[key]; ok {
		r.dones = append(r.dones, done)
		s.coalesced++
		if class == Demand && !r.running && r.class == Prefetch {
			s.promoteLocked(r)
		}
		s.mu.Unlock()
		return true
	}
	if class == Prefetch && s.queued >= queueBound {
		s.rejected++
		s.mu.Unlock()
		return false
	}
	r := &request{op: opLoad, key: key, id: id, class: class,
		dones: []func([]byte, error){done}}
	if class == Demand {
		r.wait = s.tracer.Timed(obs.KindSwapWait, id)
	}
	s.loads[key] = r
	s.pushLocked(r)
	s.mu.Unlock()
	return true
}

// LoadSync is Load at Demand class, blocking for the result — the migration
// path's synchronous read. It coalesces with any in-flight load of key.
// Never call it from an I/O worker callback: with one worker it would wait
// on itself. The returned blob is caller-owned (a pooled copy of the
// scheduler-owned read buffer); recycling it with bufpool.Put when done is
// optional but keeps the steady state allocation-free.
func (s *Scheduler) LoadSync(key storage.Key, id uint64) ([]byte, error) {
	type result struct {
		blob []byte
		err  error
	}
	ch := make(chan result, 1)
	if !s.Load(key, id, Demand, func(blob []byte, err error) {
		if err == nil {
			blob = bufpool.Clone(blob) // the original is recycled after this callback
		} else {
			blob = nil
		}
		ch <- result{blob, err}
	}) {
		return nil, storage.ErrClosed
	}
	r := <-ch
	return r.blob, r.err
}

// Store schedules an eviction write. encode runs on an I/O worker (the
// pipelined serialization) and should produce a pooled buffer
// (bufpool.Writer / bufpool.Get): the scheduler takes ownership of it,
// handing it to the store via the ownership-transfer write path (recycled on
// write, not copied) or recycling it itself on failure. encoded, when
// non-nil, observes the blob size between a successful encode and the Put —
// the hook the runtime uses to record the serialized size; done receives the
// blob's size and the final error. When encode itself fails, done gets
// (0, encodeErr) and encoded never runs. Store reports whether the request
// was accepted; writes are never bounded, only a closed scheduler refuses
// them (and then nothing runs).
func (s *Scheduler) Store(key storage.Key, id uint64, encode func() ([]byte, error), encoded func(int), done func(int, error)) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	r := &request{op: opStore, key: key, id: id, class: Write,
		encode: encode, encoded: encoded, done: done}
	s.pushLocked(r)
	s.mu.Unlock()
	return true
}

// Delete schedules removal of key's blob (write class, fire-and-forget) so
// migrated-away and destroyed objects do not leak disk. It reports whether
// the request was accepted.
func (s *Scheduler) Delete(key storage.Key) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	r := &request{op: opDelete, key: key, class: Write}
	s.pushLocked(r)
	s.mu.Unlock()
	return true
}

// Promote upgrades a still-queued prefetch load of key to Demand class (the
// object now blocks a handler). It reports whether a load of key is in
// flight at all — false means the caller must issue its own demand load.
func (s *Scheduler) Promote(key storage.Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.loads[key]
	if !ok {
		return false
	}
	if !r.running && r.class == Prefetch {
		s.promoteLocked(r)
	}
	return true
}

// promoteLocked moves a queued prefetch to the demand queue and starts its
// wait measurement. Caller holds s.mu; r must be queued (not running).
func (s *Scheduler) promoteLocked(r *request) {
	q := s.queues[r.class]
	for i, qr := range q {
		if qr == r {
			s.queues[r.class] = append(q[:i], q[i+1:]...)
			break
		}
	}
	r.class = Demand
	r.wait = s.tracer.Timed(obs.KindSwapWait, r.id)
	s.queues[Demand] = append(s.queues[Demand], r)
	s.cond.Signal()
}

// CancelPrefetches removes every queued prefetch and invokes its callbacks
// with ErrCanceled on the caller's goroutine (running requests are never
// interrupted). It returns the number cancelled. Used when memory pressure
// or shutdown supersedes the speculation.
func (s *Scheduler) CancelPrefetches() int {
	s.mu.Lock()
	victims := s.cancelQueuedPrefetchesLocked()
	s.mu.Unlock()
	for _, r := range victims {
		for _, d := range r.dones {
			d(nil, ErrCanceled)
		}
	}
	return len(victims)
}

// cancelQueuedPrefetchesLocked detaches the queued prefetches without
// invoking callbacks. Caller holds s.mu and must run the callbacks after
// releasing it.
func (s *Scheduler) cancelQueuedPrefetchesLocked() []*request {
	victims := s.queues[Prefetch]
	s.queues[Prefetch] = nil
	s.queued -= len(victims)
	for _, r := range victims {
		delete(s.loads, r.key)
		s.cancelled++
		s.tracer.Emit(obs.KindSwapCancel, r.id, 0)
	}
	return victims
}

// Close stops intake, cancels the queued prefetches, drains the queued
// demand loads and writes, waits for the workers and closes the backing
// store. Submissions after Close return false. Close is idempotent.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	victims := s.cancelQueuedPrefetchesLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, r := range victims {
		for _, d := range r.dones {
			d(nil, ErrCanceled)
		}
	}
	s.wg.Wait()
	return s.st.Close()
}

// Snapshot returns the current statistics.
func (s *Scheduler) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		DemandLoads:        s.submitted[Demand],
		Writes:             s.submitted[Write],
		Prefetches:         s.submitted[Prefetch],
		CompletedDemand:    s.completed[Demand],
		CompletedWrites:    s.completed[Write],
		CompletedPrefetch:  s.completed[Prefetch],
		Coalesced:          s.coalesced,
		Cancelled:          s.cancelled,
		Rejected:           s.rejected,
		QueueDepth:         s.queued,
		MaxQueueDepth:      s.maxDepth,
		DemandWaits:        s.demandWaits,
		DemandWaitTotal:    s.demandWaitTotal,
		DemandWaitMax:      s.demandWaitMax,
		Retries:            s.retry.Retries(),
		BytesRead:          s.bytesRead.Load(),
		BytesWritten:       s.bytesWritten.Load(),
		PriorityInversions: s.inversions,
	}
}

// pushLocked enqueues r and wakes one worker. Caller holds s.mu.
func (s *Scheduler) pushLocked(r *request) {
	s.queues[r.class] = append(s.queues[r.class], r)
	s.submitted[r.class]++
	s.queued++
	if s.queued > s.maxDepth {
		s.maxDepth = s.queued
	}
	s.cond.Signal()
}

// popLocked removes the highest-priority queued request (nil when empty).
// Caller holds s.mu.
func (s *Scheduler) popLocked() *request {
	for c := Class(0); c < numClasses; c++ {
		if q := s.queues[c]; len(q) > 0 {
			r := q[0]
			s.queues[c] = q[1:]
			s.queued--
			return r
		}
	}
	return nil
}

// worker serves requests until the scheduler is closed and drained. The
// swap.busy span opens when the first worker takes a request and closes when
// the last one is done, so its total is the union of the workers' service
// intervals: what the disk layer was busy for, however many served at once.
// It laps at every completion in between, so a disk that never goes idle is
// still accounted as the run goes, at most one request behind.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for s.queued == 0 && !s.closed {
			s.cond.Wait()
		}
		r := s.popLocked()
		if r == nil {
			// Closed and drained.
			s.mu.Unlock()
			return
		}
		r.running = true
		if r.class == Prefetch && len(s.queues[Demand]) > 0 {
			s.inversions++
		}
		if r.op == opLoad && r.class == Demand {
			w := r.wait.End(0)
			s.demandWaits++
			s.demandWaitTotal += w
			if w > s.demandWaitMax {
				s.demandWaitMax = w
			}
		}
		if s.serving == 0 {
			s.busy = s.tracer.Timed(obs.KindSwapBusy, 0)
		}
		s.serving++
		s.mu.Unlock()
		s.execute(r)
		s.mu.Lock()
		if s.serving--; s.serving == 0 {
			s.busy.End(0)
		} else {
			s.busy.Lap(0)
		}
	}
}

// execute runs r on the calling worker and invokes its callbacks.
func (s *Scheduler) execute(r *request) {
	switch r.op {
	case opLoad:
		// DoGetBuf rather than Do(closure): the closure would heap-allocate
		// per load and this path must stay allocation-free.
		blob, err := s.retry.DoGetBuf(s.st, r.key)
		if err != nil {
			blob = nil
		}
		if err == nil {
			s.bytesRead.Add(uint64(len(blob)))
		}
		s.mu.Lock()
		// Remove from the coalescing map before the callbacks run: a
		// late joiner must issue a fresh read, not attach to a request
		// whose result is already being delivered.
		delete(s.loads, r.key)
		dones := r.dones
		r.dones = nil
		s.completed[r.class]++
		s.mu.Unlock()
		for _, d := range dones {
			d(blob, err)
		}
		// Every callback has returned; the read buffer goes back to the
		// store's read path (pool, or munmap for a mapped store).
		if blob != nil {
			storage.ReleaseBuf(s.st, blob)
		}
	case opStore:
		blob, err := r.encode()
		if err != nil {
			s.finish(Write)
			r.done(0, err)
			return
		}
		n := len(blob)
		if r.encoded != nil {
			r.encoded(n)
		}
		// PutBuf transfers ownership on success (one buffer from encode to
		// media, no copy for stores that write out); on failure the buffer
		// is still ours and goes back to the arena. DoPutBuf keeps the path
		// closure-free.
		err = s.retry.DoPutBuf(s.st, r.key, blob)
		if err != nil {
			bufpool.Put(blob)
		} else {
			s.bytesWritten.Add(uint64(n))
		}
		s.finish(Write)
		r.done(n, err)
	case opDelete:
		_ = s.st.Delete(r.key)
		s.finish(Write)
	}
}

func (s *Scheduler) finish(c Class) {
	s.mu.Lock()
	s.completed[c]++
	s.mu.Unlock()
}
