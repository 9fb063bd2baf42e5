// Package storage implements the MRTS storage layer: the facility that holds
// serialized mobile objects out of core. The underlying medium is hidden
// behind the Store interface — the paper mentions regular files, block
// devices and databases; this package provides a real file-backed store, an
// in-memory store for tests, and a latency-injecting wrapper that models a
// disk's service time (seek + transfer) so that comp/IO overlap remains
// measurable on fast hardware.
//
// Stores block; the paper's "blocking and non-blocking operations for loading
// and storing a mobile object" are internal/swapio's, which queues, orders and
// retries (Retrier) operations on a Store. This functionality is used by the
// out-of-core layer and is not normally called by applications.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"time"
	"unsafe"

	"mrts/internal/bufpool"
	"mrts/internal/clock"
)

// Key identifies a stored object within a Store.
type Key string

// ErrNotFound is returned when loading a key that was never stored.
var ErrNotFound = errors.New("storage: object not found")

// ErrCapacity is returned by capacity-bounded stores when a Put would push
// the resident bytes past the configured cap. It is permanent for retry
// purposes (IsPermanent): retrying the same write cannot make room — the
// caller must place the blob elsewhere (the tier layer spills to the next
// tier down).
var ErrCapacity = errors.New("storage: capacity exhausted")

// Store is a byte-blob store for serialized mobile objects.
//
// Stores may additionally implement BufGetter/BufPutter (bufio.go), the
// pooled ownership-transfer path the swap hot path uses to avoid per-blob
// allocations; the package-level GetBuf/PutBuf helpers fall back to the
// methods below for stores that do not.
type Store interface {
	// Put stores data under key, replacing any previous value. The store
	// must not retain data after Put returns (implementations copy or write
	// out) — callers may recycle the buffer immediately on success.
	Put(key Key, data []byte) error
	// Get returns the data stored under key.
	Get(key Key) ([]byte, error)
	// Delete removes key. Deleting a missing key is not an error.
	Delete(key Key) error
	// Has reports whether key is present.
	Has(key Key) bool
	// Close releases resources.
	Close() error
}

// Stats counts store traffic.
type Stats struct {
	Puts, Gets, Deletes uint64
	BytesWritten        uint64
	BytesRead           uint64
}

// ErrClosed is returned by operations submitted to a store, or to a layer
// over one, that has been closed.
var ErrClosed = errors.New("storage: async store closed")

// MemStore is an in-memory Store, used in tests and as the "remote memory as
// out-of-core media" configuration sketched in the paper's conclusion. Built
// with NewMemCap it enforces a byte capacity: a donor node leases a bounded
// slice of its RAM, it does not surrender all of it.
//
// A stored value is one buffer the map owns: Put copies into a pooled one,
// PutBuf keeps the caller's (bufio.go). GetBuf lends that buffer out
// read-only; a value replaced or deleted while lent stays allocated until
// its last borrower's ReleaseBuf recycles it.
type MemStore struct {
	mu       sync.RWMutex
	data     map[Key][]byte
	lent     map[*byte]loan // by base pointer, each stored buffer out on loan
	stats    Stats
	resident int64
	capacity int64 // <= 0 means unbounded
	rejected uint64
}

// loan counts a stored buffer's borrowers. dead holds the buffer once the
// store has let go of it (replaced or deleted), for the last ReleaseBuf to
// recycle.
type loan struct {
	n    int
	dead []byte
}

// NewMem returns an empty, unbounded in-memory store.
func NewMem() *MemStore { return NewMemCap(0) }

// NewMemCap returns an in-memory store that rejects writes (ErrCapacity)
// once resident payload bytes would exceed capacity. capacity <= 0 means
// unbounded.
func NewMemCap(capacity int64) *MemStore {
	return &MemStore{data: make(map[Key][]byte), lent: make(map[*byte]loan), capacity: capacity}
}

// Put implements Store. On a capacity-bounded store a write that would push
// the resident bytes past the cap fails loudly with ErrCapacity (replacing
// an existing value accounts only the size delta). The store keeps a pooled
// copy of data, never data itself.
func (s *MemStore) Put(key Key, data []byte) error {
	cp := bufpool.Clone(data)
	err := s.keep(key, cp)
	if err != nil {
		bufpool.Put(cp)
	}
	return err
}

// keep stores buf itself under key. A refused write leaves buf with the
// caller; on success the buffer it replaces is let go.
func (s *MemStore) keep(key Key, buf []byte) error {
	s.mu.Lock()
	old := s.data[key]
	next := s.resident - int64(len(old)) + int64(len(buf))
	if s.capacity > 0 && next > s.capacity {
		s.rejected++
		resident := s.resident
		s.mu.Unlock()
		return fmt.Errorf("put %q (%d bytes, %d/%d resident): %w",
			string(key), len(buf), resident, s.capacity, ErrCapacity)
	}
	s.data[key] = buf
	s.resident = next
	s.stats.Puts++
	s.stats.BytesWritten += uint64(len(buf))
	old = s.letGoLocked(old)
	s.mu.Unlock()
	if old != nil {
		bufpool.Put(old)
	}
	return nil
}

// letGoLocked is called when the store stops holding buf (nil when it held
// nothing). It returns buf for the caller to recycle, or nil when there is
// nothing to recycle yet: a buffer out on loan is recycled by its last
// ReleaseBuf.
func (s *MemStore) letGoLocked(buf []byte) []byte {
	if cap(buf) == 0 {
		return nil
	}
	base := unsafe.SliceData(buf)
	l, ok := s.lent[base]
	if !ok {
		return buf
	}
	l.dead = buf
	s.lent[base] = l
	return nil
}

// Get implements Store. The result is a copy the caller owns.
func (s *MemStore) Get(key Key) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.data[key]
	if !ok {
		return nil, ErrNotFound
	}
	s.stats.Gets++
	s.stats.BytesRead += uint64(len(d))
	cp := make([]byte, len(d))
	copy(cp, d)
	return cp, nil
}

// Delete implements Store.
func (s *MemStore) Delete(key Key) error {
	s.mu.Lock()
	old := s.data[key]
	s.resident -= int64(len(old))
	delete(s.data, key)
	s.stats.Deletes++
	old = s.letGoLocked(old)
	s.mu.Unlock()
	if old != nil {
		bufpool.Put(old)
	}
	return nil
}

// Has implements Store.
func (s *MemStore) Has(key Key) bool {
	s.mu.RLock()
	_, ok := s.data[key]
	s.mu.RUnlock()
	return ok
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// Stats returns a snapshot of the store counters.
func (s *MemStore) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// BytesResident returns the total payload bytes currently stored.
func (s *MemStore) BytesResident() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.resident
}

// Capacity returns the configured byte cap (<= 0 means unbounded).
func (s *MemStore) Capacity() int64 { return s.capacity }

// Rejected returns how many writes ErrCapacity refused.
func (s *MemStore) Rejected() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rejected
}

// DiskModel is the service-time model of the latency-injecting wrapper: each
// operation costs Seek plus size/BytesPerSec of transfer time.
type DiskModel struct {
	Seek        time.Duration
	BytesPerSec float64
}

// ServiceTime returns the modeled duration of an operation on size bytes.
func (m DiskModel) ServiceTime(size int) time.Duration {
	d := m.Seek
	if m.BytesPerSec > 0 {
		d += time.Duration(float64(size) / m.BytesPerSec * float64(time.Second))
	}
	return d
}

// LatencyStore wraps a Store and injects the DiskModel's service time into
// every operation, serializing access like a single disk spindle.
type LatencyStore struct {
	inner Store
	model DiskModel
	clk   clock.Clock

	// The spindle's timeline: one operation at a time, each starting when the
	// one before it ends.
	mu        sync.Mutex
	busyUntil time.Time
}

// NewLatency wraps inner with the given model on the wall clock.
func NewLatency(inner Store, model DiskModel) *LatencyStore {
	return NewLatencyClock(inner, model, nil)
}

// NewLatencyClock is NewLatency with an injected clock (nil means the wall
// clock). Under a virtual clock the spindle's service time elapses in
// simulated time only.
func NewLatencyClock(inner Store, model DiskModel, clk clock.Clock) *LatencyStore {
	return &LatencyStore{inner: inner, model: model, clk: clock.Or(clk)}
}

// occupy books the spindle for one operation on size bytes and sleeps until
// that operation's modeled end. The booking is an absolute time, like the
// network model's delivery time, and the sleep is outside the mutex: a
// caller that wakes late is late alone, where a lock held across the sleep
// would bill its lateness to every operation behind it as seek time.
func (s *LatencyStore) occupy(size int) {
	d := s.model.ServiceTime(size)
	if d <= 0 {
		return
	}
	s.mu.Lock()
	now := s.clk.Now()
	start := now
	if s.busyUntil.After(start) {
		start = s.busyUntil
	}
	s.busyUntil = start.Add(d)
	wait := s.busyUntil.Sub(now)
	s.mu.Unlock()
	s.clk.Sleep(wait)
}

// Put implements Store.
func (s *LatencyStore) Put(key Key, data []byte) error {
	s.occupy(len(data))
	return s.inner.Put(key, data)
}

// Get implements Store. A miss still costs one seek: the disk finds out a
// block is absent only after positioning the head.
func (s *LatencyStore) Get(key Key) ([]byte, error) {
	d, err := s.inner.Get(key)
	if err != nil {
		s.occupy(0)
		return nil, err
	}
	s.occupy(len(d))
	return d, nil
}

// Delete implements Store. Directory updates cost one seek.
func (s *LatencyStore) Delete(key Key) error {
	s.occupy(0)
	return s.inner.Delete(key)
}

// Has implements Store. Probing the directory costs one seek.
func (s *LatencyStore) Has(key Key) bool {
	s.occupy(0)
	return s.inner.Has(key)
}

// Close implements Store.
func (s *LatencyStore) Close() error { return s.inner.Close() }
