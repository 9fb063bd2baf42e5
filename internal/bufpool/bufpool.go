// Package bufpool is the swap path's size-classed buffer arena. Every blob
// that moves through the out-of-core pipeline — encode on eviction, the read
// on a demand load, the wire frames of the remote-memory protocol — is a
// short-lived []byte whose size repeats run after run; allocating each one
// fresh makes the garbage collector a hidden participant in every swap. The
// arena recycles them instead: Get hands out a buffer from a size class, Put
// returns it, and the steady-state evict/load cycle touches the heap not at
// all. The classes run from 512 B to 16 MiB, four to each doubling (512, 640,
// 768, 896, 1024, 1280, …), so a pooled buffer is at most a quarter larger
// than the request: the memory store keeps the buffers it is handed, and
// what a class wastes it wastes for as long as the blob is stored.
//
// Ownership rule (the single rule every layer follows): a buffer obtained
// from Get/Clone/Writer.Detach has exactly one owner at a time. The owner may
// hand it off (storage.PutBuf, comm.Endpoint.SendBuf) — after a successful
// hand-off the previous owner must neither read nor release it — or release
// it with Put. A store may keep a buffer handed to it and lend it out again
// (storage.GetBuf): a lent buffer is read-only, and its borrower gives it
// back with the store's ReleaseBuf, never with Put.
//
// The free lists are plain bounded stacks, not sync.Pool: sync.Pool drops
// its contents at GC (reintroducing the allocations the arena exists to
// remove) and boxing a []byte into its interface{} allocates on every Put.
// Misuse is detectable: SetPoison (enabled by default under the `poolcheck`
// build tag) fills released buffers with a poison byte, so any reader holding
// a buffer past its release sees garbage instead of silently stale data.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// Class i holds buffers of (4 + i%4) << (7 + i/4) bytes: 512 B up to
	// 16 MiB, four classes to each doubling. Smaller requests round up to the
	// smallest class; larger ones fall through to the allocator (they are
	// rare enough not to matter and pooling them would pin large dead
	// memory).
	minClassSize = 512
	maxClassSize = 16 << 20
	numClasses   = 61

	// maxFreePerClass bounds each class's free list; beyond it, released
	// buffers are dropped to the GC. The pool is a cache, not a reservation.
	maxFreePerClass = 64

	// poisonByte fills released buffers when poisoning is on. 0xDB reads as
	// "dead buffer" in hex dumps and is never a valid length prefix start.
	poisonByte = 0xDB
)

type class struct {
	mu   sync.Mutex
	free [][]byte
}

var classes [numClasses]class

// Counters for tests and the bench harness (hits = Get served from a free
// list, misses = Get that had to allocate, drops = Put of an unpoolable or
// overflowing buffer).
var hits, misses, puts, drops atomic.Uint64

// poison controls poison-on-put. Tests flip it with SetPoison; the poolcheck
// build tag turns it on for a whole build.
var poison atomic.Bool

// classSize returns the capacity of class idx.
func classSize(idx int) int { return (4 + idx&3) << (7 + idx>>2) }

// classIndex returns the smallest class holding n bytes, or -1 when the
// request is beyond the largest class. For n > 512, n-1 shifted right by e
// lands in [4, 8): its top three bits, which name the doubling (e) and the
// quarter within it.
func classIndex(n int) int {
	switch {
	case n < 0 || n > maxClassSize:
		return -1
	case n <= minClassSize:
		return 0
	}
	e := bits.Len(uint(n-1)) - 3
	return 4*(e-7) + (n-1)>>e - 3
}

// classOf returns the class whose size is exactly cap(b), or -1 — only
// exact-cap buffers are recycled, so a foreign slice with a coincidental
// capacity cannot corrupt the arena's size invariant.
func classOf(b []byte) int {
	c := cap(b)
	if c < minClassSize {
		return -1
	}
	if idx := classIndex(c); idx >= 0 && classSize(idx) == c {
		return idx
	}
	return -1
}

// Get returns a buffer of length n whose capacity is the smallest class that
// fits (or exactly n beyond the largest class). The contents are unspecified.
func Get(n int) []byte {
	idx := classIndex(n)
	if idx < 0 {
		misses.Add(1)
		return make([]byte, n)
	}
	cl := &classes[idx]
	cl.mu.Lock()
	if last := len(cl.free) - 1; last >= 0 {
		b := cl.free[last]
		cl.free[last] = nil
		cl.free = cl.free[:last]
		cl.mu.Unlock()
		hits.Add(1)
		return b[:n]
	}
	cl.mu.Unlock()
	misses.Add(1)
	return make([]byte, n, classSize(idx))
}

// Put releases b back to its size class. Buffers whose capacity is not
// exactly a class size (including every slice that never came from the pool)
// are dropped silently — Put is always safe to call on a buffer you own.
// After Put the caller must not touch b again.
func Put(b []byte) {
	idx := classOf(b)
	if idx < 0 {
		drops.Add(1)
		return
	}
	if poison.Load() {
		b = b[:cap(b)]
		for i := range b {
			b[i] = poisonByte
		}
	}
	cl := &classes[idx]
	cl.mu.Lock()
	if cl.free == nil {
		cl.free = make([][]byte, 0, maxFreePerClass)
	}
	if len(cl.free) < maxFreePerClass {
		cl.free = append(cl.free, b)
		cl.mu.Unlock()
		puts.Add(1)
		return
	}
	cl.mu.Unlock()
	drops.Add(1)
}

// Snug reports whether cap(b) is no more than Get(len(b)) would give it: a
// buffer worth keeping as it is, where a roomier one is worth a copy.
func Snug(b []byte) bool {
	idx := classIndex(len(b))
	if idx < 0 {
		return cap(b) == len(b)
	}
	return cap(b) <= classSize(idx)
}

// Clone returns a pooled copy of src (the caller owns it; release with Put).
func Clone(src []byte) []byte {
	dst := Get(len(src))
	copy(dst, src)
	return dst
}

// SetPoison enables or disables poison-on-put: released buffers are filled
// with 0xDB so a read-after-release surfaces as garbled data instead of a
// silent race. The poolcheck build tag enables it for the whole build.
func SetPoison(on bool) { poison.Store(on) }

// Stats is a snapshot of the arena counters.
type Stats struct {
	Hits, Misses, Puts, Drops uint64
}

// Snapshot returns the current counters.
func Snapshot() Stats {
	return Stats{Hits: hits.Load(), Misses: misses.Load(), Puts: puts.Load(), Drops: drops.Load()}
}

// Writer is an io.Writer accumulating into a pooled buffer — the encode
// target of the eviction path. Obtain one with GetWriter, take the result
// with Detach, and return the Writer with PutWriter; EncodeTo never sees the
// pooling at all.
type Writer struct {
	buf []byte
}

// writerPool recycles the Writer headers themselves (pointer-shaped, so the
// sync.Pool round trip does not allocate).
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// GetWriter returns an empty Writer whose backing buffer has at least
// sizeHint capacity.
func GetWriter(sizeHint int) *Writer {
	if sizeHint < 1 {
		sizeHint = 1
	}
	w := writerPool.Get().(*Writer)
	if w.buf == nil || cap(w.buf) < sizeHint {
		if w.buf != nil {
			Put(w.buf)
		}
		w.buf = Get(sizeHint)
	}
	w.buf = w.buf[:0]
	return w
}

// PutWriter releases w; a backing buffer not taken by Detach stays cached in
// the Writer for its next use.
func PutWriter(w *Writer) {
	if w.buf != nil {
		w.buf = w.buf[:0]
	}
	writerPool.Put(w)
}

// Write implements io.Writer, growing through the pool.
func (w *Writer) Write(p []byte) (int, error) {
	w.grow(len(p))
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// WriteByte appends one byte.
func (w *Writer) WriteByte(c byte) error {
	w.grow(1)
	w.buf = append(w.buf, c)
	return nil
}

// grow ensures capacity for n more bytes, recycling the old backing buffer.
func (w *Writer) grow(n int) {
	need := len(w.buf) + n
	if need <= cap(w.buf) {
		return
	}
	nb := Get(need * 2)
	nb = nb[:len(w.buf)]
	copy(nb, w.buf)
	Put(w.buf)
	w.buf = nb
}

// Len returns the bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Truncate discards all but the first n written bytes, keeping the backing
// buffer. n must not exceed Len.
func (w *Writer) Truncate(n int) {
	if n < 0 || n > len(w.buf) {
		panic("bufpool: Truncate out of range")
	}
	w.buf = w.buf[:n]
}

// Bytes returns the accumulated bytes, still owned by the Writer.
func (w *Writer) Bytes() []byte { return w.buf }

// Detach hands the accumulated buffer to the caller (who releases it with
// Put) and leaves the Writer empty.
func (w *Writer) Detach() []byte {
	b := w.buf
	w.buf = nil
	return b
}
