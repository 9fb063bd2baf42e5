package swapio

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mrts/internal/storage"
)

// gatedStore blocks every Get until the test feeds a token into release,
// and reports each Get's key on started (when non-nil) as the worker picks
// it up — the instrument for freezing the pipeline mid-flight.
type gatedStore struct {
	*storage.MemStore
	release chan struct{}
	started chan storage.Key
}

func newGated() *gatedStore {
	return &gatedStore{
		MemStore: storage.NewMem(),
		release:  make(chan struct{}),
		started:  make(chan storage.Key, 64),
	}
}

func (g *gatedStore) Get(key storage.Key) ([]byte, error) {
	if g.started != nil {
		g.started <- key
	}
	<-g.release
	return g.MemStore.Get(key)
}

// GetBuf gates identically: the scheduler reads through the pooled path, and
// the embedded MemStore's ungated GetBuf must not leak past the instrument.
func (g *gatedStore) GetBuf(key storage.Key) ([]byte, error) {
	if g.started != nil {
		g.started <- key
	}
	<-g.release
	return g.MemStore.GetBuf(key)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDemandBeatsPrefetchBacklog is the priority acceptance test: a demand
// load issued while >= 8 prefetches sit queued must complete before the
// backlog drains.
func TestDemandBeatsPrefetchBacklog(t *testing.T) {
	st := newGated()
	for i := 0; i < 10; i++ {
		st.MemStore.Put(storage.Key(fmt.Sprintf("p%d", i)), []byte{byte(i)})
	}
	st.MemStore.Put("d", []byte("demand"))
	s := New(st, Config{Workers: 1})

	var mu sync.Mutex
	var order []string
	record := func(name string) func([]byte, error) {
		return func(_ []byte, err error) {
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}

	// p0 occupies the single worker (blocked in Get); p1..p9 queue behind it.
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("p%d", i)
		if !s.Load(storage.Key(name), uint64(i), Prefetch, record(name)) {
			t.Fatalf("prefetch %s refused", name)
		}
	}
	<-st.started // p0 dispatched
	waitFor(t, "9 queued prefetches", func() bool { return s.QueuedPrefetches() == 9 })
	if !s.Load("d", 100, Demand, record("d")) {
		t.Fatal("demand load refused")
	}

	for i := 0; i < 11; i++ {
		st.release <- struct{}{}
		if i < 10 {
			<-st.started // next dispatch (the last release has no successor)
		}
	}
	waitFor(t, "all loads done", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 11
	})

	mu.Lock()
	defer mu.Unlock()
	// p0 was already running when d arrived; d must be served immediately
	// after it, with the whole prefetch backlog still pending.
	if order[0] != "p0" || order[1] != "d" {
		t.Fatalf("demand did not jump the backlog: completion order %v", order)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCoalescing is the coalescing acceptance test: concurrent duplicate
// loads of one key issue exactly one storage read.
func TestCoalescing(t *testing.T) {
	st := newGated()
	st.MemStore.Put("k", []byte("blob"))
	s := New(st, Config{Workers: 1})

	var mu sync.Mutex
	done := 0
	cb := func(blob []byte, err error) {
		if err != nil || string(blob) != "blob" {
			t.Errorf("load returned %q, %v", blob, err)
		}
		mu.Lock()
		done++
		mu.Unlock()
	}
	if !s.Load("k", 1, Demand, cb) {
		t.Fatal("first load refused")
	}
	<-st.started // in flight, blocked in Get
	for i := 0; i < 5; i++ {
		if !s.Load("k", 1, Demand, cb) {
			t.Fatalf("duplicate load %d refused", i)
		}
	}
	st.release <- struct{}{}
	waitFor(t, "all 6 callbacks", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return done == 6
	})
	if gets := st.MemStore.Stats().Gets; gets != 1 {
		t.Fatalf("expected exactly 1 storage read, got %d", gets)
	}
	if c := s.Snapshot().Coalesced; c != 5 {
		t.Fatalf("expected 5 coalesced, got %d", c)
	}
	s.Close()
}

// TestDemandJoinerPromotesQueuedPrefetch: a demand load of a key whose
// prefetch is still queued must pull that request into the demand queue.
func TestDemandJoinerPromotesQueuedPrefetch(t *testing.T) {
	st := newGated()
	st.MemStore.Put("busy", []byte("x"))
	st.MemStore.Put("k", []byte("y"))
	st.MemStore.Put("other", []byte("z"))
	s := New(st, Config{Workers: 1})

	var mu sync.Mutex
	var order []string
	rec := func(name string) func([]byte, error) {
		return func([]byte, error) { mu.Lock(); order = append(order, name); mu.Unlock() }
	}
	s.Load("busy", 0, Demand, rec("busy"))
	<-st.started // worker occupied
	s.Load("other", 1, Prefetch, rec("other"))
	s.Load("k", 2, Prefetch, rec("k"))
	// The demand joiner: coalesces AND promotes past "other".
	s.Load("k", 2, Demand, rec("k2"))
	if c := s.Snapshot().Coalesced; c != 1 {
		t.Fatalf("expected 1 coalesced, got %d", c)
	}
	for i := 0; i < 3; i++ {
		st.release <- struct{}{}
		if i < 2 {
			<-st.started
		}
	}
	waitFor(t, "4 callbacks", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 4
	})
	mu.Lock()
	defer mu.Unlock()
	if order[1] != "k" || order[2] != "k2" {
		t.Fatalf("promoted load did not run before the remaining prefetch: %v", order)
	}
	s.Close()
}

func TestPromote(t *testing.T) {
	st := newGated()
	st.MemStore.Put("busy", []byte("x"))
	st.MemStore.Put("k", []byte("y"))
	s := New(st, Config{Workers: 1})
	s.Load("busy", 0, Demand, func([]byte, error) {})
	<-st.started

	if s.Promote("missing") {
		t.Fatal("Promote of an unknown key must report false")
	}
	s.Load("k", 1, Prefetch, func([]byte, error) {})
	if !s.Promote("k") {
		t.Fatal("Promote of a queued prefetch must report true")
	}
	if n := s.QueuedPrefetches(); n != 0 {
		t.Fatalf("prefetch queue should be empty after promotion, has %d", n)
	}
	st.release <- struct{}{}
	<-st.started
	st.release <- struct{}{}
	s.Close()
	if w := s.Snapshot().DemandWaits; w < 1 {
		t.Fatalf("promoted load should be measured as a demand wait, waits=%d", w)
	}
}

func TestCancelPrefetches(t *testing.T) {
	st := newGated()
	st.MemStore.Put("busy", []byte("x"))
	for i := 0; i < 3; i++ {
		st.MemStore.Put(storage.Key(fmt.Sprintf("p%d", i)), []byte{byte(i)})
	}
	s := New(st, Config{Workers: 1})
	s.Load("busy", 0, Demand, func([]byte, error) {})
	<-st.started

	var mu sync.Mutex
	cancelled := 0
	for i := 0; i < 3; i++ {
		s.Load(storage.Key(fmt.Sprintf("p%d", i)), uint64(i), Prefetch, func(blob []byte, err error) {
			if !errors.Is(err, ErrCanceled) {
				t.Errorf("expected ErrCanceled, got %v", err)
			}
			mu.Lock()
			cancelled++
			mu.Unlock()
		})
	}
	if n := s.CancelPrefetches(); n != 3 {
		t.Fatalf("expected 3 cancelled, got %d", n)
	}
	mu.Lock()
	if cancelled != 3 {
		t.Fatalf("expected 3 ErrCanceled callbacks, got %d", cancelled)
	}
	mu.Unlock()
	// The coalescing map must be clear: a fresh load of a cancelled key is
	// a new request, not a join onto a dead one.
	if !s.Load("p0", 0, Demand, func([]byte, error) {}) {
		t.Fatal("fresh load of a cancelled key refused")
	}
	if c := s.Snapshot().Coalesced; c != 0 {
		t.Fatalf("fresh load after cancel must not coalesce, coalesced=%d", c)
	}
	st.release <- struct{}{}
	<-st.started
	st.release <- struct{}{}
	s.Close()
}

// TestBoundRejectsOnlyPrefetch: the queue bound of 64 requests is
// backpressure for speculation, never for demand loads or eviction writes.
func TestBoundRejectsOnlyPrefetch(t *testing.T) {
	const bound = 64
	st := newGated()
	for i := 0; i <= bound; i++ {
		st.MemStore.Put(storage.Key(fmt.Sprintf("p%d", i)), []byte{byte(i)})
	}
	st.MemStore.Put("busy", []byte("x"))
	st.MemStore.Put("d", []byte("y"))
	s := New(st, Config{Workers: 1})
	s.Load("busy", 0, Demand, func([]byte, error) {})
	<-st.started

	for i := 0; i < bound; i++ {
		if !s.Load(storage.Key(fmt.Sprintf("p%d", i)), uint64(1+i), Prefetch, func([]byte, error) {}) {
			t.Fatalf("prefetch %d under the bound refused", i)
		}
	}
	if s.Load(storage.Key(fmt.Sprintf("p%d", bound)), 1+bound, Prefetch, func([]byte, error) {}) {
		t.Fatal("prefetch beyond the bound accepted")
	}
	if s.Snapshot().Rejected != 1 {
		t.Fatalf("expected 1 rejection, got %d", s.Snapshot().Rejected)
	}
	// Demand and Write sail past the same full queue.
	if !s.Load("d", 2+bound, Demand, func([]byte, error) {}) {
		t.Fatal("demand load refused by the prefetch bound")
	}
	if !s.Store("w", 3+bound, func() ([]byte, error) { return []byte("w"), nil }, nil, func(int, error) {}) {
		t.Fatal("write refused by the prefetch bound")
	}
	if n := s.CancelPrefetches(); n != bound {
		t.Fatalf("cancelled %d queued prefetches, want %d", n, bound)
	}
	st.release <- struct{}{} // busy
	<-st.started             // d
	st.release <- struct{}{}
	s.Close()
}

// TestStorePipeline: encode runs on the worker, encoded sees the blob size
// before the Put, done gets the blob; an encode failure surfaces through
// done without touching the store.
func TestStorePipeline(t *testing.T) {
	st := storage.NewMem()
	s := New(st, Config{Workers: 1})

	var sized int
	ch := make(chan error, 1)
	s.Store("k", 1,
		func() ([]byte, error) { return []byte("encoded-blob"), nil },
		func(n int) { sized = n },
		func(n int, err error) { ch <- err })
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	if sized != len("encoded-blob") {
		t.Fatalf("encoded hook saw size %d", sized)
	}
	if got, err := st.Get("k"); err != nil || string(got) != "encoded-blob" {
		t.Fatalf("store holds %q, %v", got, err)
	}

	encodeErr := errors.New("boom")
	hookRan := false
	s.Store("bad", 2,
		func() ([]byte, error) { return nil, encodeErr },
		func(int) { hookRan = true },
		func(n int, err error) { ch <- err })
	if err := <-ch; !errors.Is(err, encodeErr) {
		t.Fatalf("expected encode error, got %v", err)
	}
	if hookRan {
		t.Fatal("encoded hook ran despite encode failure")
	}
	if st.Has("bad") {
		t.Fatal("failed encode must not write")
	}
	s.Close()
}

// TestCloseSemantics covers the shutdown satellite: Close with in-flight
// operations drains them, queued prefetches die with ErrCanceled, and every
// submission after Close is refused.
func TestCloseSemantics(t *testing.T) {
	st := newGated()
	st.MemStore.Put("busy", []byte("x"))
	st.MemStore.Put("d", []byte("y"))
	st.MemStore.Put("p", []byte("z"))
	s := New(st, Config{Workers: 1})

	inflight := make(chan error, 1)
	s.Load("busy", 0, Demand, func(_ []byte, err error) { inflight <- err })
	<-st.started
	queued := make(chan error, 1)
	s.Load("d", 1, Demand, func(_ []byte, err error) { queued <- err })
	pf := make(chan error, 1)
	s.Load("p", 2, Prefetch, func(_ []byte, err error) { pf <- err })

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	// The queued prefetch is cancelled by Close even while a worker is
	// stuck; the demand load must still be served.
	if err := <-pf; !errors.Is(err, ErrCanceled) {
		t.Fatalf("queued prefetch at Close: want ErrCanceled, got %v", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with an operation still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	st.release <- struct{}{}
	<-st.started
	st.release <- struct{}{}
	if err := <-inflight; err != nil {
		t.Fatal(err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued demand load at Close must drain, got %v", err)
	}
	<-closed

	if s.Load("d", 1, Demand, func([]byte, error) {}) {
		t.Fatal("Load accepted after Close")
	}
	if s.Store("k", 1, func() ([]byte, error) { return nil, nil }, nil, func(int, error) {}) {
		t.Fatal("Store accepted after Close")
	}
	if s.Delete("k") {
		t.Fatal("Delete accepted after Close")
	}
	if _, err := s.LoadSync("d", 1); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("LoadSync after Close: want ErrClosed, got %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestDeleteRemovesBlob(t *testing.T) {
	st := storage.NewMem()
	st.Put("k", []byte("x"))
	s := New(st, Config{Workers: 1})
	if !s.Delete("k") {
		t.Fatal("Delete refused")
	}
	waitFor(t, "blob deleted", func() bool { return !st.Has("k") })
	s.Close()
}

func TestLoadSync(t *testing.T) {
	st := storage.NewMem()
	st.Put("k", []byte("hello"))
	s := New(st, Config{Workers: 2})
	blob, err := s.LoadSync("k", 1)
	if err != nil || string(blob) != "hello" {
		t.Fatalf("LoadSync = %q, %v", blob, err)
	}
	if _, err := s.LoadSync("missing", 2); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("LoadSync of missing key: %v", err)
	}
	s.Close()
}

func TestStatsAdd(t *testing.T) {
	a := Stats{DemandLoads: 1, Coalesced: 2, MaxQueueDepth: 3, DemandWaits: 1,
		DemandWaitTotal: time.Second, DemandWaitMax: time.Second}
	b := Stats{DemandLoads: 2, Coalesced: 1, MaxQueueDepth: 7, DemandWaits: 3,
		DemandWaitTotal: time.Second, DemandWaitMax: 2 * time.Second}
	a.Add(b)
	if a.DemandLoads != 3 || a.Coalesced != 3 {
		t.Fatalf("counters should sum: %+v", a)
	}
	if a.MaxQueueDepth != 7 || a.DemandWaitMax != 2*time.Second {
		t.Fatalf("high-water marks should take the max: %+v", a)
	}
	if mean := a.DemandWaitMean(); mean != 500*time.Millisecond {
		t.Fatalf("mean = %v", mean)
	}
}
