package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mrts/internal/clock"
	"mrts/internal/comm"
	"mrts/internal/obs"
	"mrts/internal/ooc"
	"mrts/internal/sched"
	"mrts/internal/storage"
	"mrts/internal/tier"
)

// Tests of the swap pipeline's four mechanisms: I/O completions serviced at
// handler boundaries, clean evictions that write nothing, and budget-sized
// admission of demand loads (the spindle timeline is the storage package's).

const (
	hPeek HandlerID = 40 // read-only: reports Count
	hSpin HandlerID = 41
	hPoke HandlerID = 42 // CallInline(hInc) on the pointer in arg
)

// settleSwaps waits until no eviction or load is in flight.
func settleSwaps(t *testing.T, rt *Runtime) {
	t.Helper()
	for i := 0; rt.swapOps.Load() > 0; i++ {
		if i > 100_000 {
			t.Fatal("swap operations never settled")
		}
		rt.clk.Sleep(100 * time.Microsecond)
	}
}

func metric(rt *Runtime, key string) float64 {
	reg := obs.NewRegistry()
	rt.PublishMetrics(reg, "")
	return reg.Snapshot()[key]
}

// TestIOCompletionServicedAtHandlerBoundary: one processor, one worker, a
// stream of 1 ms spinning handlers and one load outstanding on a store with
// no latency. The runtime polls for completions between handlers, so the load
// is installed before the fourth handler starts; a worker that never offers
// the processor leaves the I/O goroutine to the 10 ms preemption tick.
// Counted in handlers, not timed.
func TestIOCompletionServicedAtHandlerBoundary(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := comm.NewInProc(1, comm.LatencyModel{})
	defer tr.Close()
	pool := sched.NewWorkStealing(1)
	defer pool.Close()
	rt := NewRuntime(Config{
		Endpoint: tr.Endpoint(0), Pool: pool, Factory: testFactory,
		Mem: ooc.Config{Budget: 1 << 20}, Store: storage.NewMem(), IOWorkers: 1,
	})
	defer rt.Close()

	target := rt.CreateObject(&testObj{Count: 1, Ballast: make([]byte, 256)})
	if got := evictAndSettle(t, rt, target); got != stOut {
		t.Fatalf("eviction settled in state %d, want stOut", got)
	}
	var started, sawAt atomic.Int32
	rt.Register(hSpin, func(c *Ctx, arg []byte) {
		n := started.Add(1)
		if n == 1 {
			c.Runtime().Prefetch(target) // the outstanding load
		} else if sawAt.Load() == 0 && c.InCore(target) {
			sawAt.Store(n)
		}
		for t0 := time.Now(); time.Since(t0) < time.Millisecond; {
		}
	})
	spinners := []MobilePtr{rt.CreateObject(&testObj{}), rt.CreateObject(&testObj{}), rt.CreateObject(&testObj{})}
	for i := 0; i < 24; i++ {
		rt.Post(spinners[i%len(spinners)], hSpin, nil)
	}
	WaitQuiescence(rt)
	if n := sawAt.Load(); n == 0 || n > 4 {
		t.Fatalf("the load was first seen installed by handler %d of %d (0 = never), want by the fourth", n, started.Load())
	}
}

// countingStore counts the writes that reach the store the runtime was given.
type countingStore struct {
	storage.Store
	puts atomic.Int64
}

func (s *countingStore) Put(k storage.Key, d []byte) error {
	s.puts.Add(1)
	return s.Store.Put(k, d)
}

func registerPipelineHandlers(rt *Runtime, counts chan int64) {
	rt.Register(hInc, func(c *Ctx, arg []byte) { c.Object().(*testObj).Count++ })
	rt.RegisterReadOnly(hPeek, func(c *Ctx, arg []byte) { counts <- c.Object().(*testObj).Count })
	rt.Register(hPoke, func(c *Ctx, arg []byte) {
		if !c.CallInline(getPtr(arg), hInc, nil) {
			counts <- -1
			return
		}
		counts <- 0
	})
}

// TestCleanEvictionWritesNothing walks one object through the dirty bit's
// life on three store stacks: written once, reloaded and only read, it is
// dropped without a write and comes back intact; a mutating handler, posted
// or inline, makes the next eviction write again.
func TestCleanEvictionWritesNothing(t *testing.T) {
	stacks := map[string]func(t *testing.T) storage.Store{
		"mem": func(*testing.T) storage.Store { return storage.NewMem() },
		"tier": func(t *testing.T) storage.Store {
			ts, err := tier.New(tier.Config{Fast: storage.NewMem(), Slow: storage.NewMem(), Capacity: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			return ts
		},
		"transient-faults": func(*testing.T) storage.Store {
			return storage.NewFault(storage.NewMem(), storage.FaultConfig{FailFirstGets: 2, FailFirstPuts: 2})
		},
	}
	for name, build := range stacks {
		t.Run(name, func(t *testing.T) {
			st := &countingStore{Store: build(t)}
			rt, rec := newSwapFaultRuntime(t, st, 1<<20, storage.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Microsecond})
			counts := make(chan int64, 4)
			registerPipelineHandlers(rt, counts)
			ballast := make([]byte, 300)
			for i := range ballast {
				ballast[i] = byte(i)
			}
			ptr := rt.CreateObject(&testObj{Count: 7, Ballast: ballast})
			poker := rt.CreateObject(&testObj{})

			evict := func(wantWrite bool) {
				t.Helper()
				before, drops := st.puts.Load(), rt.cleanDrops.Load()
				if got := evictAndSettle(t, rt, ptr); got != stOut {
					t.Fatalf("eviction settled in state %d, want stOut", got)
				}
				wrote, dropped := st.puts.Load() > before, rt.cleanDrops.Load() > drops
				if wrote != wantWrite || dropped == wantWrite {
					t.Fatalf("eviction wrote=%v clean-drop=%v, want wrote=%v", wrote, dropped, wantWrite)
				}
			}
			peek := func(want int64) {
				t.Helper()
				rt.Post(ptr, hPeek, nil)
				if got := <-counts; got != want {
					t.Fatalf("object reloaded with Count %d, want %d", got, want)
				}
				waitQuiesceOrFail(t, rt)
			}

			evict(true) // never stored: dirty
			peek(7)     // load, read only
			evict(false)
			peek(7) // and it is still all there
			rt.mu.Lock()
			lo := rt.objects[ptr]
			rt.mu.Unlock()
			lo.mu.Lock()
			if o := lo.obj.(*testObj); len(o.Ballast) != len(ballast) || o.Ballast[299] != ballast[299] {
				t.Fatalf("ballast did not survive the clean drop")
			}
			lo.mu.Unlock()

			rt.Post(ptr, hInc, nil) // a mutating handler dirties it
			waitQuiesceOrFail(t, rt)
			evict(true)
			peek(8)
			evict(false)

			peek(8) // back in core, clean; now mutate it inline
			var arg [8]byte
			putPtr(arg[:], ptr)
			rt.Post(poker, hPoke, arg[:])
			if got := <-counts; got != 0 {
				t.Fatalf("CallInline did not run")
			}
			waitQuiesceOrFail(t, rt)
			evict(true)
			peek(9)

			if errs := rec.snapshot(); len(errs) != 0 {
				t.Fatalf("swap errors: %v", errs)
			}
			if got := metric(rt, "swap.clean_drops"); got != 2 {
				t.Fatalf("swap.clean_drops = %v, want 2", got)
			}
		})
	}
}

// TestArrivalsStartDirty: an object that arrives by migration or from a
// checkpoint has never been written to this node's store by an eviction, so
// its first eviction writes — even if only read-only handlers ran on it.
func TestArrivalsStartDirty(t *testing.T) {
	newNode := func(tr *comm.InProcTransport, node int, st storage.Store) (*Runtime, chan int64) {
		pool := sched.NewWorkStealing(2)
		rt := NewRuntime(Config{
			Endpoint: tr.Endpoint(comm.NodeID(node)), Pool: pool, Factory: testFactory,
			Mem: ooc.Config{Budget: 1 << 20}, Store: st, NumNodes: 2,
		})
		t.Cleanup(func() { rt.Close(); pool.Close() })
		counts := make(chan int64, 4)
		registerPipelineHandlers(rt, counts)
		return rt, counts
	}
	// all names every runtime of the cluster, for the termination count.
	firstEvictionWrites := func(rt *Runtime, st *countingStore, counts chan int64, ptr MobilePtr, want int64, all ...*Runtime) {
		t.Helper()
		rt.Post(ptr, hPeek, nil)
		if got := <-counts; got != want {
			t.Fatalf("Count = %d, want %d", got, want)
		}
		WaitQuiescence(all...)
		before := st.puts.Load()
		if got := evictAndSettle(t, rt, ptr); got != stOut {
			t.Fatalf("eviction settled in state %d, want stOut", got)
		}
		if st.puts.Load() == before || rt.cleanDrops.Load() != 0 {
			t.Fatalf("first eviction after arrival wrote nothing (clean drops %d)", rt.cleanDrops.Load())
		}
	}

	t.Run("migrate-in", func(t *testing.T) {
		tr := comm.NewInProc(2, comm.LatencyModel{})
		t.Cleanup(func() { tr.Close() })
		rt0, _ := newNode(tr, 0, storage.NewMem())
		st1 := &countingStore{Store: storage.NewMem()}
		rt1, counts1 := newNode(tr, 1, st1)
		ptr := rt0.CreateObject(&testObj{Count: 3, Ballast: make([]byte, 100)})
		if err := rt0.Migrate(ptr, 1); err != nil {
			t.Fatal(err)
		}
		WaitQuiescence(rt0, rt1)
		firstEvictionWrites(rt1, st1, counts1, ptr, 3, rt0, rt1)
	})

	t.Run("checkpoint-restore", func(t *testing.T) {
		tr := comm.NewInProc(2, comm.LatencyModel{})
		t.Cleanup(func() { tr.Close() })
		rt0, _ := newNode(tr, 0, storage.NewMem())
		ptr := rt0.CreateObject(&testObj{Count: 5, Ballast: make([]byte, 100)})
		ckpt := storage.NewMem()
		if err := rt0.Checkpoint(ckpt, "ck"); err != nil {
			t.Fatal(err)
		}
		tr2 := comm.NewInProc(2, comm.LatencyModel{})
		t.Cleanup(func() { tr2.Close() })
		st := &countingStore{Store: storage.NewMem()}
		rt, counts := newNode(tr2, 0, st)
		if err := rt.Restore(ckpt, "ck"); err != nil {
			t.Fatal(err)
		}
		firstEvictionWrites(rt, st, counts, ptr, 5, rt)
	})
}

// admissionRuntime builds one node on a virtual clock with room for eight
// 1 KB objects and n of them created and all out of core.
func admissionRuntime(t *testing.T, n int) (rt *Runtime, ptrs []MobilePtr, objSize int64) {
	t.Helper()
	const ballast = 1000
	objSize = int64((&testObj{Ballast: make([]byte, ballast)}).SizeHint())
	vclk := clock.NewVirtual()
	t.Cleanup(vclk.Stop)
	tr := comm.NewInProcClock(1, comm.LatencyModel{}, vclk)
	pool := sched.NewWorkStealing(2)
	rt = NewRuntime(Config{
		Endpoint: tr.Endpoint(0), Pool: pool, Factory: testFactory,
		Mem: ooc.Config{Budget: 8 * objSize}, Clock: vclk,
		Store: storage.NewLatencyClock(storage.NewMem(), storage.DiskModel{Seek: 50 * time.Microsecond}, vclk),
	})
	t.Cleanup(func() { rt.Close(); pool.Close(); tr.Close() })
	for i := 0; i < n; i++ {
		ptrs = append(ptrs, rt.CreateObject(&testObj{Ballast: make([]byte, ballast)}))
		settleSwaps(t, rt) // one eviction at a time: creation must not shape the queue-depth mark
	}
	for _, p := range ptrs {
		if rt.InCore(p) {
			evictAndSettle(t, rt, p)
		}
	}
	if s := rt.Mem().Snapshot(); s.InCore != 0 {
		t.Fatalf("%d objects still in core after setup", s.InCore)
	}
	return rt, ptrs, objSize
}

// TestAdmissionKeepsTheBudget: 64 out-of-core objects get a message at once
// on a budget of eight. Handlers take four disk service times, so loads
// outrun them. Admission holds the loads back to what fits: the accounted
// memory stays inside the budget, no eviction pass stalls, the I/O queue
// stays within two windows, and every handler runs.
func TestAdmissionKeepsTheBudget(t *testing.T) {
	const n, window = 64, 8
	rt, ptrs, _ := admissionRuntime(t, n)
	var ran atomic.Int32
	rt.Register(hInc, func(c *Ctx, arg []byte) {
		c.Object().(*testObj).Count++
		c.Runtime().Clock().Sleep(200 * time.Microsecond)
		ran.Add(1)
	})
	for _, p := range ptrs {
		rt.Post(p, hInc, nil)
	}
	waitQuiesceOrFail(t, rt)
	settleSwaps(t, rt)

	if got := ran.Load(); got != n {
		t.Fatalf("%d handlers ran, want %d", got, n)
	}
	s := rt.Mem().Snapshot()
	if s.PeakMemUsed > s.MemBudget {
		t.Errorf("accounted memory peaked at %d bytes on a budget of %d", s.PeakMemUsed, s.MemBudget)
	}
	if got := rt.EvictStalls(); got != 0 {
		t.Errorf("EvictStalls = %d, want 0", got)
	}
	if got := rt.IOStats().MaxQueueDepth; got > 2*window {
		t.Errorf("I/O queue depth reached %d, want <= %d", got, 2*window)
	}
	if got := metric(rt, "swap.deferred_loads"); got == 0 {
		t.Errorf("swap.deferred_loads = 0: admission never engaged")
	}
	if msgs := rt.CheckInvariants(true); len(msgs) > 0 {
		t.Errorf("invariants: %v", msgs)
	}
}

// TestAdmissionTerminatesAroundPins: the same kick with two objects locked
// and three collected by a multicast. Locks and collections load past
// admission and pin what they load; the waiters behind them must still all be
// admitted.
func TestAdmissionTerminatesAroundPins(t *testing.T) {
	const n = 64
	rt, ptrs, _ := admissionRuntime(t, n)
	var ran atomic.Int32
	rt.Register(hInc, func(c *Ctx, arg []byte) {
		c.Object().(*testObj).Count++
		c.Runtime().Clock().Sleep(200 * time.Microsecond)
		ran.Add(1)
	})
	for _, p := range ptrs[:2] {
		if !rt.Lock(p) {
			t.Fatalf("Lock(%v) found nothing local", p)
		}
	}
	for _, p := range ptrs {
		rt.Post(p, hInc, nil)
	}
	rt.PostMulticast(ptrs[10:13], 3, hInc, nil)
	waitQuiesceOrFail(t, rt)
	for _, p := range ptrs[:2] {
		rt.Unlock(p)
	}
	settleSwaps(t, rt)

	if got, want := ran.Load(), int32(n+3); got != want {
		t.Fatalf("%d handlers ran, want %d", got, want)
	}
	if msgs := rt.CheckInvariants(true); len(msgs) > 0 {
		t.Errorf("invariants: %v", msgs)
	}
}

// TestQuiescentSweepCatchesFalseReadOnly: a handler that mutates under a
// read-only registration leaves a clean object that no longer matches its
// stored copy; the quiescent sweep says so (and is silent for an honest one).
func TestQuiescentSweepCatchesFalseReadOnly(t *testing.T) {
	rt, _ := newSwapFaultRuntime(t, storage.NewMem(), 1<<20, storage.RetryPolicy{})
	counts := make(chan int64, 1)
	registerPipelineHandlers(rt, counts)
	const hLiar HandlerID = 43
	rt.RegisterReadOnly(hLiar, func(c *Ctx, arg []byte) { c.Object().(*testObj).Count++ })
	ptr := rt.CreateObject(&testObj{Count: 1, Ballast: make([]byte, 64)})
	evictAndSettle(t, rt, ptr)

	rt.Post(ptr, hPeek, nil)
	<-counts
	waitQuiesceOrFail(t, rt)
	if msgs := rt.CheckInvariants(true); len(msgs) > 0 {
		t.Fatalf("honest read-only handler flagged: %v", msgs)
	}
	rt.Post(ptr, hLiar, nil)
	waitQuiesceOrFail(t, rt)
	if msgs := rt.CheckInvariants(true); len(msgs) != 1 {
		t.Fatalf("mutation under a read-only registration: sweep reported %v, want one violation", msgs)
	}
}

// TestDrainLosingToInlineCallSettlesQueueLen: a drain that finds another
// worker's CallInline running on its object between two handlers gives up,
// and if the queue is empty by then the inline call's epilogue resubmits
// nothing. That exit must still tell the ooc layer the queue is empty, or the
// object stays pinned for admission (and Urgent for prefetch once evicted)
// with nothing left to run.
func TestDrainLosingToInlineCallSettlesQueueLen(t *testing.T) {
	rt, _ := newSwapFaultRuntime(t, storage.NewMem(), 1<<20, storage.RetryPolicy{})
	ptr := rt.CreateObject(&testObj{})
	id := oid(ptr)
	rt.mu.Lock()
	lo := rt.objects[ptr]
	rt.mu.Unlock()

	// The window itself, by hand: the drain has run its last message (which
	// it still counts as queued), and before it looks at the queue again an
	// inline call has taken the object.
	lo.mu.Lock()
	lo.scheduled, lo.running = true, true
	rt.mem.SetQueueLen(id, 1)
	lo.mu.Unlock()
	rt.drain(lo, nil)
	lo.mu.Lock()
	lo.running = false // the inline call returns: nothing queued, nothing to resubmit
	scheduled := lo.scheduled
	lo.mu.Unlock()

	if scheduled {
		t.Fatalf("the drain gave up but left the object marked scheduled")
	}
	if got := rt.mem.QueueLen(id); got != 0 {
		t.Fatalf("ooc layer counts %d messages queued on an idle object", got)
	}
	if fits, wait := rt.mem.Admits(2 << 20); fits || wait {
		t.Fatalf("Admits = (%v, %v) with nothing in core about to drain, want (false, false)", fits, wait)
	}
	if msgs := rt.CheckInvariants(true); len(msgs) > 0 {
		t.Fatalf("invariants: %v", msgs)
	}

	// And through the real race: posted and inline handlers interleave on one
	// object from two workers; whoever wins each round, the count settles.
	var ran atomic.Int32
	rt.Register(hInc, func(c *Ctx, arg []byte) { ran.Add(1) })
	rt.Register(hPoke, func(c *Ctx, arg []byte) {
		if !c.CallInline(ptr, hInc, nil) {
			ran.Add(1)
		}
	})
	poker := rt.CreateObject(&testObj{})
	const rounds = 500
	for i := 0; i < rounds; i++ {
		rt.Post(ptr, hInc, nil)
		rt.Post(poker, hPoke, nil)
	}
	waitQuiesceOrFail(t, rt)
	if got := ran.Load(); got != 2*rounds {
		t.Fatalf("%d handlers ran, want %d", got, 2*rounds)
	}
	if msgs := rt.CheckInvariants(true); len(msgs) > 0 {
		t.Fatalf("invariants after the race: %v", msgs)
	}
}
