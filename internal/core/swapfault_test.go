package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mrts/internal/clock"
	"mrts/internal/comm"
	"mrts/internal/ooc"
	"mrts/internal/sched"
	"mrts/internal/storage"
)

// The swap-fault tests run on a virtual clock: retry backoff, swap waits and
// the settle polls below advance simulated time, not wall time, so the whole
// file runs in milliseconds. time.After is only ever a hang watchdog.

// swapRecorder collects OnSwapError callbacks.
type swapRecorder struct {
	mu   sync.Mutex
	errs []SwapError
}

func (r *swapRecorder) record(e SwapError) {
	r.mu.Lock()
	r.errs = append(r.errs, e)
	r.mu.Unlock()
}

func (r *swapRecorder) snapshot() []SwapError {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SwapError(nil), r.errs...)
}

// newSwapFaultRuntime builds a single-node runtime over st with a retry
// policy and a recording swap-error callback.
func newSwapFaultRuntime(t *testing.T, st storage.Store, budget int64, retry storage.RetryPolicy) (*Runtime, *swapRecorder) {
	t.Helper()
	vclk := clock.NewVirtual()
	t.Cleanup(vclk.Stop)
	tr := comm.NewInProcClock(1, comm.LatencyModel{}, vclk)
	pool := sched.NewWorkStealing(2)
	rec := &swapRecorder{}
	retry.Clock = vclk
	rt := NewRuntime(Config{
		Endpoint:    tr.Endpoint(0),
		Pool:        pool,
		Factory:     testFactory,
		Mem:         ooc.Config{Budget: budget},
		Store:       st,
		Retry:       retry,
		Clock:       vclk,
		OnSwapError: rec.record,
	})
	t.Cleanup(func() {
		rt.Close()
		pool.Close()
		tr.Close()
	})
	rt.Register(hInc, func(ctx *Ctx, arg []byte) { ctx.Object().(*testObj).Count++ })
	return rt, rec
}

// evictAndSettle forces ptr out of core and waits for the async write to
// land (stOut) or be rolled back (stInCore). Returns the settled state.
func evictAndSettle(t *testing.T, rt *Runtime, ptr MobilePtr) objState {
	t.Helper()
	rt.mu.Lock()
	lo := rt.objects[ptr]
	rt.mu.Unlock()
	if lo == nil {
		t.Fatalf("object %v not local", ptr)
	}
	if !rt.tryEvict(lo) {
		t.Fatalf("tryEvict(%v) refused", ptr)
	}
	for i := 0; i < 10_000; i++ {
		lo.mu.Lock()
		st := lo.state
		lo.mu.Unlock()
		if st == stOut || st == stInCore {
			return st
		}
		rt.clk.Sleep(time.Millisecond)
	}
	lo.mu.Lock()
	defer lo.mu.Unlock()
	t.Fatalf("eviction of %v never settled (state %d)", ptr, lo.state)
	return lo.state
}

func waitQuiesceOrFail(t *testing.T, rt *Runtime) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		WaitQuiescence(rt)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("quiescence never reached")
	}
}

// TestSwapLoadPermanentFaultLosesObjectLoudly drives the load-error branch:
// a permanently failing read loses the object, and every reporting surface
// must say so — SwapStats, SwapErrors, OnSwapError, and the OOC snapshot.
func TestSwapLoadPermanentFaultLosesObjectLoudly(t *testing.T) {
	st := storage.NewFault(storage.NewMem(), storage.FaultConfig{GetFailProb: 1, Permanent: true})
	rt, rec := newSwapFaultRuntime(t, st, 1<<20, storage.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond})
	ptr := rt.CreateObject(&testObj{Count: 7, Ballast: make([]byte, 256)})
	if got := evictAndSettle(t, rt, ptr); got != stOut {
		t.Fatalf("eviction settled in state %d, want stOut", got)
	}

	rt.Post(ptr, hInc, nil)
	waitQuiesceOrFail(t, rt)

	s := rt.SwapStats()
	if s.LoadFailures != 1 || s.ObjectsLost != 1 || s.StoreFailures != 0 {
		t.Fatalf("SwapStats = %+v, want 1 load failure, 1 lost", s)
	}
	if s.Retries != 0 {
		t.Fatalf("permanent fault burned %d retries, want 0", s.Retries)
	}
	errs := rt.SwapErrors()
	if len(errs) != 1 {
		t.Fatalf("SwapErrors = %d entries, want 1", len(errs))
	}
	e := errs[0]
	if e.Ptr != ptr || e.Op != SwapLoad || !e.Lost || e.Dropped != 1 {
		t.Fatalf("SwapError = %+v, want lost load of %v dropping 1 message", e, ptr)
	}
	if !errors.Is(e.Err, storage.ErrInjected) {
		t.Fatalf("SwapError.Err = %v, want ErrInjected chain", e.Err)
	}
	if cb := rec.snapshot(); len(cb) != 1 || cb[0].Ptr != ptr {
		t.Fatalf("OnSwapError saw %v, want the lost load", cb)
	}
	if rt.Work() != 0 {
		t.Fatalf("work counter leaked: %d", rt.Work())
	}

	// A lost object is terminal: more messages are dropped, accounted, and
	// must not wedge termination.
	for i := 0; i < 5; i++ {
		rt.Post(ptr, hInc, nil)
	}
	waitQuiesceOrFail(t, rt)
	if rt.Work() != 0 {
		t.Fatalf("work counter leaked after posting to lost object: %d", rt.Work())
	}
	if err := rt.Migrate(ptr, 0); err != nil {
		t.Fatalf("Migrate to self on lost object = %v", err)
	}
}

// TestSwapDecodeFaultLosesObject drives the decode-error branch: the read
// succeeds but returns a truncated blob, so deserialization fails and the
// object is lost with Op == SwapDecode.
func TestSwapDecodeFaultLosesObject(t *testing.T) {
	st := storage.NewFault(storage.NewMem(), storage.FaultConfig{FailFirstGets: 1, CorruptGets: true})
	rt, _ := newSwapFaultRuntime(t, st, 1<<20, storage.RetryPolicy{})
	ptr := rt.CreateObject(&testObj{Ballast: make([]byte, 512)})
	if got := evictAndSettle(t, rt, ptr); got != stOut {
		t.Fatalf("eviction settled in state %d, want stOut", got)
	}

	rt.Post(ptr, hInc, nil)
	waitQuiesceOrFail(t, rt)

	s := rt.SwapStats()
	if s.LoadFailures != 1 || s.ObjectsLost != 1 {
		t.Fatalf("SwapStats = %+v, want 1 decode failure, 1 lost", s)
	}
	errs := rt.SwapErrors()
	if len(errs) != 1 || errs[0].Op != SwapDecode || !errs[0].Lost {
		t.Fatalf("SwapErrors = %+v, want one lost SwapDecode", errs)
	}
}

// TestSwapRetryExhaustionLosesObject drives the retry-exhaustion branch: a
// transient fault outlasting the attempt budget still loses the object, with
// the burned retries counted.
func TestSwapRetryExhaustionLosesObject(t *testing.T) {
	st := storage.NewFault(storage.NewMem(), storage.FaultConfig{FailFirstGets: 8})
	rt, rec := newSwapFaultRuntime(t, st, 1<<20, storage.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond})
	ptr := rt.CreateObject(&testObj{Ballast: make([]byte, 256)})
	if got := evictAndSettle(t, rt, ptr); got != stOut {
		t.Fatalf("eviction settled in state %d, want stOut", got)
	}

	rt.Post(ptr, hInc, nil)
	waitQuiesceOrFail(t, rt)

	s := rt.SwapStats()
	if s.LoadFailures != 1 || s.ObjectsLost != 1 {
		t.Fatalf("SwapStats = %+v, want exhaustion to lose the object", s)
	}
	if s.Retries != 1 {
		t.Fatalf("Retries = %d, want 1 (2 attempts)", s.Retries)
	}
	if cb := rec.snapshot(); len(cb) != 1 || errors.Is(cb[0].Err, storage.ErrPermanent) {
		t.Fatalf("callback = %+v, want one transient-exhaustion error", cb)
	}
}

// TestSwapRetryAbsorbsTransientFaults: faults shorter than the attempt
// budget are invisible to the application — no losses, no failures, just a
// non-zero retry count on both stats surfaces.
func TestSwapRetryAbsorbsTransientFaults(t *testing.T) {
	st := storage.NewFault(storage.NewMem(), storage.FaultConfig{FailFirstGets: 2, FailFirstPuts: 2})
	rt, rec := newSwapFaultRuntime(t, st, 1<<20, storage.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond})
	ptr := rt.CreateObject(&testObj{Count: 41, Ballast: make([]byte, 256)})
	if got := evictAndSettle(t, rt, ptr); got != stOut {
		t.Fatalf("eviction settled in state %d, want stOut (puts retried)", got)
	}

	rt.Post(ptr, hInc, nil)
	waitQuiesceOrFail(t, rt)

	got := make(chan int64, 1)
	rt.Register(99, func(ctx *Ctx, arg []byte) { got <- ctx.Object().(*testObj).Count })
	rt.Post(ptr, 99, nil)
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("count = %d, want 42 (state intact through faults)", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("object unreachable after transient faults")
	}

	s := rt.SwapStats()
	if s.LoadFailures != 0 || s.StoreFailures != 0 || s.ObjectsLost != 0 {
		t.Fatalf("SwapStats = %+v, want no failures", s)
	}
	if s.Retries != 4 {
		t.Fatalf("Retries = %d, want 4 (2 put + 2 get)", s.Retries)
	}
	if len(rec.snapshot()) != 0 {
		t.Fatalf("OnSwapError fired %v for absorbed faults", rec.snapshot())
	}
}

// TestSwapStoreFaultKeepsObjectAndCounts drives the write-error branch: a
// failed eviction write restores the object in core and surfaces the failure
// without losing anything.
func TestSwapStoreFaultKeepsObjectAndCounts(t *testing.T) {
	st := storage.NewFault(storage.NewMem(), storage.FaultConfig{PutFailProb: 1, Permanent: true})
	rt, rec := newSwapFaultRuntime(t, st, 1<<20, storage.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond})
	ptr := rt.CreateObject(&testObj{Count: 5, Ballast: make([]byte, 256)})
	if got := evictAndSettle(t, rt, ptr); got != stInCore {
		t.Fatalf("eviction settled in state %d, want rollback to stInCore", got)
	}

	s := rt.SwapStats()
	if s.StoreFailures != 1 || s.ObjectsLost != 0 || s.LoadFailures != 0 {
		t.Fatalf("SwapStats = %+v, want 1 store failure, nothing lost", s)
	}
	errs := rec.snapshot()
	if len(errs) != 1 || errs[0].Op != SwapStore || errs[0].Lost {
		t.Fatalf("OnSwapError = %+v, want one non-lost SwapStore", errs)
	}
	// The object must still be fully usable.
	got := make(chan int64, 1)
	rt.Register(99, func(ctx *Ctx, arg []byte) { got <- ctx.Object().(*testObj).Count })
	rt.Post(ptr, 99, nil)
	select {
	case v := <-got:
		if v != 5 {
			t.Fatalf("count = %d, want 5", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("object unreachable after rolled-back eviction")
	}
}

// gatedStore blocks Put until the gate channel is closed, optionally failing
// it — a deterministic way to act while an eviction write is in flight.
type gatedStore struct {
	storage.Store
	gate <-chan struct{}
	fail chan bool // buffered; next Put fails if a true is queued
}

func (s *gatedStore) Put(k storage.Key, d []byte) error {
	<-s.gate
	select {
	case f := <-s.fail:
		if f {
			return errors.New("gated write fault")
		}
	default:
	}
	return s.Store.Put(k, d)
}

// TestEvictionRollbackClearsWantLoad is the regression test for the spurious
// reload: a Prefetch that lands while the object is storing sets wantLoad; if
// the write then fails, the in-core restore satisfies that load request, so
// the flag must be cleared — otherwise the next successful eviction
// immediately reloads the object for no one.
func TestEvictionRollbackClearsWantLoad(t *testing.T) {
	gate := make(chan struct{})
	gs := &gatedStore{Store: storage.NewMem(), gate: gate, fail: make(chan bool, 1)}
	rt, _ := newSwapFaultRuntime(t, gs, 1<<20, storage.RetryPolicy{})
	ptr := rt.CreateObject(&testObj{Ballast: make([]byte, 256)})

	rt.mu.Lock()
	lo := rt.objects[ptr]
	rt.mu.Unlock()
	gs.fail <- true
	if !rt.tryEvict(lo) {
		t.Fatal("tryEvict refused")
	}
	// The write is parked on the gate: the object is stStoring, so this
	// Prefetch takes the wantLoad path.
	rt.Prefetch(ptr)
	close(gate)

	settled := false
	for i := 0; i < 10_000 && !settled; i++ {
		lo.mu.Lock()
		st, want := lo.state, lo.wantLoad
		lo.mu.Unlock()
		if st == stInCore {
			if want {
				t.Fatal("wantLoad still set after rollback restored the object")
			}
			settled = true
			break
		}
		rt.clk.Sleep(time.Millisecond)
	}
	if !settled {
		t.Fatal("rollback never settled")
	}

	// A later, successful eviction must stay evicted: no spurious reload.
	// (The rollback itself counted one load: MarkIn re-admitted the bytes.)
	baseline := rt.Mem().Snapshot().Loads
	if got := evictAndSettle(t, rt, ptr); got != stOut {
		t.Fatalf("second eviction settled in state %d, want stOut", got)
	}
	rt.clk.Sleep(20 * time.Millisecond) // a spurious reload would start here
	if rt.InCore(ptr) {
		t.Fatal("object reloaded with no pending work: stale wantLoad")
	}
	if loads := rt.Mem().Snapshot().Loads; loads != baseline {
		t.Fatalf("Loads = %d, want %d (nobody asked for the object)", loads, baseline)
	}
}
