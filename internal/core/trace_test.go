package core

import (
	"testing"
	"time"

	"mrts/internal/comm"
	"mrts/internal/obs"
	"mrts/internal/ooc"
	"mrts/internal/sched"
	"mrts/internal/storage"
)

// newTracedFaultRuntime is newSwapFaultRuntime plus an event tracer, for
// asserting what the swap path emits on its failure branches.
func newTracedFaultRuntime(t *testing.T, st storage.Store, retry storage.RetryPolicy) (*Runtime, *obs.Tracer) {
	t.Helper()
	tr := comm.NewInProc(1, comm.LatencyModel{})
	pool := sched.NewWorkStealing(2)
	tracer := obs.NewTraceSink(1<<12).NewTracer("test", nil)
	pool.SetTracer(tracer)
	rt := NewRuntime(Config{
		Endpoint: tr.Endpoint(0),
		Pool:     pool,
		Factory:  testFactory,
		Mem:      ooc.Config{Budget: 1 << 20},
		Store:    st,
		Retry:    retry,
		Tracer:   tracer,
	})
	t.Cleanup(func() {
		rt.Close()
		pool.Close()
		tr.Close()
	})
	rt.Register(hInc, func(ctx *Ctx, arg []byte) { ctx.Object().(*testObj).Count++ })
	return rt, tracer
}

// TestTracerRecordsSwapLifecycle: a clean evict/load round trip must leave
// matching swap.evict and swap.load spans plus handler and scheduler events
// on the tracer, all attributed to the object's ID.
func TestTracerRecordsSwapLifecycle(t *testing.T) {
	rt, tracer := newTracedFaultRuntime(t, storage.NewMem(), storage.RetryPolicy{})
	ptr := rt.CreateObject(&testObj{Ballast: make([]byte, 256)})
	if got := evictAndSettle(t, rt, ptr); got != stOut {
		t.Fatalf("eviction settled in state %d, want stOut", got)
	}
	rt.Post(ptr, hInc, nil)
	waitQuiesceOrFail(t, rt)

	counts := countByKind(tracer)
	if counts[obs.KindSwapEvict] != 1 {
		t.Fatalf("swap.evict events = %d, want 1 (counts %v)", counts[obs.KindSwapEvict], counts)
	}
	if counts[obs.KindSwapLoad] != 1 {
		t.Fatalf("swap.load events = %d, want 1", counts[obs.KindSwapLoad])
	}
	if counts[obs.KindHandler] == 0 || counts[obs.KindSchedRun] == 0 {
		t.Fatalf("handler/sched events missing: %v", counts)
	}
	for _, ev := range tracer.Events() {
		if ev.Kind == obs.KindSwapEvict || ev.Kind == obs.KindSwapLoad {
			if ev.ID != uint64(oid(ptr)) {
				t.Fatalf("%s event attributed to object %d, want %d", ev.Kind, ev.ID, oid(ptr))
			}
			if ev.Dur <= 0 {
				t.Fatalf("%s must be a span (Dur > 0), got %+v", ev.Kind, ev)
			}
			if ev.Arg <= 0 {
				t.Fatalf("%s must carry the blob size, got %+v", ev.Kind, ev)
			}
		}
	}
}

// TestTracerRecordsRetries: transient faults absorbed by the retry layer
// must still be visible as swap.retry instants carrying the attempt number.
func TestTracerRecordsRetries(t *testing.T) {
	st := storage.NewFault(storage.NewMem(), storage.FaultConfig{FailFirstGets: 2, FailFirstPuts: 2})
	rt, tracer := newTracedFaultRuntime(t, st, storage.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond})
	ptr := rt.CreateObject(&testObj{Ballast: make([]byte, 256)})
	if got := evictAndSettle(t, rt, ptr); got != stOut {
		t.Fatalf("eviction settled in state %d, want stOut", got)
	}
	rt.Post(ptr, hInc, nil)
	waitQuiesceOrFail(t, rt)

	counts := countByKind(tracer)
	if counts[obs.KindSwapRetry] != 4 {
		t.Fatalf("swap.retry events = %d, want 4 (2 put + 2 get)", counts[obs.KindSwapRetry])
	}
	if counts[obs.KindSwapLost] != 0 || counts[obs.KindSwapStoreFail] != 0 {
		t.Fatalf("absorbed faults must not emit failure events: %v", counts)
	}
	var attempts []int64
	for _, ev := range tracer.Events() {
		if ev.Kind == obs.KindSwapRetry {
			attempts = append(attempts, ev.Arg)
		}
	}
	for _, a := range attempts {
		if a < 1 || a > 3 {
			t.Fatalf("retry attempt numbers out of range: %v", attempts)
		}
	}
}

// TestTracerRecordsObjectLoss: a permanent read fault must emit exactly one
// swap.lost instant for the object, alongside the counters the earlier
// hardening added.
func TestTracerRecordsObjectLoss(t *testing.T) {
	st := storage.NewFault(storage.NewMem(), storage.FaultConfig{GetFailProb: 1, Permanent: true})
	rt, tracer := newTracedFaultRuntime(t, st, storage.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond})
	ptr := rt.CreateObject(&testObj{Ballast: make([]byte, 256)})
	if got := evictAndSettle(t, rt, ptr); got != stOut {
		t.Fatalf("eviction settled in state %d, want stOut", got)
	}
	rt.Post(ptr, hInc, nil)
	waitQuiesceOrFail(t, rt)

	counts := countByKind(tracer)
	if counts[obs.KindSwapLost] != 1 {
		t.Fatalf("swap.lost events = %d, want 1 (counts %v)", counts[obs.KindSwapLost], counts)
	}
	for _, ev := range tracer.Events() {
		if ev.Kind == obs.KindSwapLost && ev.ID != uint64(oid(ptr)) {
			t.Fatalf("swap.lost attributed to object %d, want %d", ev.ID, oid(ptr))
		}
	}
}

// TestTracerRecordsStoreFailure: a failed eviction write rolls the object
// back in core and must emit a swap.store_fail instant.
func TestTracerRecordsStoreFailure(t *testing.T) {
	st := storage.NewFault(storage.NewMem(), storage.FaultConfig{PutFailProb: 1, Permanent: true})
	rt, tracer := newTracedFaultRuntime(t, st, storage.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond})
	ptr := rt.CreateObject(&testObj{Ballast: make([]byte, 256)})
	if got := evictAndSettle(t, rt, ptr); got != stInCore {
		t.Fatalf("eviction settled in state %d, want rollback to stInCore", got)
	}

	counts := countByKind(tracer)
	if counts[obs.KindSwapStoreFail] != 1 {
		t.Fatalf("swap.store_fail events = %d, want 1 (counts %v)", counts[obs.KindSwapStoreFail], counts)
	}
	if counts[obs.KindSwapLost] != 0 {
		t.Fatalf("rolled-back store must not lose the object: %v", counts)
	}
}

// countByKind tallies tr's recorded events per kind.
func countByKind(tr *obs.Tracer) map[obs.Kind]int {
	out := make(map[obs.Kind]int)
	for _, ev := range tr.Events() {
		out[ev.Kind]++
	}
	return out
}
