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

// The time account (Runtime.Report): each category measured once, where the
// activity is known.

// accountRuntime is a single node on the wall clock over st, with a tracer
// that records events so tests can compare the account with the spans it is
// built from.
func accountRuntime(t *testing.T, st storage.Store, ioWorkers int) (*Runtime, *obs.Tracer) {
	t.Helper()
	tr := comm.NewInProc(1, comm.LatencyModel{})
	pool := sched.NewWorkStealing(2)
	tracer := obs.NewTraceSink(1<<12).NewTracer("test", nil)
	rt := NewRuntime(Config{
		Endpoint:  tr.Endpoint(0),
		Pool:      pool,
		Factory:   testFactory,
		Mem:       ooc.Config{Budget: 1 << 20},
		Store:     st,
		IOWorkers: ioWorkers,
		Tracer:    tracer,
	})
	t.Cleanup(func() {
		rt.Close()
		pool.Close()
		tr.Close()
	})
	rt.Register(hInc, func(ctx *Ctx, arg []byte) { ctx.Object().(*testObj).Count++ })
	return rt, tracer
}

// TestDiskTimeExcludesQueueWait: eight demand loads queue behind one I/O
// worker on a store that takes 5 ms per operation and has no model the
// runtime knows of. The disk layer is busy for the eight reads one after
// another; the time each load spent waiting for its turn is not disk time,
// so Disk cannot exceed the wall time (billing every load from submission
// to completion read 5+10+…+40 ms here).
func TestDiskTimeExcludesQueueWait(t *testing.T) {
	const n, seek = 8, 5 * time.Millisecond
	rt, _ := accountRuntime(t, storage.NewLatency(storage.NewMem(), storage.DiskModel{Seek: seek}), 1)
	var ptrs []MobilePtr
	for i := 0; i < n; i++ {
		ptrs = append(ptrs, rt.CreateObject(&testObj{Ballast: make([]byte, 256)}))
	}
	for _, p := range ptrs {
		if got := evictAndSettle(t, rt, p); got != stOut {
			t.Fatalf("eviction settled in state %d, want stOut", got)
		}
	}
	before := rt.Report()
	start := time.Now()
	for _, p := range ptrs {
		rt.Post(p, hInc, nil)
	}
	waitQuiesceOrFail(t, rt)
	// The last load's handler can finish a moment before its I/O worker
	// closes the busy span.
	waitStoreCond(t, "the busy span of the last load to close", func() bool {
		return rt.Report().Disk-before.Disk >= n*seek
	})
	wall := time.Since(start)
	after := rt.Report()

	if s := rt.IOStats(); s.CompletedDemand != n {
		t.Fatalf("%d demand loads completed, want %d", s.CompletedDemand, n)
	}
	disk := after.Disk - before.Disk
	if disk > wall {
		t.Errorf("Disk grew by %v in %v of wall time: queue wait billed as disk time", disk, wall)
	}
	if pes := time.Duration(rt.pool.Workers()); after.Disk > after.Total/pes {
		t.Errorf("Disk %v exceeds the node's wall time %v", after.Disk, after.Total/pes)
	}
}

// TestInlineCallIsInsideItsCaller: a handler that calls a neighbour's
// handler inline occupies one PE for one stretch of time. Comp is that
// stretch — the outer span — not the outer span plus the inner one again.
func TestInlineCallIsInsideItsCaller(t *testing.T) {
	rt, tracer := accountRuntime(t, storage.NewMem(), 0)
	a := rt.CreateObject(&testObj{})
	b := rt.CreateObject(&testObj{})
	const hOuter, hInner HandlerID = 50, 51
	rt.Register(hInner, func(ctx *Ctx, arg []byte) { time.Sleep(3 * time.Millisecond) })
	rt.Register(hOuter, func(ctx *Ctx, arg []byte) {
		time.Sleep(3 * time.Millisecond)
		if !ctx.CallInline(b, hInner, nil) {
			t.Error("inline call to an idle in-core neighbour refused")
		}
	})
	rt.Post(a, hOuter, nil)
	waitQuiesceOrFail(t, rt)

	var outer, inner time.Duration
	for _, ev := range tracer.Events() {
		if ev.Kind != obs.KindHandler {
			continue
		}
		switch HandlerID(ev.Arg) {
		case hOuter:
			outer = time.Duration(ev.Dur)
		case hInner:
			inner = time.Duration(ev.Dur)
		}
	}
	if inner < 3*time.Millisecond || outer < inner+3*time.Millisecond {
		t.Fatalf("spans: outer %v, inner %v — the inline call should be recorded, inside its caller", outer, inner)
	}
	r := rt.Report()
	if r.Comp != outer {
		t.Errorf("Comp = %v, want the outer span %v (outer + inner = %v)", r.Comp, outer, outer+inner)
	}
	if r.Comp > r.Total {
		t.Errorf("Comp %v exceeds Total %v", r.Comp, r.Total)
	}
}
