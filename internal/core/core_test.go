package core

import (
	"encoding/binary"
	"fmt"
	"io"
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
)

// testObj is a simple mobile object: a counter plus ballast bytes that give
// it a controllable size.
type testObj struct {
	Count   int64
	Ballast []byte
}

func (o *testObj) TypeID() uint16 { return 1 }

func (o *testObj) EncodeTo(w io.Writer) error {
	var b [12]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(o.Count))
	binary.LittleEndian.PutUint32(b[8:12], uint32(len(o.Ballast)))
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	_, err := w.Write(o.Ballast)
	return err
}

func (o *testObj) DecodeFrom(r io.Reader) error {
	var b [12]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	o.Count = int64(binary.LittleEndian.Uint64(b[0:8]))
	o.Ballast = make([]byte, binary.LittleEndian.Uint32(b[8:12]))
	_, err := io.ReadFull(r, o.Ballast)
	return err
}

func (o *testObj) SizeHint() int { return 12 + len(o.Ballast) }

func testFactory(t uint16) (Object, error) {
	if t == 1 {
		return &testObj{}, nil
	}
	return nil, ErrUnknownType
}

// cluster is a test harness bundling n runtimes on an in-process transport.
type cluster struct {
	tr  *comm.InProcTransport
	rts []*Runtime
}

func newCluster(t testing.TB, n int, budget int64) *cluster {
	return newClusterClock(t, n, budget, nil)
}

// newVirtualCluster builds a cluster on a fresh virtual clock, for tests
// that run their schedule in virtual time. The clock stops after the
// cluster's own cleanup (LIFO), so shutdown still has a live clock.
func newVirtualCluster(t testing.TB, n int, budget int64) (*cluster, *clock.Virtual) {
	t.Helper()
	vclk := clock.NewVirtual()
	t.Cleanup(vclk.Stop)
	return newClusterClock(t, n, budget, vclk), vclk
}

func newClusterClock(t testing.TB, n int, budget int64, clk clock.Clock) *cluster {
	t.Helper()
	return newClusterNet(t, n, budget, clk, comm.LatencyModel{})
}

// newClusterNet is newClusterClock over a transport with a network model;
// each node's tracer is installed on its endpoint too, as cluster.New does,
// so the modeled wire time reaches the node's time account.
func newClusterNet(t testing.TB, n int, budget int64, clk clock.Clock, net comm.LatencyModel) *cluster {
	t.Helper()
	tr := comm.NewInProcClock(n, net, clk)
	c := &cluster{tr: tr}
	for i := 0; i < n; i++ {
		tracer := obs.NewTracer(fmt.Sprintf("node%d", i), clk)
		tr.Endpoint(comm.NodeID(i)).SetTracer(tracer)
		rt := NewRuntime(Config{
			Endpoint: tr.Endpoint(comm.NodeID(i)),
			Pool:     sched.NewWorkStealing(2),
			Factory:  testFactory,
			Mem:      ooc.Config{Budget: budget},
			Store:    storage.NewMem(),
			Tracer:   tracer,
			Clock:    clk,
		})
		c.rts = append(c.rts, rt)
	}
	t.Cleanup(func() {
		WaitQuiescence(c.rts...)
		for _, rt := range c.rts {
			rt.Close()
		}
		tr.Close()
	})
	return c
}

const (
	hInc   HandlerID = 1
	hRelay HandlerID = 2
)

func registerInc(c *cluster) {
	for _, rt := range c.rts {
		rt.Register(hInc, func(ctx *Ctx, arg []byte) {
			ctx.Object().(*testObj).Count++
		})
	}
}

func TestSingleNodePostAndQuiesce(t *testing.T) {
	c := newCluster(t, 1, 1<<20)
	registerInc(c)
	rt := c.rts[0]
	obj := &testObj{}
	ptr := rt.CreateObject(obj)
	for i := 0; i < 100; i++ {
		rt.Post(ptr, hInc, nil)
	}
	WaitQuiescence(rt)
	if obj.Count != 100 {
		t.Fatalf("count = %d, want 100", obj.Count)
	}
	if rt.Work() != 0 {
		t.Fatalf("work = %d after quiescence", rt.Work())
	}
}

func TestCrossNodePost(t *testing.T) {
	c := newCluster(t, 3, 1<<20)
	registerInc(c)
	obj := &testObj{}
	ptr := c.rts[2].CreateObject(obj)
	// Post from every node, including non-home nodes.
	for _, rt := range c.rts {
		for i := 0; i < 50; i++ {
			rt.Post(ptr, hInc, nil)
		}
	}
	WaitQuiescence(c.rts...)
	if obj.Count != 150 {
		t.Fatalf("count = %d, want 150", obj.Count)
	}
}

func TestHandlerPostsMore(t *testing.T) {
	// A relay chain across nodes: each hop decrements a TTL and forwards.
	c := newCluster(t, 4, 1<<20)
	var hops atomic.Int64
	ptrs := make([]MobilePtr, 4)
	for i, rt := range c.rts {
		ptrs[i] = rt.CreateObject(&testObj{})
	}
	for i, rt := range c.rts {
		i := i
		rt.Register(hRelay, func(ctx *Ctx, arg []byte) {
			ttl := binary.LittleEndian.Uint32(arg)
			hops.Add(1)
			if ttl == 0 {
				return
			}
			next := make([]byte, 4)
			binary.LittleEndian.PutUint32(next, ttl-1)
			ctx.Post(ptrs[(i+1)%4], hRelay, next)
		})
	}
	arg := make([]byte, 4)
	binary.LittleEndian.PutUint32(arg, 99)
	c.rts[0].Post(ptrs[0], hRelay, arg)
	WaitQuiescence(c.rts...)
	if hops.Load() != 100 {
		t.Fatalf("hops = %d, want 100", hops.Load())
	}
}

func TestOutOfCoreEviction(t *testing.T) {
	// Budget fits only ~2 of the 10 objects; posting to all must swap
	// objects in and out while preserving their state.
	c := newCluster(t, 1, 3000)
	registerInc(c)
	rt := c.rts[0]
	var ptrs []MobilePtr
	for i := 0; i < 10; i++ {
		ptrs = append(ptrs, rt.CreateObject(&testObj{Ballast: make([]byte, 1000)}))
	}
	for round := 0; round < 5; round++ {
		for _, p := range ptrs {
			rt.Post(p, hInc, nil)
		}
		WaitQuiescence(rt)
	}
	stats := rt.Mem().Snapshot()
	if stats.Evictions == 0 {
		t.Fatal("expected evictions under memory pressure")
	}
	// Verify counts survived the swapping: load each object by posting one
	// final increment and checking the total.
	var total int64
	for _, p := range ptrs {
		rt.Post(p, hInc, nil)
	}
	WaitQuiescence(rt)
	for _, p := range ptrs {
		// Read the object via a handler to make sure it is in core.
		done := make(chan int64, 1)
		rt.Register(99, func(ctx *Ctx, arg []byte) {
			done <- ctx.Object().(*testObj).Count
		})
		rt.Post(p, 99, nil)
		total += <-done
	}
	if total != 60 {
		t.Fatalf("total = %d, want 60 (10 objects × 6 increments)", total)
	}
	t.Logf("evictions=%d loads=%d peak=%d", stats.Evictions, stats.Loads, stats.PeakMemUsed)
}

func TestLockPinsObject(t *testing.T) {
	c := newCluster(t, 1, 2500)
	registerInc(c)
	rt := c.rts[0]
	pinned := rt.CreateObject(&testObj{Ballast: make([]byte, 1000)})
	rt.Lock(pinned)
	for i := 0; i < 8; i++ {
		p := rt.CreateObject(&testObj{Ballast: make([]byte, 1000)})
		rt.Post(p, hInc, nil)
	}
	WaitQuiescence(rt)
	if !rt.InCore(pinned) {
		t.Fatal("locked object was evicted")
	}
	rt.Unlock(pinned)
}

func TestMigration(t *testing.T) {
	c := newCluster(t, 3, 1<<20)
	registerInc(c)
	obj := &testObj{Count: 7}
	ptr := c.rts[0].CreateObject(obj)
	if err := c.rts[0].Migrate(ptr, 1); err != nil {
		t.Fatal(err)
	}
	if c.rts[0].IsLocal(ptr) {
		t.Fatal("object still local at origin")
	}
	// Give the install a moment.
	deadline := time.Now().Add(5 * time.Second)
	for !c.rts[1].IsLocal(ptr) {
		if time.Now().After(deadline) {
			t.Fatal("object never arrived at node 1")
		}
		time.Sleep(time.Millisecond)
	}
	// Post from node 2, whose directory is stale (thinks home node 0 has
	// it); the message must be forwarded and still delivered.
	c.rts[2].Post(ptr, hInc, nil)
	WaitQuiescence(c.rts...)
	// The migrated object state lives on node 1 now; read it there.
	got := make(chan int64, 1)
	c.rts[1].Register(98, func(ctx *Ctx, arg []byte) {
		got <- ctx.Object().(*testObj).Count
	})
	c.rts[1].Post(ptr, 98, nil)
	if v := <-got; v != 8 {
		t.Fatalf("count = %d, want 8 (7 + 1 forwarded increment)", v)
	}
}

func TestMigrationCarriesQueue(t *testing.T) {
	c := newCluster(t, 2, 1<<20)
	registerInc(c)
	rt := c.rts[0]
	obj := &testObj{}
	ptr := rt.CreateObject(obj)
	// Queue messages while the object cannot run them (no drain yet
	// because we enqueue under an artificial busy mark).
	// Simpler: migrate with an empty queue is already covered; here, just
	// verify post-then-migrate eventually lands all increments.
	for i := 0; i < 20; i++ {
		rt.Post(ptr, hInc, nil)
	}
	// Migration may fail with ErrBusy while draining; retry.
	for {
		err := rt.Migrate(ptr, 1)
		if err == nil {
			break
		}
		if err != ErrBusy {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	for i := 0; i < 20; i++ {
		c.rts[1].Post(ptr, hInc, nil)
	}
	WaitQuiescence(c.rts...)
	got := make(chan int64, 1)
	c.rts[1].Register(98, func(ctx *Ctx, arg []byte) {
		got <- ctx.Object().(*testObj).Count
	})
	c.rts[1].Post(ptr, 98, nil)
	if v := <-got; v != 40 {
		t.Fatalf("count = %d, want 40", v)
	}
}

// TestMessageRacingMigrationFollowsTheObject: a sender looks the object's
// record up, the object migrates away, and only then does the sender get to
// queue its message. The record it holds is stale; the message must follow
// the object instead of running on the copy left behind (a lost update), in
// core or out of it.
func TestMessageRacingMigrationFollowsTheObject(t *testing.T) {
	for _, outOfCore := range []bool{false, true} {
		c := newCluster(t, 2, 1<<20)
		registerInc(c)
		rt0, rt1 := c.rts[0], c.rts[1]
		ptr := rt0.CreateObject(&testObj{Count: 3})
		if outOfCore {
			if got := evictAndSettle(t, rt0, ptr); got != stOut {
				t.Fatalf("eviction settled in state %d, want stOut", got)
			}
		}
		rt0.mu.Lock()
		lo := rt0.objects[ptr] // the sender's lookup
		rt0.mu.Unlock()
		if err := rt0.Migrate(ptr, 1); err != nil {
			t.Fatal(err)
		}
		rt0.work.Add(1) // as Post and onWireApp account a message before placing it
		rt0.enqueueLocal(lo, queued{handler: hInc})
		WaitQuiescence(rt0, rt1)

		got := make(chan int64, 1)
		rt1.Register(98, func(ctx *Ctx, arg []byte) { got <- ctx.Object().(*testObj).Count })
		rt1.Post(ptr, 98, nil)
		if v := <-got; v != 4 {
			t.Fatalf("out-of-core=%v: count = %d at the destination, want 4", outOfCore, v)
		}
		WaitQuiescence(rt0, rt1)
		for _, rt := range c.rts {
			if msgs := rt.CheckInvariants(true); len(msgs) > 0 {
				t.Fatalf("out-of-core=%v: invariants: %v", outOfCore, msgs)
			}
		}
	}
}

// TestMigrationCarriesPriority: the swapping priority hint travels in the
// install frame. The hinted object arrives first, so by age alone it would
// be the first victim; the hint must put the unhinted one ahead of it.
func TestMigrationCarriesPriority(t *testing.T) {
	c := newCluster(t, 2, 1<<20)
	rt0, rt1 := c.rts[0], c.rts[1]
	hot := rt0.CreateObject(&testObj{})
	cold := rt0.CreateObject(&testObj{})
	rt0.SetPriority(hot, 7)
	for _, p := range []MobilePtr{hot, cold} {
		if err := rt0.Migrate(p, 1); err != nil {
			t.Fatal(err)
		}
		WaitQuiescence(rt0, rt1) // the install is in sent/recv: it has landed
	}
	if got := rt1.Mem().Priority(oid(hot)); got != 7 {
		t.Fatalf("priority at the destination = %d, want 7", got)
	}
	if v := rt1.Mem().PickVictims(1); len(v) != 1 || v[0] != oid(cold) {
		t.Fatalf("PickVictims = %v, want the priority-0 object %v", v, oid(cold))
	}
}

func TestRequestMigrationPull(t *testing.T) {
	c := newCluster(t, 2, 1<<20)
	registerInc(c)
	ptr := c.rts[0].CreateObject(&testObj{})
	c.rts[1].RequestMigration(ptr, 1)
	deadline := time.Now().Add(5 * time.Second)
	for !c.rts[1].IsLocal(ptr) {
		if time.Now().After(deadline) {
			t.Fatal("pull migration did not complete")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCallInline(t *testing.T) {
	c := newCluster(t, 1, 1<<20)
	registerInc(c)
	rt := c.rts[0]
	a := rt.CreateObject(&testObj{})
	bObj := &testObj{}
	b := rt.CreateObject(bObj)
	var inlined atomic.Bool
	rt.Register(50, func(ctx *Ctx, arg []byte) {
		inlined.Store(ctx.CallInline(b, hInc, nil))
	})
	rt.Post(a, 50, nil)
	WaitQuiescence(rt)
	if !inlined.Load() {
		t.Fatal("inline call should succeed for idle in-core object")
	}
	if bObj.Count != 1 {
		t.Fatalf("b.Count = %d", bObj.Count)
	}
	// Inline to a missing object fails.
	rt.Register(51, func(ctx *Ctx, arg []byte) {
		if ctx.CallInline(MobilePtr{Home: 0, Seq: 9999}, hInc, nil) {
			t.Error("inline call to unknown object should fail")
		}
	})
	rt.Post(a, 51, nil)
	WaitQuiescence(rt)
}

// TestDrainReleasesHandledPayloads: an object that handles n queued
// messages of size bytes each keeps none of the handled payloads alive — the
// queue's backing array would otherwise hold all n × size until the object
// is posted to again.
func TestDrainReleasesHandledPayloads(t *testing.T) {
	const n, size = 64, 1 << 20
	c := newCluster(t, 1, 1<<20)
	rt := c.rts[0]
	const hBig HandlerID = 97
	gate := make(chan struct{})
	live := make(chan uint64, 1)
	rt.Register(hBig, func(ctx *Ctx, arg []byte) {
		o := ctx.Object().(*testObj)
		if o.Count == 0 {
			<-gate // hold the object until every message is queued
		}
		if o.Count++; o.Count == n {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			live <- ms.HeapAlloc
		}
	})
	p := rt.CreateObject(&testObj{})
	for i := 0; i < n; i++ {
		rt.Post(p, hBig, make([]byte, size))
	}
	close(gate)
	got := <-live
	WaitQuiescence(rt)
	if got >= n*size/4 {
		t.Fatalf("live heap in the last handler = %d MB: handled payloads of %d × %d MB are still reachable",
			got>>20, n, size>>20)
	}
}

func TestTraceAccounting(t *testing.T) {
	c := newClusterNet(t, 2, 2000, nil, comm.LatencyModel{Latency: 10 * time.Microsecond, BytesPerSec: 1e9})
	rt := c.rts[0]
	rt.Register(70, func(ctx *Ctx, arg []byte) {
		time.Sleep(2 * time.Millisecond) // computation
	})
	c.rts[1].Register(70, func(ctx *Ctx, arg []byte) {})
	var ptrs []MobilePtr
	for i := 0; i < 6; i++ {
		ptrs = append(ptrs, rt.CreateObject(&testObj{Ballast: make([]byte, 800)}))
	}
	for round := 0; round < 3; round++ {
		for _, p := range ptrs {
			rt.Post(p, 70, nil)
		}
		WaitQuiescence(c.rts...)
	}
	r := rt.Report()
	if r.Comp <= 0 {
		t.Error("no computation time recorded")
	}
	if r.Disk <= 0 {
		t.Error("no disk time recorded despite memory pressure")
	}
	// Cross-node message for comm accounting.
	remote := c.rts[1].CreateObject(&testObj{})
	rt.Post(remote, 70, nil)
	WaitQuiescence(c.rts...)
	// The wire time is the sender's: the endpoint that applies the network
	// model reports it.
	if rt.Report().Comm <= 0 {
		t.Error("no communication time recorded for remote message")
	}
}

func TestCreateManyObjectsUniquePointers(t *testing.T) {
	c := newCluster(t, 2, 1<<20)
	seen := make(map[MobilePtr]bool)
	for i := 0; i < 100; i++ {
		for _, rt := range c.rts {
			p := rt.CreateObject(&testObj{})
			if seen[p] {
				t.Fatalf("duplicate pointer %v", p)
			}
			seen[p] = true
		}
	}
}

func TestPostAfterCloseIsNoop(t *testing.T) {
	tr := comm.NewInProc(1, comm.LatencyModel{})
	defer tr.Close()
	pool := sched.NewWorkStealing(1)
	defer pool.Close()
	rt := NewRuntime(Config{
		Endpoint: tr.Endpoint(0),
		Pool:     pool,
		Factory:  testFactory,
		Mem:      ooc.Config{Budget: 1 << 20},
		Store:    storage.NewMem(),
	})
	ptr := rt.CreateObject(&testObj{})
	rt.Close()
	rt.Post(ptr, hInc, nil) // must not panic or hang
	if rt.Work() != 0 {
		t.Fatal("post after close should not create work")
	}
}

func TestStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	c := newCluster(t, 4, 20000)
	registerInc(c)
	var all []MobilePtr
	for _, rt := range c.rts {
		for i := 0; i < 25; i++ {
			all = append(all, rt.CreateObject(&testObj{Ballast: make([]byte, 500)}))
		}
	}
	// Every node posts to every object repeatedly — remote routing, OOC
	// swapping and queue handling all at once.
	for round := 0; round < 10; round++ {
		for _, rt := range c.rts {
			for _, p := range all {
				rt.Post(p, hInc, nil)
			}
		}
	}
	WaitQuiescence(c.rts...)
	// Each object: 10 rounds × 4 nodes = 40 increments.
	got := make(chan int64, 1)
	for _, rt := range c.rts {
		rt.Register(98, func(ctx *Ctx, arg []byte) {
			got <- ctx.Object().(*testObj).Count
		})
	}
	var total int64
	for _, p := range all {
		c.rts[p.Home].Post(p, 98, nil)
		total += <-got
	}
	if want := int64(len(all) * 40); total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
}

func TestMobilePtrString(t *testing.T) {
	p := MobilePtr{Home: 3, Seq: 42}
	if p.String() != "mp{3:42}" {
		t.Errorf("String = %q", p.String())
	}
	if !Nil.IsNil() || p.IsNil() {
		t.Error("IsNil misbehaves")
	}
}

func TestWirreRoundtrips(t *testing.T) {
	m := &appMsg{
		dst:     MobilePtr{Home: 2, Seq: 77},
		handler: 9,
		route:   []NodeID{0, 3},
		arg:     []byte("payload"),
	}
	got, err := decodeApp(encodeApp(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.dst != m.dst || got.handler != m.handler ||
		len(got.route) != 2 || got.route[0] != 0 || got.route[1] != 3 ||
		string(got.arg) != "payload" {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	in := &install{
		ptr: MobilePtr{Home: 1, Seq: 5}, typeID: 1, priority: -3, locked: true,
		blob:  []byte{1, 2, 3},
		queue: []queued{{handler: 4, arg: []byte("a")}},
	}
	gin, err := decodeInstall(encodeInstall(in))
	if err != nil {
		t.Fatal(err)
	}
	if gin.ptr != in.ptr || gin.typeID != 1 || gin.priority != -3 || !gin.locked ||
		string(gin.blob) != string([]byte{1, 2, 3}) || len(gin.queue) != 1 ||
		gin.queue[0].handler != 4 || string(gin.queue[0].arg) != "a" {
		t.Fatalf("install roundtrip mismatch: %+v", gin)
	}
	if _, err := decodeApp([]byte{1, 2}); err == nil {
		t.Error("short app message should fail")
	}
	frame := encodeInstall(in)
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"short", []byte{1}},
		{"truncated queue arg", frame[:len(frame)-1]},
		{"trailing byte", append(append([]byte(nil), frame...), 0)},
		{"trailing section", append(append([]byte(nil), frame...), 1, 2, 0, 0, 0, 7, 7)},
	} {
		if _, err := decodeInstall(tc.frame); err == nil {
			t.Errorf("install frame %q should fail to decode", tc.name)
		}
	}
	_ = fmt.Sprint(m.dst)
}
