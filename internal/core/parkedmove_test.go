package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrts/internal/comm"
	"mrts/internal/obs"
	"mrts/internal/ooc"
	"mrts/internal/sched"
	"mrts/internal/storage"
)

// countingEndpoint counts the two kinds of send the parked-request test is
// about: migration requests a node addresses to itself (the re-post loop a
// busy object used to cause) and installs.
type countingEndpoint struct {
	comm.Endpoint
	selfReqs, installs atomic.Int64
}

func (e *countingEndpoint) Send(to comm.NodeID, kind uint32, payload []byte) error {
	switch {
	case kind == wireMigrateReq && to == e.Node():
		e.selfReqs.Add(1)
	case kind == wireInstall:
		e.installs.Add(1)
	}
	return e.Endpoint.Send(to, kind, payload)
}

// TestMigrationRequestWaitsOnHeldObject: a migration request that finds its
// object held — by a running handler, by an eviction whose write is stuck
// behind a gate, and by that eviction again with a single I/O worker, where
// serving the request from the worker that completes the write must not wait
// on the I/O queue — waits on the object's record. Nothing is sent to the
// local node meanwhile, the request is in the node's work count and visible
// in the metrics, neither termination detector fires over it, and when the
// holder lets go the object leaves in exactly one install with the messages
// that queued up behind the holder, which then run at the destination.
func TestMigrationRequestWaitsOnHeldObject(t *testing.T) {
	const hHold HandlerID = 60
	for _, tc := range []struct {
		name      string
		ioWorkers int
		storing   bool
	}{
		{name: "handler"},
		{name: "storing", storing: true},
		{name: "storing-one-io-worker", storing: true, ioWorkers: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			tr := comm.NewInProc(2, comm.LatencyModel{})
			reg := obs.NewRegistry()
			var rts []*Runtime
			var eps []*countingEndpoint
			var pools []sched.Pool
			var ranOn [2]atomic.Int64
			entered, letGo := make(chan struct{}), make(chan struct{})
			for i := 0; i < 2; i++ {
				i := i
				ep := &countingEndpoint{Endpoint: tr.Endpoint(comm.NodeID(i))}
				var st storage.Store = storage.NewMem()
				if i == 0 && tc.storing {
					st = &gatedStore{Store: st, gate: gate, fail: make(chan bool, 1)}
				}
				pool := sched.NewWorkStealing(2)
				rt := NewRuntime(Config{
					Endpoint:  ep,
					Pool:      pool,
					Factory:   testFactory,
					Mem:       ooc.Config{Budget: 1 << 20},
					Store:     st,
					IOWorkers: tc.ioWorkers,
				})
				rt.Register(hInc, func(c *Ctx, arg []byte) {
					c.Object().(*testObj).Count++
					ranOn[i].Add(1)
				})
				rt.Register(hHold, func(c *Ctx, arg []byte) {
					close(entered)
					<-letGo
				})
				rt.PublishMetrics(reg, []string{"node0.", "node1."}[i])
				rts, eps, pools = append(rts, rt), append(eps, ep), append(pools, pool)
			}
			t.Cleanup(func() {
				for i, rt := range rts {
					rt.Close()
					pools[i].Close()
				}
				tr.Close()
			})

			ptr := rts[0].CreateObject(&testObj{Ballast: make([]byte, 256)})
			hold, unhold := func() {
				rts[0].Post(ptr, hHold, nil)
				<-entered
			}, func() { close(letGo) }
			if tc.storing {
				hold, unhold = func() {
					if !rts[0].tryEvict(rts[0].findByOID(oid(ptr))) {
						t.Fatal("tryEvict refused")
					}
				}, func() { close(gate) }
			}
			hold()
			var once sync.Once
			defer once.Do(unhold) // a failure above the unhold must not leave the holder stuck
			base := rts[0].Work()

			// The detectors start once the request is placed: before that, an
			// eviction write stuck at its gate is no work, and a cluster
			// holding nothing else is rightly quiescent. From here on the
			// request is counted, in sent/recv and then in node 0's work.
			rts[1].RequestMigration(ptr, 1)
			terminated := make(chan string, 3)
			go func() { WaitQuiescence(rts...); terminated <- "WaitQuiescence" }()
			for _, rt := range rts {
				rt := rt
				go func() { rt.WaitTermination(2); terminated <- "WaitTermination" }()
			}
			deadline := time.Now().Add(5 * time.Second)
			for reg.Snapshot()["node0.core.migrate_parked"] != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("the request never parked (self-addressed request sends: %d)", eps[0].selfReqs.Load())
				}
				time.Sleep(time.Millisecond)
			}
			if got := rts[0].Work(); got != base+1 {
				t.Fatalf("node 0 counts %d units of work with the request parked, want %d", got, base+1)
			}
			if msgs := rts[0].CheckInvariants(true); len(msgs) == 0 {
				t.Fatal("the quiescent sweep is silent about a parked request")
			}
			const queuedMsgs = 3
			for i := 0; i < queuedMsgs; i++ {
				rts[0].Post(ptr, hInc, nil)
			}
			time.Sleep(20 * time.Millisecond) // forty probe rounds of the detector
			select {
			case who := <-terminated:
				t.Fatalf("%s returned with a migration request parked", who)
			default:
			}

			once.Do(unhold)
			for i := 0; i < 3; i++ {
				select {
				case <-terminated:
				case <-time.After(10 * time.Second):
					t.Fatal("termination never fired after the holder let go")
				}
			}
			if rts[0].IsLocal(ptr) || !rts[1].IsLocal(ptr) {
				t.Fatalf("object on node 0: %v, on node 1: %v; want it moved", rts[0].IsLocal(ptr), rts[1].IsLocal(ptr))
			}
			if here, there := ranOn[0].Load(), ranOn[1].Load(); here != 0 || there != queuedMsgs {
				t.Fatalf("%d queued messages ran at the source and %d at the destination, want 0 and %d", here, there, queuedMsgs)
			}
			for i, ep := range eps {
				if n := ep.selfReqs.Load(); n != 0 {
					t.Errorf("node %d sent itself %d migration requests", i, n)
				}
			}
			if n := eps[0].installs.Load() + eps[1].installs.Load(); n != 1 {
				t.Errorf("%d installs sent, want exactly 1", n)
			}
			if got := reg.Snapshot()["node0.core.migrate_parked"]; got != 1 {
				t.Errorf("core.migrate_parked = %v, want 1", got)
			}
			for _, rt := range rts {
				if msgs := rt.CheckInvariants(true); len(msgs) > 0 {
					t.Errorf("after the move: %v", msgs)
				}
			}
		})
	}
}
