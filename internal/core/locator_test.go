package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"mrts/internal/comm"
	"mrts/internal/ooc"
	"mrts/internal/sched"
	"mrts/internal/storage"
)

// scriptLocator routes every pointer to a settable target — a test double
// for driving the runtime's routing edges (the forward-hop bound, parked
// re-routing) without a real directory behind them.
type scriptLocator struct {
	target atomic.Int64
}

func newScriptLocator(target NodeID) *scriptLocator {
	l := &scriptLocator{}
	l.target.Store(int64(target))
	return l
}

func (l *scriptLocator) Locate(MobilePtr) NodeID                   { return NodeID(l.target.Load()) }
func (l *scriptLocator) Note(MobilePtr, NodeID)                    {}
func (l *scriptLocator) Forget(MobilePtr)                          {}
func (l *scriptLocator) FeedbackTargets([]NodeID) []NodeID         { return nil }
func (l *scriptLocator) MigrateTargets(MobilePtr, NodeID) []NodeID { return nil }
func (l *scriptLocator) Cached() map[MobilePtr]NodeID              { return nil }
func (l *scriptLocator) String() string                            { return "script" }

// newLocatorCluster builds a cluster with one injected Locator per node.
func newLocatorCluster(t testing.TB, n int, loc func(i int) Locator) *cluster {
	t.Helper()
	tr := comm.NewInProc(n, comm.LatencyModel{})
	c := &cluster{tr: tr}
	for i := 0; i < n; i++ {
		rt := NewRuntime(Config{
			Endpoint: tr.Endpoint(comm.NodeID(i)),
			Pool:     sched.NewWorkStealing(2),
			Factory:  testFactory,
			Mem:      ooc.Config{Budget: 1 << 20},
			Store:    storage.NewMem(),
			Locator:  loc(i),
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

// TestRouteDropAtHopBound drives a message into a two-node routing cycle
// (each locator points at the other node, the object exists nowhere) and
// requires the loud-drop contract: exactly one counted drop, work released
// so quiescence still fires, and a quiescent CheckInvariants violation
// naming it.
func TestRouteDropAtHopBound(t *testing.T) {
	c := newLocatorCluster(t, 2, func(i int) Locator {
		return newScriptLocator(NodeID(1 - i))
	})
	c.rts[0].Post(MobilePtr{Home: 0, Seq: 9999}, hInc, nil)
	WaitQuiescence(c.rts...)

	drops := c.rts[0].RouteDropped() + c.rts[1].RouteDropped()
	if drops != 1 {
		t.Fatalf("dropped %d messages at the hop bound, want exactly 1", drops)
	}
	var violations []string
	for _, rt := range c.rts {
		violations = append(violations, rt.CheckInvariants(true)...)
	}
	found := false
	for _, v := range violations {
		if strings.Contains(v, "dropped") {
			found = true
		}
	}
	if !found {
		t.Fatalf("quiescent CheckInvariants did not surface the drop: %v", violations)
	}
	// The cycle must have actually forwarded up to the bound, not
	// short-circuited.
	if fwd := c.rts[0].ForwardedCount() + c.rts[1].ForwardedCount(); fwd < int64(maxForwardHops)-2 {
		t.Fatalf("only %d forwards before the drop, want ~%d", fwd, maxForwardHops)
	}
}

// TestRelayedDeliveryCountsHops sends a message through a relay whose
// locator knows the object's host: the relay counts one forward, the host
// delivers exactly once and records the two-hop route.
func TestRelayedDeliveryCountsHops(t *testing.T) {
	c := newLocatorCluster(t, 3, func(i int) Locator {
		if i == 0 {
			return newScriptLocator(1) // sender: routes via node 1
		}
		return newScriptLocator(2) // relay: knows the object's host
	})
	var delivered atomic.Int64
	for _, rt := range c.rts {
		rt.Register(hInc, func(ctx *Ctx, arg []byte) { delivered.Add(1) })
	}
	ptr := c.rts[2].CreateObject(&testObj{})

	c.rts[0].Post(ptr, hInc, nil)
	WaitQuiescence(c.rts...)

	if n := delivered.Load(); n != 1 {
		t.Fatalf("delivered %d times, want 1", n)
	}
	if n := c.rts[1].ForwardedCount(); n != 1 {
		t.Fatalf("relay forwarded %d messages, want 1", n)
	}
	if got := c.rts[2].RouteHopsMean(); got != 2.0 {
		t.Fatalf("delivered hop mean %.2f, want 2.0 (sender -> relay -> host)", got)
	}
}

// TestReRouteParked parks a message by pointing the sender's locator at
// itself, then flips the locator and requires ReRouteParked to release
// exactly the parked message.
func TestReRouteParked(t *testing.T) {
	l0 := newScriptLocator(0) // self: the post parks
	c := newLocatorCluster(t, 2, func(i int) Locator {
		if i == 0 {
			return l0
		}
		return newScriptLocator(1)
	})
	var delivered atomic.Int64
	for _, rt := range c.rts {
		rt.Register(hInc, func(ctx *Ctx, arg []byte) { delivered.Add(1) })
	}
	ptr := c.rts[1].CreateObject(&testObj{})

	c.rts[0].Post(ptr, hInc, nil) // routes inline: parked before Post returns
	if n := c.rts[0].ReRouteParked(); n != 0 {
		t.Fatalf("re-route moved %d messages while the locator still says self", n)
	}
	l0.target.Store(1)
	if n := c.rts[0].ReRouteParked(); n != 1 {
		t.Fatalf("re-route moved %d messages after the locator learned, want 1", n)
	}
	WaitQuiescence(c.rts...)
	if n := delivered.Load(); n != 1 {
		t.Fatalf("delivered %d times, want 1", n)
	}
}

// BenchmarkLocatorNoteHit measures the Note fast path — a directory update
// confirming what is already cached — which must stay on the read lock so
// concurrent forward-path traffic does not serialize (the reason location
// recording moved off rt.mu).
func BenchmarkLocatorNoteHit(b *testing.B) {
	l := NewPolicyLocator(DirLazy, 0, 4)
	p := MobilePtr{Home: 1, Seq: 42}
	l.Note(p, 2)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Note(p, 2)
		}
	})
}

// BenchmarkLocatorNoteChurn measures the slow path: every Note changes the
// cached location, taking the write lock.
func BenchmarkLocatorNoteChurn(b *testing.B) {
	l := NewPolicyLocator(DirLazy, 0, 4)
	p := MobilePtr{Home: 1, Seq: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Note(p, NodeID(i%2))
	}
}
