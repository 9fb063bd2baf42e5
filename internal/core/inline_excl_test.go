package core

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestCallInlineExcludesDrain checks handler exclusivity between the two
// ways a handler reaches an object: object A's handler calls B inline in a
// loop while B also receives posted messages, on a pool of two workers. A
// drain task for B that starts while the inline call holds B must back off,
// so B's handler never runs on two workers at once — and no posted message
// is lost to the back-off.
func TestCallInlineExcludesDrain(t *testing.T) {
	const (
		hOnB  HandlerID = 70
		hLoop HandlerID = 71
		calls           = 2000
		posts           = 2000
	)
	c := newCluster(t, 1, 1<<20)
	rt := c.rts[0]
	var inB, overlaps, ran atomic.Int64
	rt.Register(hOnB, func(ctx *Ctx, arg []byte) {
		if inB.Add(1) > 1 {
			overlaps.Add(1)
		}
		ctx.Object().(*testObj).Count++ // the race detector's view of the same hole
		runtime.Gosched()
		inB.Add(-1)
		ran.Add(1)
	})
	a := rt.CreateObject(&testObj{})
	b := rt.CreateObject(&testObj{})
	var inlined atomic.Int64
	rt.Register(hLoop, func(ctx *Ctx, arg []byte) {
		for i := 0; i < calls; i++ {
			if ctx.CallInline(b, hOnB, nil) {
				inlined.Add(1)
			}
		}
	})
	rt.Post(a, hLoop, nil)
	for i := 0; i < posts; i++ {
		rt.Post(b, hOnB, nil)
	}
	WaitQuiescence(rt)
	if n := overlaps.Load(); n > 0 {
		t.Fatalf("B's handler ran concurrently with itself %d times", n)
	}
	if got, want := ran.Load(), inlined.Load()+posts; got != want {
		t.Fatalf("B's handler ran %d times, want %d (%d inline + %d posted)", got, want, inlined.Load(), posts)
	}
}
