package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The termination tests run on a virtual clock: the detector's probe rounds,
// the transport, and every in-handler delay advance simulated time only, so
// the schedule is deterministic and the suite finishes in milliseconds of
// wall time. time.After here is purely a hang watchdog — it never fires on
// the happy path.

func TestWaitTerminationSingleNode(t *testing.T) {
	c, _ := newVirtualCluster(t, 1, 1<<20)
	registerInc(c)
	rt := c.rts[0]
	obj := &testObj{}
	ptr := rt.CreateObject(obj)
	for i := 0; i < 50; i++ {
		rt.Post(ptr, hInc, nil)
	}
	done := make(chan struct{})
	go func() {
		rt.WaitTermination(1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("distributed termination never detected")
	}
	if obj.Count != 50 {
		t.Fatalf("count = %d (terminated too early?)", obj.Count)
	}
}

func TestWaitTerminationSPMD(t *testing.T) {
	// All nodes call WaitTermination; a relay chain keeps messages flying
	// between them; no node may unblock before the chain ends.
	c, vclk := newVirtualCluster(t, 4, 1<<20)
	ptrs := make([]MobilePtr, 4)
	for i, rt := range c.rts {
		ptrs[i] = rt.CreateObject(&testObj{})
	}
	var hops atomic.Int64
	for i, rt := range c.rts {
		i := i
		rt.Register(hRelay, func(ctx *Ctx, arg []byte) {
			ttl := binary.LittleEndian.Uint32(arg)
			hops.Add(1)
			vclk.Sleep(100 * time.Microsecond) // keep the chain visibly alive
			if ttl == 0 {
				return
			}
			next := make([]byte, 4)
			binary.LittleEndian.PutUint32(next, ttl-1)
			ctx.Post(ptrs[(i+1)%4], hRelay, next)
		})
	}
	arg := make([]byte, 4)
	binary.LittleEndian.PutUint32(arg, 199)
	c.rts[0].Post(ptrs[0], hRelay, arg)

	var wg sync.WaitGroup
	for _, rt := range c.rts {
		wg.Add(1)
		go func(rt *Runtime) {
			defer wg.Done()
			rt.WaitTermination(4)
			if h := hops.Load(); h != 200 {
				t.Errorf("node %d unblocked at %d hops, want 200", rt.Node(), h)
			}
		}(rt)
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(15 * time.Second):
		t.Fatal("SPMD termination timed out")
	}
}

func TestWaitTerminationMultiplePhases(t *testing.T) {
	c, _ := newVirtualCluster(t, 2, 1<<20)
	registerInc(c)
	obj := &testObj{}
	ptr := c.rts[0].CreateObject(obj)
	for phase := 1; phase <= 3; phase++ {
		for i := 0; i < 10; i++ {
			c.rts[1].Post(ptr, hInc, nil)
		}
		var wg sync.WaitGroup
		for _, rt := range c.rts {
			wg.Add(1)
			go func(rt *Runtime) {
				defer wg.Done()
				rt.WaitTermination(2)
			}(rt)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("phase %d never terminated", phase)
		}
		if got := obj.Count; got != int64(phase*10) {
			t.Fatalf("phase %d: count = %d, want %d", phase, got, phase*10)
		}
	}
}

func TestWaitTerminationAgreesWithQuiescence(t *testing.T) {
	// The distributed detector and the driver-level one must agree: after
	// WaitTermination returns, WaitQuiescence settles within a couple of its
	// own probe rounds of virtual time.
	c, vclk := newVirtualCluster(t, 3, 1<<20)
	registerInc(c)
	ptr := c.rts[1].CreateObject(&testObj{})
	for _, rt := range c.rts {
		for i := 0; i < 30; i++ {
			rt.Post(ptr, hInc, nil)
		}
	}
	var wg sync.WaitGroup
	for _, rt := range c.rts {
		wg.Add(1)
		go func(rt *Runtime) {
			defer wg.Done()
			rt.WaitTermination(3)
		}(rt)
	}
	wg.Wait()
	start := vclk.Now()
	WaitQuiescence(c.rts...)
	if d := vclk.Since(start); d > 5*time.Millisecond {
		t.Errorf("quiescence check after distributed termination took %v of virtual time", d)
	}
}

func TestWaitTerminationWaitsForLateNode(t *testing.T) {
	// Node 0 enters the barrier alone while node 1 is still busy elsewhere:
	// it must not return, however long it probes, and node 1's work posted
	// after that must be done when both return. An announcement made while
	// node 1 was outside used to release node 0 alone and leave node 1
	// waiting for a generation that never came.
	c, vclk := newVirtualCluster(t, 2, 1<<20)
	registerInc(c)
	obj := &testObj{}
	ptr := c.rts[0].CreateObject(obj)
	returned := make([]chan struct{}, 2)
	for i := range returned {
		returned[i] = make(chan struct{})
	}
	wait := func(i int) {
		c.rts[i].WaitTermination(2)
		close(returned[i])
	}
	go wait(0)
	vclk.Sleep(50 * time.Millisecond) // many probe rounds of virtual time
	select {
	case <-returned[0]:
		t.Fatal("node 0 left the barrier before node 1 entered it")
	default:
	}
	for i := 0; i < 10; i++ {
		c.rts[1].Post(ptr, hInc, nil)
	}
	go wait(1)
	for i, ch := range returned {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d was never released", i)
		}
	}
	if obj.Count != 10 {
		t.Fatalf("count = %d when the barrier released, want 10", obj.Count)
	}
}

func TestWaitTerminationAfterRestartedNode(t *testing.T) {
	// A node that rejoins with a fresh runtime enters at generation 0
	// while the others have run several phases; the next barrier must
	// release everyone.
	c, _ := newVirtualCluster(t, 3, 1<<20)
	all := func(nodes []int) {
		var wg sync.WaitGroup
		for _, i := range nodes {
			wg.Add(1)
			go func(rt *Runtime) {
				defer wg.Done()
				rt.WaitTermination(3)
			}(c.rts[i])
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("barrier of nodes %v never released", nodes)
		}
	}
	for phase := 0; phase < 3; phase++ {
		all([]int{0, 1, 2})
	}
	for _, fresh := range []int{2, 0} {
		c.rts[fresh].term = newTermState()
		all([]int{0, 1, 2})
		all([]int{0, 1, 2})
	}
}
