package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mrts/internal/comm"
	"mrts/internal/ooc"
	"mrts/internal/sched"
	"mrts/internal/storage"
)

func TestCheckpointRestoreRoundtrip(t *testing.T) {
	c := newCluster(t, 1, 2500) // tight budget: some objects end up on disk
	registerInc(c)
	rt := c.rts[0]
	var ptrs []MobilePtr
	for i := 0; i < 6; i++ {
		ptrs = append(ptrs, rt.CreateObject(&testObj{Count: int64(i), Ballast: make([]byte, 800)}))
	}
	for _, p := range ptrs {
		rt.Post(p, hInc, nil)
	}
	WaitQuiescence(rt)

	ckpt := storage.NewMem()
	if err := rt.Checkpoint(ckpt, "ck1"); err != nil {
		t.Fatal(err)
	}

	// A brand-new runtime (same node id) restores from the checkpoint.
	tr2 := comm.NewInProc(1, comm.LatencyModel{})
	defer tr2.Close()
	pool2 := sched.NewWorkStealing(2)
	defer pool2.Close()
	rt2 := NewRuntime(Config{
		Endpoint: tr2.Endpoint(0),
		Pool:     pool2,
		Factory:  testFactory,
		Mem:      ooc.Config{Budget: 1 << 20},
		Store:    storage.NewMem(),
	})
	defer rt2.Close()
	if err := rt2.Restore(ckpt, "ck1"); err != nil {
		t.Fatal(err)
	}
	if rt2.NumLocalObjects() != 6 {
		t.Fatalf("restored %d objects, want 6", rt2.NumLocalObjects())
	}
	// The restored objects must carry the pre-checkpoint state: object i
	// had Count == i+1 (initial i plus one increment).
	rt2.Register(hInc, func(ctx *Ctx, arg []byte) { ctx.Object().(*testObj).Count++ })
	got := make(chan int64, 1)
	rt2.Register(98, func(ctx *Ctx, arg []byte) { got <- ctx.Object().(*testObj).Count })
	for i, p := range ptrs {
		rt2.Post(p, 98, nil)
		if v := <-got; v != int64(i)+1 {
			t.Fatalf("object %d restored Count = %d, want %d", i, v, i+1)
		}
	}
	// New sequence numbers must not collide with checkpointed objects.
	np := rt2.CreateObject(&testObj{})
	for _, p := range ptrs {
		if np == p {
			t.Fatal("sequence collision after restore")
		}
	}
}

func TestCheckpointRefusesBusyObject(t *testing.T) {
	c := newCluster(t, 1, 1<<20)
	rt := c.rts[0]
	block := make(chan struct{})
	started := make(chan struct{})
	rt.Register(77, func(ctx *Ctx, arg []byte) {
		close(started)
		<-block
	})
	ptr := rt.CreateObject(&testObj{})
	rt.Post(ptr, 77, nil)
	<-started
	ckpt := storage.NewMem()
	err := rt.Checkpoint(ckpt, "busy")
	close(block)
	if err == nil {
		t.Fatal("checkpoint of a running object should fail")
	}
	WaitQuiescence(rt)
}

// TestCheckpointRefusesQueuedMessages: a checkpoint records no message
// queue, so an object that has one fails it with ErrBusy, named in the
// error, and no manifest is written. Checkpoints are taken at quiescence,
// where no queue is left; the message is planted on an idle object.
func TestCheckpointRefusesQueuedMessages(t *testing.T) {
	c := newCluster(t, 1, 1<<20)
	registerInc(c)
	rt := c.rts[0]
	idle := rt.CreateObject(&testObj{})
	ptr := rt.CreateObject(&testObj{})
	WaitQuiescence(rt)
	lo := rt.lookup(ptr)
	lo.mu.Lock()
	lo.queue = append(lo.queue, queued{handler: hInc, arg: []byte{1}})
	lo.mu.Unlock()

	ckpt := storage.NewMem()
	err := rt.Checkpoint(ckpt, "q")
	lo.mu.Lock()
	lo.queue = nil
	lo.mu.Unlock()
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("checkpoint with a queued message: %v, want ErrBusy", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprint(ptr)) || strings.Contains(err.Error(), fmt.Sprint(idle)) {
		t.Fatalf("error %q should name %v and only it", err, ptr)
	}
	if ckpt.Has("q-manifest") {
		t.Fatal("a refused checkpoint wrote its manifest")
	}
	if err := rt.Checkpoint(ckpt, "q"); err != nil {
		t.Fatalf("checkpoint after the queue emptied: %v", err)
	}
}

// TestRefusedCheckpointLeavesNoBlobs: a checkpoint refused for one queued
// object among eight deletes the blobs it wrote before the refusal. The
// objects are visited in map order, so the refusal comes after some writes
// in all but an eighth of the attempts; five attempts make that certain in
// practice.
func TestRefusedCheckpointLeavesNoBlobs(t *testing.T) {
	c := newCluster(t, 1, 1<<20)
	registerInc(c)
	rt := c.rts[0]
	var ptrs []MobilePtr
	for i := 0; i < 8; i++ {
		ptrs = append(ptrs, rt.CreateObject(&testObj{Count: int64(i), Ballast: make([]byte, 100)}))
	}
	WaitQuiescence(rt)
	lo := rt.lookup(ptrs[5])
	lo.mu.Lock()
	lo.queue = append(lo.queue, queued{handler: hInc, arg: []byte{1}})
	lo.mu.Unlock()
	defer func() {
		lo.mu.Lock()
		lo.queue = nil
		lo.mu.Unlock()
	}()
	for attempt := 0; attempt < 5; attempt++ {
		ckpt := storage.NewMem()
		if err := rt.Checkpoint(ckpt, "q"); !errors.Is(err, ErrBusy) {
			t.Fatalf("checkpoint with a queued message: %v, want ErrBusy", err)
		}
		for _, p := range ptrs {
			if key := storage.Key(fmt.Sprintf("q-%d-%d", p.Home, p.Seq)); ckpt.Has(key) {
				t.Fatalf("attempt %d: refused checkpoint left %s behind", attempt, key)
			}
		}
		if ckpt.Has("q-manifest") || ckpt.BytesResident() != 0 {
			t.Fatalf("attempt %d: refused checkpoint left %d bytes behind", attempt, ckpt.BytesResident())
		}
	}
}

func TestRestoreWrongNode(t *testing.T) {
	c := newCluster(t, 2, 1<<20)
	rt := c.rts[0]
	rt.CreateObject(&testObj{})
	WaitQuiescence(rt)
	ckpt := storage.NewMem()
	if err := rt.Checkpoint(ckpt, "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.rts[1].Restore(ckpt, "x"); err == nil {
		t.Fatal("restore on wrong node should fail")
	}
}

func TestRestoreRefusesNonEmptyRuntime(t *testing.T) {
	c := newCluster(t, 1, 1<<20)
	rt := c.rts[0]
	rt.CreateObject(&testObj{})
	WaitQuiescence(rt)
	ckpt := storage.NewMem()
	if err := rt.Checkpoint(ckpt, "x"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Restore(ckpt, "x"); err == nil {
		t.Fatal("restore into a non-empty runtime should fail")
	}
}

func TestRestoreMissingManifest(t *testing.T) {
	c := newCluster(t, 1, 1<<20)
	if err := c.rts[0].Restore(storage.NewMem(), "nope"); err == nil {
		t.Fatal("restore without manifest should fail")
	}
}

func TestCheckpointPreservesLocks(t *testing.T) {
	c := newCluster(t, 1, 1<<20)
	rt := c.rts[0]
	ptr := rt.CreateObject(&testObj{})
	rt.Lock(ptr)
	WaitQuiescence(rt)
	ckpt := storage.NewMem()
	if err := rt.Checkpoint(ckpt, "lk"); err != nil {
		t.Fatal(err)
	}
	tr2 := comm.NewInProc(1, comm.LatencyModel{})
	defer tr2.Close()
	pool2 := sched.NewWorkStealing(1)
	defer pool2.Close()
	rt2 := NewRuntime(Config{
		Endpoint: tr2.Endpoint(0),
		Pool:     pool2,
		Factory:  testFactory,
		Mem:      ooc.Config{Budget: 1 << 20},
		Store:    storage.NewMem(),
	})
	defer rt2.Close()
	if err := rt2.Restore(ckpt, "lk"); err != nil {
		t.Fatal(err)
	}
	if !rt2.Mem().Locked(oid(ptr)) {
		t.Fatal("lock hint lost across checkpoint/restore")
	}
	// Give the background no chance to leave stray work.
	time.Sleep(time.Millisecond)
	WaitQuiescence(rt2)
}
