package core

import (
	"testing"

	"mrts/internal/comm"
	"mrts/internal/ooc"
	"mrts/internal/sched"
	"mrts/internal/storage"
)

// holdStore parks the Put of one key and the Get of another until released,
// announcing each arrival: a way to hold the single I/O worker at a chosen
// point of the swap path.
type holdStore struct {
	storage.Store
	putKey, getKey         storage.Key
	putEntered, putRelease chan struct{}
	getEntered, getRelease chan struct{}
}

func (s *holdStore) Put(k storage.Key, d []byte) error {
	if k == s.putKey {
		close(s.putEntered)
		<-s.putRelease
	}
	return s.Store.Put(k, d)
}

func (s *holdStore) Get(k storage.Key) ([]byte, error) {
	if k == s.getKey {
		close(s.getEntered)
		<-s.getRelease
	}
	return s.Store.Get(k)
}

// TestForceLoadWhileStoringSurvivesPrefetchCancel pins the class of a reload
// that Lock (or a multicast collection) asks for while the object is being
// written out. Nothing is queued on such an object, so if its reload went in
// at prefetch class, the cancellation of speculative loads under memory
// pressure would drop it and nobody would ever ask again — the hang
// TestRunONUPDRMulticastOutOfCore used to hit one run in ten.
func TestForceLoadWhileStoringSurvivesPrefetchCancel(t *testing.T) {
	tr := comm.NewInProc(1, comm.LatencyModel{})
	pool := sched.NewWorkStealing(2)
	hs := &holdStore{Store: storage.NewMem(),
		putEntered: make(chan struct{}), putRelease: make(chan struct{}),
		getEntered: make(chan struct{}), getRelease: make(chan struct{})}
	rt := NewRuntime(Config{
		Endpoint:  tr.Endpoint(0),
		Pool:      pool,
		Factory:   testFactory,
		Mem:       ooc.Config{Budget: 1 << 20},
		Store:     hs,
		IOWorkers: 1,
	})
	t.Cleanup(func() {
		rt.Close()
		pool.Close()
		tr.Close()
	})
	rt.Register(hInc, func(ctx *Ctx, arg []byte) { ctx.Object().(*testObj).Count++ })

	p := rt.CreateObject(&testObj{Ballast: make([]byte, 256)})
	q := rt.CreateObject(&testObj{Ballast: make([]byte, 256)})
	if st := evictAndSettle(t, rt, q); st != stOut {
		t.Fatalf("q settled in state %d, want stOut", st)
	}
	hs.putKey, hs.getKey = storeKey(p), storeKey(q)

	// The worker parks inside p's eviction write; p is stStoring.
	if !rt.tryEvict(rt.findByOID(oid(p))) {
		t.Fatal("tryEvict(p) refused")
	}
	<-hs.putEntered
	if !rt.Lock(p) { // blocked on p: its reload must come at demand class
		t.Fatal("Lock(p): not local")
	}
	defer rt.Unlock(p)
	// A demand load of q queues up behind the write, ahead of p's reload, and
	// then holds the worker so that p's reload stays queued.
	rt.Post(q, hInc, nil)
	close(hs.putRelease)
	<-hs.getEntered
	if n := rt.io.CancelPrefetches(); n != 0 {
		t.Errorf("memory pressure cancelled %d load(s); the only one queued is the one Lock is waiting for", n)
	}
	close(hs.getRelease)
	waitStoreCond(t, "the locked object to come back in core", func() bool { return rt.InCore(p) })
	waitQuiesceOrFail(t, rt)
}
