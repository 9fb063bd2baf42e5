package core

import (
	"testing"
	"time"

	"mrts/internal/storage"
)

// waitHas polls the predicate about a key's presence in rt's backing store.
func waitStoreCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMigrateAwayDeletesBlob: when an object leaves the node, its stale
// blob must leave the node's spool with it.
func TestMigrateAwayDeletesBlob(t *testing.T) {
	c := newCluster(t, 2, 1<<20)
	registerInc(c)
	ptr := c.rts[0].CreateObject(&testObj{Count: 5, Ballast: make([]byte, 512)})
	if got := evictAndSettle(t, c.rts[0], ptr); got != stOut {
		t.Fatalf("eviction settled in state %d, want stOut", got)
	}
	key := storeKey(ptr)
	if !c.rts[0].io.Backing().Has(key) {
		t.Fatal("no blob on node 0 after eviction")
	}
	if err := c.rts[0].Migrate(ptr, 1); err != nil {
		t.Fatal(err)
	}
	WaitQuiescence(c.rts...)
	waitStoreCond(t, "stale blob deletion on node 0", func() bool {
		return !c.rts[0].io.Backing().Has(key)
	})
	// The object itself survives the move with its state.
	c.rts[1].Post(ptr, hInc, nil)
	WaitQuiescence(c.rts...)
	if !c.rts[1].IsLocal(ptr) {
		t.Fatal("object not on node 1 after migration")
	}
}

// TestMigrateInCoreDeletesStaleBlob: an object that was evicted, reloaded,
// and then migrated while in-core leaves a stale blob behind unless the
// migration path deletes it unconditionally.
func TestMigrateInCoreDeletesStaleBlob(t *testing.T) {
	c := newCluster(t, 2, 1<<20)
	registerInc(c)
	ptr := c.rts[0].CreateObject(&testObj{Ballast: make([]byte, 512)})
	if got := evictAndSettle(t, c.rts[0], ptr); got != stOut {
		t.Fatalf("eviction settled in state %d, want stOut", got)
	}
	// Reload by posting: the object comes back in-core; the blob remains.
	c.rts[0].Post(ptr, hInc, nil)
	WaitQuiescence(c.rts...)
	if !c.rts[0].InCore(ptr) {
		t.Fatal("object not back in core")
	}
	key := storeKey(ptr)
	if err := c.rts[0].Migrate(ptr, 1); err != nil {
		t.Fatal(err)
	}
	WaitQuiescence(c.rts...)
	waitStoreCond(t, "stale blob deletion on node 0", func() bool {
		return !c.rts[0].io.Backing().Has(key)
	})
}

// TestEvictVictimsReportsFailure: when every candidate is pinned,
// evictVictims must return false and the hard path must count a loud stall
// rather than spin.
func TestEvictVictimsReportsFailure(t *testing.T) {
	rt, _ := newSwapFaultRuntime(t, storage.NewMem(), 4096, storage.RetryPolicy{})
	var ptrs []MobilePtr
	for i := 0; i < 3; i++ {
		p := rt.CreateObject(&testObj{Ballast: make([]byte, 1000)})
		if !rt.Lock(p) {
			t.Fatalf("Lock(%v) = false for a local object", p)
		}
		ptrs = append(ptrs, p)
	}
	// The residual demands that usage drop below ~one object's footprint.
	residual := func() int64 {
		if used := rt.mem.MemUsed(); used > 1000 {
			return used - 1000
		}
		return 0
	}
	if rt.evictVictims(residual(), Nil, residual) {
		t.Fatal("evictVictims reported success with every candidate locked")
	}
	for _, p := range ptrs {
		rt.Unlock(p)
	}
	// Unpinned, the same pass succeeds (second-scan behaviour: candidates
	// that were busy earlier are re-picked).
	if !rt.evictVictims(residual(), Nil, residual) {
		t.Fatal("evictVictims failed with idle unpinned candidates")
	}
	waitQuiesceOrFail(t, rt)
}

// TestEvictStallCounted: hard-threshold pressure against fully pinned
// residents surfaces as an EvictStalls count, not silence.
func TestEvictStallCounted(t *testing.T) {
	// Budget fits ~2 objects; pin both residents, then force a third to
	// load — the make-room pass on the load path cannot free anything.
	rt, _ := newSwapFaultRuntime(t, storage.NewMem(), 2600, storage.RetryPolicy{})
	victim := rt.CreateObject(&testObj{Ballast: make([]byte, 1000)})
	if got := evictAndSettle(t, rt, victim); got != stOut {
		t.Fatalf("eviction settled in state %d, want stOut", got)
	}
	var pinned []MobilePtr
	for i := 0; i < 2; i++ {
		p := rt.CreateObject(&testObj{Ballast: make([]byte, 1000)})
		rt.Lock(p)
		pinned = append(pinned, p)
	}
	rt.Post(victim, hInc, nil) // demand load with nothing evictable
	waitQuiesceOrFail(t, rt)
	if rt.EvictStalls() == 0 {
		t.Fatal("hard-path eviction failure was not counted as a stall")
	}
	for _, p := range pinned {
		rt.Unlock(p)
	}
}

// TestPrefetchReturnsLocality: the Prefetch/Lock bool contract (satellite:
// call sites can now assert locality).
func TestPrefetchReturnsLocality(t *testing.T) {
	c := newCluster(t, 2, 1<<20)
	registerInc(c)
	ptr := c.rts[0].CreateObject(&testObj{})
	if !c.rts[0].Prefetch(ptr) {
		t.Fatal("Prefetch of a local object = false")
	}
	if c.rts[1].Prefetch(ptr) {
		t.Fatal("Prefetch of a remote object = true")
	}
	if !c.rts[0].Lock(ptr) {
		t.Fatal("Lock of a local object = false")
	}
	c.rts[0].Unlock(ptr)
	if c.rts[1].Lock(ptr) {
		t.Fatal("Lock of a remote object = true")
	}
}

// TestRuntimeCoalescesDuplicateLoads: many posts racing against one
// swapped-out object issue exactly one storage read (runtime-level view of
// the scheduler's coalescing; the queue also serializes via stLoading).
func TestRuntimeCoalescesDuplicateLoads(t *testing.T) {
	st := storage.NewMem()
	rt, _ := newSwapFaultRuntime(t, st, 1<<20, storage.RetryPolicy{})
	ptr := rt.CreateObject(&testObj{Ballast: make([]byte, 256)})
	if got := evictAndSettle(t, rt, ptr); got != stOut {
		t.Fatalf("eviction settled in state %d, want stOut", got)
	}
	before := st.Stats().Gets
	for i := 0; i < 20; i++ {
		rt.Post(ptr, hInc, nil)
	}
	waitQuiesceOrFail(t, rt)
	if got := st.Stats().Gets - before; got != 1 {
		t.Fatalf("20 racing posts issued %d reads, want 1", got)
	}
	if !rt.InCore(ptr) {
		t.Fatal("object not in core after the posts drained")
	}
}

// TestIOStatsSurface: the runtime exposes the scheduler's counters.
func TestIOStatsSurface(t *testing.T) {
	rt, _ := newSwapFaultRuntime(t, storage.NewMem(), 1<<20, storage.RetryPolicy{})
	ptr := rt.CreateObject(&testObj{Ballast: make([]byte, 256)})
	if got := evictAndSettle(t, rt, ptr); got != stOut {
		t.Fatalf("eviction settled in state %d, want stOut", got)
	}
	rt.Post(ptr, hInc, nil)
	waitQuiesceOrFail(t, rt)
	st := rt.IOStats()
	if st.Writes == 0 {
		t.Fatalf("no eviction write counted: %+v", st)
	}
	if st.DemandLoads == 0 || st.CompletedDemand == 0 {
		t.Fatalf("no demand load counted: %+v", st)
	}
}
