package tier

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"mrts/internal/storage"
)

func newTiered(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Slow == nil {
		cfg.Slow = storage.NewMem()
	}
	if cfg.Fast == nil && cfg.Capacity != 0 {
		cfg.Fast = storage.NewMem()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func checkClean(t *testing.T, s *Store) {
	t.Helper()
	s.WaitIdle()
	if msgs := s.CheckInvariants(true); len(msgs) > 0 {
		t.Fatalf("invariants violated: %v", msgs)
	}
}

// closeOnce returns a function that closes ch the first time it is called: a
// test defers it, so that a failed assertion cannot leave a gated store
// holding Close, and also calls it where the gate is meant to open.
func closeOnce(ch chan struct{}) func() {
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func blob(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

func TestPutGetFastTier(t *testing.T) {
	s := newTiered(t, Config{Capacity: -1})
	if err := s.Put("a", blob(100)); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, err := s.Get("a")
	if err != nil || len(got) != 100 {
		t.Fatalf("get: %v (%d bytes)", err, len(got))
	}
	st := s.Snapshot()
	if st.FastPuts != 1 || st.FastHits != 1 || st.Spills != 0 {
		t.Fatalf("want 1 fast put + 1 fast hit, got %+v", st)
	}
	if st.FastBytes != 100 || st.FastBlobs != 1 {
		t.Fatalf("residency: %+v", st)
	}
	checkClean(t, s)
}

func TestCapacityZeroIsPureDisk(t *testing.T) {
	slow := storage.NewMem()
	s := newTiered(t, Config{Slow: slow, Capacity: 0})
	for i := 0; i < 5; i++ {
		if err := s.Put(storage.Key(fmt.Sprintf("k%d", i)), blob(50)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if _, err := s.Get("k3"); err != nil {
		t.Fatalf("get: %v", err)
	}
	st := s.Snapshot()
	if st.FastPuts != 0 || st.Spills != 5 || st.SlowHits != 1 || st.FastBytes != 0 {
		t.Fatalf("pure-disk stats: %+v", st)
	}
	if !slow.Has("k3") {
		t.Fatal("blob not on the slow tier")
	}
	checkClean(t, s)
}

func TestSpillWhenFullNeverErrors(t *testing.T) {
	s := newTiered(t, Config{Capacity: 300})
	// Three 100-byte blobs fill the lease exactly; the fourth must spill,
	// not fail.
	for i := 0; i < 4; i++ {
		if err := s.Put(storage.Key(fmt.Sprintf("k%d", i)), blob(100)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	st := s.Snapshot()
	if st.Spills == 0 {
		t.Fatalf("want at least one spill, got %+v", st)
	}
	if st.FastBytes > 300 {
		t.Fatalf("lease exceeded: %+v", st)
	}
	for i := 0; i < 4; i++ {
		if got, err := s.Get(storage.Key(fmt.Sprintf("k%d", i))); err != nil || len(got) != 100 {
			t.Fatalf("get %d: %v (%d bytes)", i, err, len(got))
		}
	}
	checkClean(t, s)
}

// heldPuts is a slow store whose Puts, but for one key, wait to be released.
type heldPuts struct {
	storage.Store
	except  storage.Key
	release chan struct{}
}

func (h *heldPuts) Put(k storage.Key, d []byte) error {
	if k != h.except {
		<-h.release
	}
	return h.Store.Put(k, d)
}

func TestHeatAdmissionAboveHighWater(t *testing.T) {
	// Capacity 1000, high water 900. Fill to 850, then write one cold key
	// and one warm key of 100 bytes each: the warm one is admitted (it was
	// seen before), the cold one spills.
	//
	// The warm write crosses the high mark and starts a demotion wave in the
	// background; were it to finish before the cold write, the lease would be
	// uncontended again and the cold key admitted. The slow tier therefore
	// holds every demotion write until both admissions have been decided.
	slow := &heldPuts{Store: storage.NewMem(), except: "cold", release: make(chan struct{})}
	s := newTiered(t, Config{Slow: slow, Capacity: 1000})
	release := closeOnce(slow.release)
	defer release()
	for i := 0; i < 17; i++ {
		if err := s.Put(storage.Key(fmt.Sprintf("fill%d", i)), blob(50)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up "warm" while there is still room below the mark.
	if err := s.Put("warm", blob(10)); err != nil {
		t.Fatal(err)
	}
	base := s.Snapshot()
	if err := s.Put("warm", blob(100)); err != nil { // 860+100 > 900, but warm
		t.Fatal(err)
	}
	if err := s.Put("cold", blob(100)); err != nil { // cold first-timer: spill
		t.Fatal(err)
	}
	st := s.Snapshot()
	if st.FastPuts != base.FastPuts+1 {
		t.Fatalf("warm key not admitted: base %+v now %+v", base, st)
	}
	if st.Spills != base.Spills+1 {
		t.Fatalf("cold key not spilled: base %+v now %+v", base, st)
	}
	release()
	s.WaitIdle() // the warm admit crossed high water; let demotion settle
	if msgs := s.CheckInvariants(true); len(msgs) > 0 {
		t.Fatalf("invariants: %v", msgs)
	}
}

func TestDemotionToLowWatermark(t *testing.T) {
	slow := storage.NewMem()
	s := newTiered(t, Config{Slow: slow, Capacity: 1000})
	// High mark 900, low mark 700.
	// 9 × 100 bytes = 900 ≤ high mark, no demotion yet; the 10th write
	// spills (projected 1000 > 900 and cold), so rewrite a warm key bigger
	// to cross the mark.
	for i := 0; i < 9; i++ {
		if err := s.Put(storage.Key(fmt.Sprintf("k%d", i)), blob(100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("k0", blob(150)); err != nil { // 950 > 900: triggers demotion
		t.Fatal(err)
	}
	s.WaitIdle()
	st := s.Snapshot()
	if st.Demotions == 0 {
		t.Fatalf("no demotions ran: %+v", st)
	}
	if st.FastBytes > 700 {
		t.Fatalf("demotion stopped above low watermark: %+v", st)
	}
	// Every blob still readable, from whichever tier it now occupies.
	for i := 0; i < 9; i++ {
		if _, err := s.Get(storage.Key(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("get k%d after demotion: %v", i, err)
		}
	}
	checkClean(t, s)
}

func TestPromotionAfterRepeatedMisses(t *testing.T) {
	s := newTiered(t, Config{Capacity: 10_000})
	// Plant the blob on the slow tier directly: an empty 10 000-byte lease
	// admits every write that fits it.
	if err := s.slow.Put("cold", blob(200)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.index["cold"] = &entry{size: 200, place: inSlow}
	s.mu.Unlock()

	for i := 0; i < 2; i++ {
		if _, err := s.Get("cold"); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	s.WaitIdle()
	st := s.Snapshot()
	if st.Promotions != 1 {
		t.Fatalf("want 1 promotion, got %+v", st)
	}
	if _, err := s.Get("cold"); err != nil {
		t.Fatal(err)
	}
	if st := s.Snapshot(); st.FastHits == 0 {
		t.Fatalf("promoted blob not served by tier 0: %+v", st)
	}
	checkClean(t, s)
}

func TestFastPutErrorSpills(t *testing.T) {
	fast := storage.NewFault(storage.NewMem(), storage.FaultConfig{FailFirstPuts: 1})
	s := newTiered(t, Config{Fast: fast, Capacity: -1})
	if err := s.Put("a", blob(100)); err != nil {
		t.Fatalf("put should spill on a fast-tier fault, got %v", err)
	}
	st := s.Snapshot()
	if st.FastPutErrors != 1 || st.Spills != 1 {
		t.Fatalf("fault not absorbed by spill: %+v", st)
	}
	if got, err := s.Get("a"); err != nil || len(got) != 100 {
		t.Fatalf("get after spill: %v", err)
	}
	checkClean(t, s)
}

func TestFastReadErrorPropagatesThenRecovers(t *testing.T) {
	fast := storage.NewFault(storage.NewMem(), storage.FaultConfig{FailFirstGets: 1})
	s := newTiered(t, Config{Fast: fast, Capacity: -1})
	if err := s.Put("a", blob(100)); err != nil {
		t.Fatal(err)
	}
	// First read faults; the error surfaces so the caller's retry policy
	// re-drives the tiered Get, which then succeeds.
	if _, err := s.Get("a"); err == nil {
		t.Fatal("want the injected fast-read fault to propagate")
	} else if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := s.Get("a"); err != nil {
		t.Fatalf("retry re-drive failed: %v", err)
	}
	if st := s.Snapshot(); st.FastReadErrors != 1 || st.FastHits != 1 {
		t.Fatalf("stats: %+v", st)
	}
	checkClean(t, s)
}

func TestOverwriteMovesBetweenTiers(t *testing.T) {
	slow := storage.NewMem()
	fast := storage.NewMem()
	s := newTiered(t, Config{Fast: fast, Slow: slow, Capacity: 200})
	if err := s.Put("a", blob(250)); err != nil { // > lease: slow
		t.Fatal(err)
	}
	if !slow.Has("a") || fast.Has("a") {
		t.Fatal("want a on the slow tier only")
	}
	if err := s.Put("a", blob(80)); err != nil { // fits now: fast
		t.Fatal(err)
	}
	if !fast.Has("a") || slow.Has("a") {
		t.Fatal("overwrite must move the blob to tier 0 and scrub tier 1")
	}
	if err := s.Put("a", blob(250)); err != nil { // too big again: back to slow
		t.Fatal(err)
	}
	if !slow.Has("a") || fast.Has("a") {
		t.Fatal("overwrite must move the blob back to tier 1 and scrub tier 0")
	}
	checkClean(t, s)
}

func TestDeleteScrubsBothTiers(t *testing.T) {
	slow := storage.NewMem()
	fast := storage.NewMem()
	s := newTiered(t, Config{Fast: fast, Slow: slow, Capacity: -1})
	if err := s.Put("f", blob(10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if s.Has("f") || fast.Has("f") {
		t.Fatal("delete left a tier-0 copy")
	}
	if _, err := s.Get("f"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if st := s.Snapshot(); st.FastBytes != 0 {
		t.Fatalf("delete leaked lease bytes: %+v", st)
	}
	checkClean(t, s)
}

func TestGetMissingKey(t *testing.T) {
	s := newTiered(t, Config{Capacity: -1})
	if _, err := s.Get("nope"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if s.Has("nope") {
		t.Fatal("Has on a missing key")
	}
}

func TestClosedStore(t *testing.T) {
	s := newTiered(t, Config{Capacity: -1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", blob(1)); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if _, err := s.Get("a"); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("get after close: %v", err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestConcurrentHammer drives interleaved Put/Get/Delete from many
// goroutines over overlapping keys while a spectator continuously asserts
// the lease and accounting invariants. Run under -race in CI.
func TestConcurrentHammer(t *testing.T) {
	const (
		workers = 8
		rounds  = 200
		keys    = 16
		lease   = 2_000
	)
	s := newTiered(t, Config{Capacity: lease})

	stop := make(chan struct{})
	var spectator sync.WaitGroup
	spectator.Add(1)
	go func() {
		defer spectator.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if msgs := s.CheckInvariants(false); len(msgs) > 0 {
				t.Errorf("mid-traffic invariants: %v", msgs)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := storage.Key(fmt.Sprintf("k%d", (w*7+i)%keys))
				switch i % 5 {
				case 0, 1:
					if err := s.Put(key, blob(50+(i%13)*20)); err != nil {
						t.Errorf("put %q: %v", key, err)
						return
					}
				case 2, 3:
					if _, err := s.Get(key); err != nil &&
						!errors.Is(err, storage.ErrNotFound) {
						t.Errorf("get %q: %v", key, err)
						return
					}
				default:
					if err := s.Delete(key); err != nil &&
						!errors.Is(err, storage.ErrNotFound) {
						t.Errorf("delete %q: %v", key, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	spectator.Wait()
	checkClean(t, s)
	if st := s.Snapshot(); st.FastBytes > lease {
		t.Fatalf("lease exceeded at rest: %+v", st)
	}
}

// gatedDelete is a fast store whose Delete of one key announces itself and
// then waits to be released, holding a demotion inside its done hook.
type gatedDelete struct {
	storage.Store
	key              storage.Key
	entered, release chan struct{}
}

func (g *gatedDelete) Delete(k storage.Key) error {
	if k == g.key {
		close(g.entered)
		<-g.release
	}
	return g.Store.Delete(k)
}

// TestGetDuringDemotionScrubKeepsLease is the deterministic form of the leak
// the hammer used to hit: a demotion has published its key as slow-resident
// but is still scrubbing the fast copy — charged and latched — when a Get
// reaches the promotion threshold (its second miss). The Get must not
// reserve lease bytes for the key: the demotion's epilogue would release that
// reservation instead of its own charge and the promotion would install
// uncharged.
func TestGetDuringDemotionScrubKeepsLease(t *testing.T) {
	fast := &gatedDelete{Store: storage.NewMem(), key: "a",
		entered: make(chan struct{}), release: make(chan struct{})}
	s := newTiered(t, Config{Fast: fast, Capacity: 1000})
	release := closeOnce(fast.release)
	defer release()
	if err := s.Put("a", blob(300)); err != nil {
		t.Fatal(err)
	}
	// "b" is written twice so that the write crossing the high watermark is
	// warm and admitted: 950 > 900 demotes "a", the coldest, down to 700.
	for _, n := range []int{100, 650} {
		if err := s.Put("b", blob(n)); err != nil {
			t.Fatal(err)
		}
	}
	<-fast.entered
	// Make room under the high watermark so that only the latch stands
	// between the Get and a promotion reservation.
	if err := s.Delete("b"); err != nil {
		t.Fatal(err)
	}
	// The demotion reset the miss count; the second miss reaches the
	// promotion threshold while the key is still latched.
	for i := 0; i < 2; i++ {
		if got, err := s.Get("a"); err != nil || len(got) != 300 {
			t.Fatalf("get %d during the scrub: %d bytes, %v", i, len(got), err)
		}
	}
	if msgs := s.CheckInvariants(false); len(msgs) > 0 {
		t.Fatalf("inside the window: %v", msgs)
	}
	release()
	checkClean(t, s)
	if st := s.Snapshot(); st.FastBytes != 0 || st.Demotions != 1 || st.Promotions != 0 {
		t.Fatalf("after the demotion settled: %+v", st)
	}
	// The key is promotable again once the latch is gone.
	if _, err := s.Get("a"); err != nil {
		t.Fatal(err)
	}
	checkClean(t, s)
	if st := s.Snapshot(); st.Promotions != 1 || st.FastBytes != 300 {
		t.Fatalf("promotion after the demotion settled: %+v", st)
	}
}

// TestPutOnPromotingSpillReleasesReservation overwrites a mid-promotion key
// with a blob admission refuses: the spill succeeds and must release the
// orphaned promotion reservation — the gen bump means the promotion callback
// never will, and a leaked charge shrinks the lease forever.
func TestPutOnPromotingSpillReleasesReservation(t *testing.T) {
	slow := storage.NewMem()
	s := newTiered(t, Config{Slow: slow, Capacity: 1000})
	// Plant a key mid-promotion exactly as reservePromoteLocked leaves it
	// while the prefetch load is in flight: slow copy authoritative, lease
	// reservation charged.
	if err := s.slow.Put("p", blob(80)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.index["p"] = &entry{size: 80, charged: 80, place: promoting}
	s.fastBytes += 80
	s.mu.Unlock()

	if err := s.Put("p", blob(1100)); err != nil { // > lease: spills
		t.Fatalf("put: %v", err)
	}
	if st := s.Snapshot(); st.FastBytes != 0 {
		t.Fatalf("promotion reservation leaked into the lease: %+v", st)
	}
	if got, err := s.Get("p"); err != nil || len(got) != 1100 {
		t.Fatalf("get: %v (%d bytes)", err, len(got))
	}
	checkClean(t, s)
}

// TestPutFailingBothTiersOnPromotingRevertsToSlow fails a Put of a
// mid-promotion key on both tiers: the entry must revert to its (still
// authoritative) slow copy and drop the reservation, not stay `promoting`
// forever with the charge held.
func TestPutFailingBothTiersOnPromotingRevertsToSlow(t *testing.T) {
	inner := storage.NewMem()
	slow := storage.NewFault(inner, storage.FaultConfig{FailFirstPuts: 1})
	s := newTiered(t, Config{Slow: slow, Capacity: 1000})
	if err := inner.Put("p", blob(80)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.index["p"] = &entry{size: 80, charged: 80, place: promoting}
	s.fastBytes += 80
	s.mu.Unlock()

	// A blob larger than the lease refuses tier 0 and the injected fault
	// fails the spill: the Put errors out, the old slow copy stays the truth.
	if err := s.Put("p", blob(1100)); err == nil {
		t.Fatal("want the double-fault put to fail")
	}
	s.mu.Lock()
	ent := s.index["p"]
	if ent.place != inSlow || ent.charged != 0 || s.fastBytes != 0 {
		s.mu.Unlock()
		t.Fatalf("entry not reconciled: place=%v charged=%d fastBytes=%d",
			ent.place, ent.charged, s.fastBytes)
	}
	s.mu.Unlock()
	if got, err := s.Get("p"); err != nil || len(got) != 80 {
		t.Fatalf("old slow copy unreadable: %v (%d bytes)", err, len(got))
	}
	checkClean(t, s)
}

// nilOnEmpty returns a nil (not empty) slice for zero-length blobs, as some
// stores legitimately do; the demotion pipeline must not mistake that for an
// aborted move and wedge the key.
type nilOnEmpty struct{ storage.Store }

func (n nilOnEmpty) Get(k storage.Key) ([]byte, error) {
	d, err := n.Store.Get(k)
	if err == nil && len(d) == 0 {
		return nil, nil
	}
	return d, err
}

func TestDemoteZeroLengthBlob(t *testing.T) {
	s := newTiered(t, Config{
		Fast: nilOnEmpty{storage.NewMem()}, Slow: storage.NewMem(),
		Capacity: 1000,
	})
	if err := s.Put("z", nil); err != nil { // zero-length, coldest
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := s.Put(storage.Key(fmt.Sprintf("k%d", i)), blob(100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("k0", blob(150)); err != nil { // crosses high water
		t.Fatal(err)
	}
	// Wedges here if the done hook mistakes the nil blob for an abort.
	s.WaitIdle()
	if !s.slow.Has("z") {
		t.Fatal("zero-length blob not demoted to tier 1")
	}
	checkClean(t, s)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error without a Slow store")
	}
	if _, err := New(Config{Slow: storage.NewMem(), Capacity: 100}); err == nil {
		t.Fatal("want error when Capacity != 0 without a Fast store")
	}
	s, err := New(Config{Slow: storage.NewMem(), Capacity: 0})
	if err != nil {
		t.Fatalf("capacity-0 store must not need a fast tier: %v", err)
	}
	_ = s.Close()
}

func TestHitRatio(t *testing.T) {
	var st Stats
	if st.HitRatio() != 0 {
		t.Fatal("empty ratio")
	}
	st.FastHits, st.SlowHits = 3, 1
	if got := st.HitRatio(); got != 0.75 {
		t.Fatalf("want 0.75, got %v", got)
	}
}
