package ooc

import (
	"math/rand"
	"sync"
	"testing"
)

// TestSuggestPrefetchRacesEviction hammers SuggestPrefetchRanked while other
// goroutines flip residency, queue pressure, and registration underneath it —
// the shape of a prefetch scan running concurrently with the eviction path.
// Run under -race; the assertions check the suggestions stay well-formed
// (no duplicates, respecting limit) no matter how the timeline interleaves.
func TestSuggestPrefetchRacesEviction(t *testing.T) {
	const objects = 64
	m := newMgr(LRU, 1<<20)
	for i := 1; i <= objects; i++ {
		if err := m.Register(ObjectID(i), 128); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Evictor/loader: objects continuously leave and re-enter core.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := ObjectID(1 + rng.Intn(objects))
			if rng.Intn(2) == 0 {
				m.MarkOut(id)
			} else {
				m.MarkIn(id)
			}
		}
	}()

	// Message pressure: queue lengths and touches churn the ranking keys
	// SuggestPrefetchRanked sorts by.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := ObjectID(1 + rng.Intn(objects))
			m.SetQueueLen(id, rng.Intn(5))
			m.Touch(id)
			m.SetPriority(id, rng.Intn(3))
		}
	}()

	// Lifecycle churn: a band of extra objects appears and disappears, so the
	// scan races registration too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := ObjectID(objects + 1 + i%16)
			if m.Register(id, 64) == nil {
				m.MarkOut(id)
				m.SetQueueLen(id, 1)
			}
			m.Unregister(id)
		}
	}()

	const limit = 8
	for i := 0; i < 3000; i++ {
		got := m.SuggestPrefetchRanked(limit)
		if len(got) > limit {
			t.Fatalf("SuggestPrefetchRanked returned %d ids, limit %d", len(got), limit)
		}
		seen := make(map[ObjectID]bool, len(got))
		for _, c := range got {
			if seen[c.ID] {
				t.Fatalf("duplicate suggestion %d in %v", c.ID, got)
			}
			seen[c.ID] = true
		}
		if i%500 == 0 {
			m.PickVictims(512) // the eviction scan itself joins the race
		}
	}
	close(stop)
	wg.Wait()

	// After the dust settles the ranking contract must hold: out-of-core
	// objects with queued messages outrank merely prioritized ones.
	for i := 1; i <= objects; i++ {
		m.MarkIn(ObjectID(i))
		m.SetQueueLen(ObjectID(i), 0)
		m.SetPriority(ObjectID(i), 0)
	}
	m.MarkOut(1)
	m.SetQueueLen(1, 3)
	m.MarkOut(2)
	m.SetPriority(2, 1)
	got := m.SuggestPrefetchRanked(2)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("SuggestPrefetchRanked ranking = %v, want IDs [1 2]", got)
	}
}
