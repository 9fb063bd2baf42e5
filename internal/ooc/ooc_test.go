package ooc

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func newMgr(policy Policy, budget int64) *Manager {
	return NewManager(Config{Budget: budget, Policy: policy})
}

func TestRegisterAccounting(t *testing.T) {
	m := newMgr(LRU, 1000)
	if err := m.Register(1, 300); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(1, 300); err == nil {
		t.Fatal("double register should fail")
	}
	if err := m.Register(2, 200); err != nil {
		t.Fatal(err)
	}
	if m.MemUsed() != 500 {
		t.Fatalf("MemUsed = %d", m.MemUsed())
	}
	m.Unregister(1)
	if m.MemUsed() != 200 {
		t.Fatalf("after unregister: %d", m.MemUsed())
	}
	m.Unregister(99) // no-op
}

func TestSetSizeGrowth(t *testing.T) {
	m := newMgr(LRU, 1000)
	m.Register(1, 100)
	m.SetSize(1, 400)
	if m.MemUsed() != 400 {
		t.Fatalf("MemUsed = %d", m.MemUsed())
	}
	if m.Size(1) != 400 {
		t.Fatalf("Size = %d", m.Size(1))
	}
	// Size of out-of-core object updates without changing used memory.
	m.MarkOut(1)
	if m.MemUsed() != 0 {
		t.Fatalf("after MarkOut: %d", m.MemUsed())
	}
	m.SetSize(1, 500)
	if m.MemUsed() != 0 {
		t.Fatalf("SetSize on OOC object changed used: %d", m.MemUsed())
	}
	m.MarkIn(1)
	if m.MemUsed() != 500 {
		t.Fatalf("after MarkIn: %d", m.MemUsed())
	}
}

func TestMarkInOutIdempotent(t *testing.T) {
	m := newMgr(LRU, 1000)
	m.Register(1, 100)
	m.MarkOut(1)
	m.MarkOut(1)
	if m.MemUsed() != 0 {
		t.Fatalf("double MarkOut: %d", m.MemUsed())
	}
	m.MarkIn(1)
	m.MarkIn(1)
	if m.MemUsed() != 100 {
		t.Fatalf("double MarkIn: %d", m.MemUsed())
	}
	s := m.Snapshot()
	if s.Evictions != 1 || s.Loads != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLRUVictimOrder(t *testing.T) {
	m := newMgr(LRU, 1000)
	for id := ObjectID(1); id <= 3; id++ {
		m.Register(id, 100)
	}
	m.Touch(1) // order of recency now: 2 (oldest), 3, 1
	m.Touch(3)
	m.Touch(1)
	v := m.PickVictims(100)
	if len(v) != 1 || v[0] != 2 {
		t.Fatalf("LRU victims = %v, want [2]", v)
	}
	v = m.PickVictims(250)
	if len(v) != 3 || v[0] != 2 || v[1] != 3 || v[2] != 1 {
		t.Fatalf("LRU victims(250) = %v, want [2 3 1]", v)
	}
}

func TestMRUVictimOrder(t *testing.T) {
	m := newMgr(MRU, 1000)
	for id := ObjectID(1); id <= 3; id++ {
		m.Register(id, 100)
	}
	m.Touch(2) // 2 is most recent
	v := m.PickVictims(100)
	if len(v) != 1 || v[0] != 2 {
		t.Fatalf("MRU victims = %v, want [2]", v)
	}
}

func TestLUAndMUVictims(t *testing.T) {
	m := newMgr(LU, 1000)
	for id := ObjectID(1); id <= 3; id++ {
		m.Register(id, 100)
	}
	m.Touch(1)
	m.Touch(1)
	m.Touch(2)
	// LU evicts fewest-accesses first: 3 (0), then 2 (1), then 1 (2).
	v := m.PickVictims(300)
	if len(v) != 3 || v[0] != 3 || v[1] != 2 || v[2] != 1 {
		t.Fatalf("LU victims = %v", v)
	}
	mu := newMgr(MU, 1000)
	for id := ObjectID(1); id <= 3; id++ {
		mu.Register(id, 100)
	}
	mu.Touch(1)
	mu.Touch(1)
	mu.Touch(2)
	v = mu.PickVictims(100)
	if len(v) != 1 || v[0] != 1 {
		t.Fatalf("MU victims = %v, want [1]", v)
	}
}

func TestLFUFrequency(t *testing.T) {
	m := newMgr(LFU, 1000)
	m.Register(1, 100)
	// Many accesses to 1 early.
	for i := 0; i < 10; i++ {
		m.Touch(1)
	}
	m.Register(2, 100)
	m.Touch(2)
	// Object 1: 10 accesses over a long age; object 2: 1 access, young.
	// Advance the clock so 1's frequency stays high relative to 2.
	v := m.PickVictims(100)
	if len(v) != 1 {
		t.Fatalf("victims = %v", v)
	}
	// 2's frequency = 1/age2; 1's = 10/age1. age1 ≈ 13, age2 ≈ 2.
	// freq1 ≈ 0.77 > freq2 = 0.5, so 2 is evicted.
	if v[0] != 2 {
		t.Fatalf("LFU victim = %v, want 2", v)
	}
}

func TestLockPreventsEviction(t *testing.T) {
	m := newMgr(LRU, 1000)
	m.Register(1, 100)
	m.Register(2, 100)
	m.Lock(1)
	if !m.Locked(1) {
		t.Fatal("Locked(1) should be true")
	}
	v := m.PickVictims(200)
	for _, id := range v {
		if id == 1 {
			t.Fatal("locked object selected for eviction")
		}
	}
	m.Unlock(1)
	if m.Locked(1) {
		t.Fatal("Locked after Unlock")
	}
	v = m.PickVictims(200)
	if len(v) != 2 {
		t.Fatalf("victims after unlock = %v", v)
	}
}

func TestPriorityOrdering(t *testing.T) {
	m := newMgr(LRU, 1000)
	m.Register(1, 100)
	m.Register(2, 100)
	m.Register(3, 100)
	m.SetPriority(2, 10) // keep 2 longest
	m.SetPriority(3, 5)
	v := m.PickVictims(300)
	if len(v) != 3 || v[0] != 1 || v[1] != 3 || v[2] != 2 {
		t.Fatalf("victims = %v, want [1 3 2]", v)
	}
}

func TestQueueLenBias(t *testing.T) {
	m := newMgr(LRU, 1000)
	m.Register(1, 100)
	m.Register(2, 100)
	m.SetQueueLen(1, 5) // 1 has pending work; 2 goes first
	v := m.PickVictims(100)
	if len(v) != 1 || v[0] != 2 {
		t.Fatalf("victims = %v, want [2]", v)
	}
}

// The paper's hard threshold is 2 × the largest object stored on disk so far.
func TestHardThreshold(t *testing.T) {
	m := NewManager(Config{Budget: 1000})
	if m.hardThresholdLocked() != 0 {
		t.Fatal("no stored objects: threshold 0")
	}
	m.Register(1, 300)
	m.Register(2, 120)
	m.MarkOut(2)
	m.MarkOut(1) // largest stored = 300 → hard threshold 600
	if got := m.hardThresholdLocked(); got != 2*300 {
		t.Fatalf("hard threshold = %d, want 2 × 300", got)
	}
	// Allocation limit = budget - threshold = 400.
	if need := m.NeedForAlloc(400); need != 0 {
		t.Fatalf("NeedForAlloc(400) = %d, want 0", need)
	}
	if need := m.NeedForAlloc(500); need != 100 {
		t.Fatalf("NeedForAlloc(500) = %d, want 100", need)
	}
}

// The paper's soft threshold is ½ of memory: swapping is advised once more
// than half the budget is in use, down to exactly half.
func TestSoftThreshold(t *testing.T) {
	const budget = 1000
	m := NewManager(Config{Budget: budget})
	if m.NeedForSoft() != 0 {
		t.Fatal("empty manager should not breach soft threshold")
	}
	m.Register(1, 400)
	if m.NeedForSoft() != 0 {
		t.Fatal("400/1000 used: free 600 >= 500")
	}
	m.Register(2, 200)
	if got, want := m.NeedForSoft(), int64(600-budget/2); got != want {
		t.Fatalf("600/1000 used: NeedForSoft = %d, want %d (down to ½ the budget)", got, want)
	}
}

func TestSuggestPrefetch(t *testing.T) {
	m := newMgr(LRU, 1000)
	for id := ObjectID(1); id <= 4; id++ {
		m.Register(id, 100)
		m.MarkOut(id)
	}
	m.SetQueueLen(2, 3)
	m.SetQueueLen(3, 7)
	m.SetPriority(4, 1)
	got := m.SuggestPrefetchRanked(2)
	if len(got) != 2 || got[0].ID != 3 || got[1].ID != 2 {
		t.Fatalf("SuggestPrefetchRanked(2) = %v, want IDs [3 2]", got)
	}
	all := m.SuggestPrefetchRanked(0)
	if len(all) != 3 {
		t.Fatalf("SuggestPrefetchRanked(0) = %v, want 3 entries", all)
	}
	// In-core objects are never suggested.
	m.MarkIn(3)
	got = m.SuggestPrefetchRanked(10)
	for _, c := range got {
		if c.ID == 3 {
			t.Fatal("in-core object suggested for prefetch")
		}
	}
}

func TestSnapshot(t *testing.T) {
	m := newMgr(LRU, 1000)
	m.Register(1, 100)
	m.Register(2, 200)
	m.MarkOut(2)
	s := m.Snapshot()
	if s.InCore != 1 || s.OutOfCore != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.MemUsed != 100 || s.MemBudget != 1000 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.PeakMemUsed != 300 {
		t.Fatalf("peak = %d, want 300", s.PeakMemUsed)
	}
}

func TestDefaults(t *testing.T) {
	m := NewManager(Config{Budget: 100})
	if m.cfg.Policy != LRU {
		t.Errorf("default policy = %q", m.cfg.Policy)
	}
	if m.Budget() != 100 {
		t.Errorf("budget = %d", m.Budget())
	}
}

func TestVictimsDeterministicTieBreak(t *testing.T) {
	// Objects registered in one batch tie on everything except id.
	m := newMgr(LU, 1000)
	for id := ObjectID(5); id >= 1; id-- {
		m.Register(id, 100)
	}
	v := m.PickVictims(500)
	for i := 1; i < len(v); i++ {
		if v[i-1] >= v[i] {
			t.Fatalf("tie-break not by id: %v", v)
		}
	}
}

func TestConcurrentSafety(t *testing.T) {
	m := newMgr(LRU, 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := ObjectID(g * 1000)
			for i := 0; i < 200; i++ {
				id := base + ObjectID(i)
				m.Register(id, 10)
				m.Touch(id)
				m.SetPriority(id, i%3)
				m.SetQueueLen(id, i%5)
				if i%2 == 0 {
					m.MarkOut(id)
					m.MarkIn(id)
				}
				m.PickVictims(50)
				m.SuggestPrefetchRanked(4)
			}
		}(g)
	}
	wg.Wait()
	s := m.Snapshot()
	if s.InCore != 1600 {
		t.Fatalf("in-core = %d, want 1600", s.InCore)
	}
}

// TestPropertyAccountingInvariant drives the manager with random operation
// sequences and checks that MemUsed always equals the sum of in-core entry
// sizes (the core accounting invariant the thresholds depend on).
func TestPropertyAccountingInvariant(t *testing.T) {
	type model struct {
		size   int64
		inCore bool
	}
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager(Config{Budget: 1 << 20})
		ref := make(map[ObjectID]*model)
		nextID := ObjectID(1)
		ops := int(opsRaw)%200 + 20
		for i := 0; i < ops; i++ {
			switch rng.Intn(6) {
			case 0: // register
				sz := int64(rng.Intn(1000) + 1)
				if err := m.Register(nextID, sz); err != nil {
					return false
				}
				ref[nextID] = &model{size: sz, inCore: true}
				nextID++
			case 1: // unregister random
				for id := range ref {
					m.Unregister(id)
					delete(ref, id)
					break
				}
			case 2: // mark out
				for id, mo := range ref {
					if mo.inCore {
						m.MarkOut(id)
						mo.inCore = false
						break
					}
				}
			case 3: // mark in
				for id, mo := range ref {
					if !mo.inCore {
						m.MarkIn(id)
						mo.inCore = true
						break
					}
				}
			case 4: // resize
				for id, mo := range ref {
					sz := int64(rng.Intn(2000) + 1)
					m.SetSize(id, sz)
					mo.size = sz
					break
				}
			case 5: // touch + lock churn
				for id := range ref {
					m.Touch(id)
					m.Lock(id)
					m.Unlock(id)
					break
				}
			}
			var want int64
			for _, mo := range ref {
				if mo.inCore {
					want += mo.size
				}
			}
			if got := m.MemUsed(); got != want {
				t.Logf("seed %d op %d: MemUsed=%d want %d", seed, i, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyVictimsAreEvictable checks that PickVictims never proposes a
// locked or out-of-core object, under random state.
func TestPropertyVictimsAreEvictable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		m := NewManager(Config{Budget: 1 << 20, Policy: Policies()[trial%5]})
		state := make(map[ObjectID]string)
		for id := ObjectID(1); id <= 30; id++ {
			m.Register(id, int64(rng.Intn(500)+1))
			switch rng.Intn(3) {
			case 0:
				m.Lock(id)
				state[id] = "locked"
			case 1:
				m.MarkOut(id)
				state[id] = "out"
			default:
				state[id] = "evictable"
			}
		}
		for _, v := range m.PickVictims(int64(rng.Intn(5000) + 1)) {
			if state[v] != "evictable" {
				t.Fatalf("policy %s picked %s object %d", m.cfg.Policy, state[v], v)
			}
		}
	}
}

func TestSuggestPrefetchRanked(t *testing.T) {
	m := newMgr(LRU, 1000)
	for id := ObjectID(1); id <= 4; id++ {
		m.Register(id, 100)
		m.MarkOut(id)
	}
	m.SetQueueLen(2, 3)
	m.SetQueueLen(3, 7)
	m.SetPriority(4, 1)
	got := m.SuggestPrefetchRanked(3)
	if len(got) != 3 || got[0].ID != 3 || got[1].ID != 2 || got[2].ID != 4 {
		t.Fatalf("SuggestPrefetchRanked = %v, want IDs [3 2 4]", got)
	}
	// Objects with queued messages are urgent — something waits on them;
	// a priority hint alone is speculation.
	if !got[0].Urgent || !got[1].Urgent {
		t.Fatalf("queue-bearing candidates must be urgent: %v", got)
	}
	if got[2].Urgent {
		t.Fatalf("priority-only candidate must not be urgent: %v", got)
	}
}

func TestSetStoredSize(t *testing.T) {
	m := newMgr(LRU, 1000)
	m.Register(1, 100)
	m.MarkOut(1)
	m.SetStoredSize(1, 250)
	if got := m.Size(1); got != 250 {
		t.Fatalf("Size after SetStoredSize = %d, want 250", got)
	}
	// An out-of-core resize must not disturb the in-core accounting.
	if used := m.MemUsed(); used != 0 {
		t.Fatalf("MemUsed = %d after out-of-core resize, want 0", used)
	}
	// In-core resize adjusts usage like SetSize.
	m.Register(2, 100)
	m.SetStoredSize(2, 300)
	if used := m.MemUsed(); used != 300 {
		t.Fatalf("MemUsed = %d after in-core resize, want 300", used)
	}
}

// TestAdmitsCountsOnlyWhatCannotBeEvicted: idle residents do not stand in the
// way of an admission, locked and queued ones do, the hard threshold's
// headroom is kept free, and waiting is only advised while a queued resident
// is there to drain.
func TestAdmitsCountsOnlyWhatCannotBeEvicted(t *testing.T) {
	m := NewManager(Config{Budget: 1000})
	for id := ObjectID(1); id <= 8; id++ {
		if err := m.Register(id, 100); err != nil {
			t.Fatal(err)
		}
	}
	admits := func(extra int64, fits, wait bool) {
		t.Helper()
		if f, w := m.Admits(extra); f != fits || w != wait {
			t.Fatalf("Admits(%d) = fits %v wait %v, want %v %v", extra, f, w, fits, wait)
		}
	}
	admits(1000, true, false) // eight idle residents block nothing
	m.SetQueueLen(1, 2)
	m.Lock(2)
	admits(800, true, false)
	admits(801, false, true) // 200 pinned; object 1 will drain
	m.MarkOut(3)             // largest stored = 100: the hard threshold reserves 200
	admits(600, true, false)
	admits(601, false, true)
	m.SetQueueLen(1, 0)
	admits(701, false, false) // only the lock pins now: nothing will drain
	m.Unlock(2)
	admits(800, true, false)
}
