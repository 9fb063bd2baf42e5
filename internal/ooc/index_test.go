package ooc

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleVictims is the scan-and-sort PickVictims the indexes replaced, kept
// as the reference: every unlocked in-core entry of the object table, sorted
// by (priority, queue length, policy key, id), cut where need is met.
func oracleVictims(m *Manager, need int64) []ObjectID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var cands []*entry
	for _, e := range m.entries {
		if e.inCore && e.locked == 0 {
			cands = append(cands, e)
		}
	}
	clock := m.clock
	key := func(e *entry) float64 {
		switch m.cfg.Policy {
		case LRU:
			return float64(e.lastAccess)
		case MRU:
			return -float64(e.lastAccess)
		case LFU:
			age := clock - e.firstSeen + 1
			return float64(e.accesses) / float64(age)
		case MU:
			return -float64(e.accesses)
		case LU:
			return float64(e.accesses)
		default:
			return float64(e.lastAccess)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.priority != b.priority {
			return a.priority < b.priority
		}
		if a.queueLen != b.queueLen {
			return a.queueLen < b.queueLen
		}
		ka, kb := key(a), key(b)
		if ka != kb {
			return ka < kb
		}
		return a.id < b.id
	})
	var out []ObjectID
	var freed int64
	for _, e := range cands {
		if freed >= need {
			break
		}
		out = append(out, e.id)
		freed += e.size
	}
	return out
}

// oracleCandidates is the scan-and-sort SuggestPrefetchRanked the wanted
// index replaced.
func oracleCandidates(m *Manager, limit int) []Candidate {
	m.mu.Lock()
	defer m.mu.Unlock()
	var cands []*entry
	for _, e := range m.entries {
		if !e.inCore && (e.queueLen > 0 || e.priority > 0) {
			cands = append(cands, e)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.queueLen != b.queueLen {
			return a.queueLen > b.queueLen
		}
		if a.priority != b.priority {
			return a.priority > b.priority
		}
		return a.id < b.id
	})
	if limit > 0 && len(cands) > limit {
		cands = cands[:limit]
	}
	out := make([]Candidate, len(cands))
	for i, e := range cands {
		out[i] = Candidate{ID: e.id, Urgent: e.queueLen > 0}
	}
	return out
}

// recount is Snapshot's residency census taken the old way, by walking the
// object table.
func recount(m *Manager) (inCore, outOfCore int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if e.inCore {
			inCore++
		} else {
			outOfCore++
		}
	}
	return
}

// TestPropertyIndexMatchesOracle drives random operation sequences under
// every policy and requires, after every step, that the indexed selections
// equal the scan-and-sort oracle element for element, that Snapshot equals a
// recount, and that the index audit is clean.
func TestPropertyIndexMatchesOracle(t *testing.T) {
	for _, policy := range Policies() {
		policy := policy
		t.Run(string(policy), func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				driveAgainstOracle(t, policy, seed, 600)
			}
		})
	}
}

func driveAgainstOracle(t *testing.T, policy Policy, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := NewManager(Config{Budget: 1 << 20, Policy: policy})
	var ids []ObjectID // registered, in registration order
	next := ObjectID(1)
	pick := func() ObjectID {
		if len(ids) == 0 || rng.Intn(20) == 0 {
			return next + 1000 // unknown id: every call must ignore it
		}
		return ids[rng.Intn(len(ids))]
	}
	for step := 0; step < steps; step++ {
		op := rng.Intn(12)
		if len(ids) < 4 {
			op = 0
		}
		var desc string
		switch op {
		case 0:
			sz := int64(rng.Intn(400)) // zero-size objects included
			if err := m.Register(next, sz); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, next)
			desc = fmt.Sprintf("Register(%d,%d)", next, sz)
			next++
		case 1:
			i := rng.Intn(len(ids))
			id := ids[i]
			m.Unregister(id)
			ids = append(ids[:i], ids[i+1:]...)
			desc = fmt.Sprintf("Unregister(%d)", id)
		case 2, 3:
			id := pick()
			m.Touch(id)
			desc = fmt.Sprintf("Touch(%d)", id)
		case 4:
			id, sz := pick(), int64(rng.Intn(600))
			m.SetSize(id, sz)
			desc = fmt.Sprintf("SetSize(%d,%d)", id, sz)
		case 5:
			id, pri := pick(), rng.Intn(4)-1 // negative priorities too
			m.SetPriority(id, pri)
			desc = fmt.Sprintf("SetPriority(%d,%d)", id, pri)
		case 6:
			id, n := pick(), rng.Intn(4)
			m.SetQueueLen(id, n)
			desc = fmt.Sprintf("SetQueueLen(%d,%d)", id, n)
		case 7:
			id := pick()
			if rng.Intn(2) == 0 {
				m.Lock(id)
				desc = fmt.Sprintf("Lock(%d)", id)
			} else {
				m.Unlock(id)
				desc = fmt.Sprintf("Unlock(%d)", id)
			}
		case 8, 9:
			id := pick()
			m.MarkOut(id)
			desc = fmt.Sprintf("MarkOut(%d)", id)
		case 10:
			id := pick()
			m.MarkIn(id)
			desc = fmt.Sprintf("MarkIn(%d)", id)
		case 11:
			id, sz := pick(), int64(rng.Intn(600))
			m.SetStoredSize(id, sz)
			desc = fmt.Sprintf("SetStoredSize(%d,%d)", id, sz)
		}

		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s seed %d step %d after %s: %s", policy, seed, step, desc, fmt.Sprintf(format, args...))
		}
		if msgs := m.CheckInvariants(); len(msgs) > 0 {
			fail("index audit: %v", msgs)
		}
		// Needs from nothing to more than everything resident.
		for _, need := range []int64{0, 1, int64(rng.Intn(2000)), 1 << 30} {
			got, want := m.PickVictims(need), oracleVictims(m, need)
			if !slices.Equal(got, want) {
				fail("PickVictims(%d) = %v, oracle %v", need, got, want)
			}
		}
		for _, limit := range []int{0, 1, 1 + rng.Intn(4)} {
			got, want := m.SuggestPrefetchRanked(limit), oracleCandidates(m, limit)
			if !slices.Equal(got, want) {
				fail("SuggestPrefetchRanked(%d) = %v, oracle %v", limit, got, want)
			}
		}
		if m.PrefetchWanted() != (len(oracleCandidates(m, 0)) > 0) {
			fail("PrefetchWanted = %v, oracle has %d candidates", m.PrefetchWanted(), len(oracleCandidates(m, 0)))
		}
		in, out := recount(m)
		if s := m.Snapshot(); s.InCore != in || s.OutOfCore != out {
			fail("Snapshot in/out = %d/%d, recount %d/%d", s.InCore, s.OutOfCore, in, out)
		}
	}
}

// TestCheckInvariantsDetectsCorruption makes sure the audit is not vacuous:
// each way the indexes can disagree with the object table is reported.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	build := func() *Manager {
		m := newMgr(LRU, 1000)
		for id := ObjectID(1); id <= 4; id++ {
			m.Register(id, 100)
		}
		m.MarkOut(3)
		m.SetQueueLen(3, 1)
		m.MarkOut(4)
		if msgs := m.CheckInvariants(); len(msgs) > 0 {
			t.Fatalf("healthy manager reported %v", msgs)
		}
		return m
	}
	for name, corrupt := range map[string]func(m *Manager){
		"resident position":      func(m *Manager) { m.entries[1].pos = 1 },
		"missing from resident":  func(m *Manager) { m.resident = m.resident[:1] },
		"stray wanted entry":     func(m *Manager) { m.wanted = append(m.wanted, m.entries[4]) },
		"idle entry positioned":  func(m *Manager) { m.entries[4].pos = 0 },
		"stale lock-free count":  func(m *Manager) { m.wantedN.Store(0) },
		"unindexed wanted entry": func(m *Manager) { m.entries[4].priority = 2 },
		"byte accounting":        func(m *Manager) { m.used += 7 },
		"pinned accounting":      func(m *Manager) { m.entries[1].queueLen = 1 },
	} {
		m := build()
		corrupt(m)
		if msgs := m.CheckInvariants(); len(msgs) == 0 {
			t.Errorf("%s: corruption not reported", name)
		}
	}
}

// TestSelectionAllocations bounds what the per-message and per-load calls
// allocate: nothing when there is nothing to suggest, and only the returned
// slice otherwise.
func TestSelectionAllocations(t *testing.T) {
	for _, policy := range Policies() {
		m := newMgr(policy, 1<<20)
		for id := ObjectID(0); id < 512; id++ {
			m.Register(id, 100)
			m.Touch(id)
		}
		m.PickVictims(800) // grow the selection buffer once
		if n := testing.AllocsPerRun(50, func() { m.SuggestPrefetchRanked(2) }); n != 0 {
			t.Errorf("%s: SuggestPrefetchRanked with nothing wanted allocates %v times, want 0", policy, n)
		}
		if n := testing.AllocsPerRun(50, func() { m.PickVictims(800) }); n > 1 {
			t.Errorf("%s: PickVictims allocates %v times, want only its result", policy, n)
		}
		if n := testing.AllocsPerRun(50, func() { m.PickVictims(0) }); n != 0 {
			t.Errorf("%s: PickVictims(0) allocates %v times, want 0", policy, n)
		}
		for id := ObjectID(0); id < 8; id++ {
			m.MarkOut(id)
			m.SetQueueLen(id, int(id))
		}
		if n := testing.AllocsPerRun(50, func() { m.SuggestPrefetchRanked(2) }); n > 1 {
			t.Errorf("%s: SuggestPrefetchRanked allocates %v times, want only its result", policy, n)
		}
	}
}

// benchManager is the shape of the benchmark's ooc probe: n in-core objects
// of one size, touched once each so the policy keys differ.
func benchManager(n int) *Manager {
	m := NewManager(Config{Budget: int64(n) * 4096})
	for i := 0; i < n; i++ {
		m.Register(ObjectID(i), 4096)
	}
	for i := 0; i < n; i++ {
		m.Touch(ObjectID((i * 7) % n))
	}
	return m
}

var benchSink int

func BenchmarkPickVictims(b *testing.B) {
	m := benchManager(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(m.PickVictims(8 * 4096))
	}
}

func BenchmarkSuggestPrefetchEmpty(b *testing.B) {
	m := benchManager(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(m.SuggestPrefetchRanked(2))
	}
}

func BenchmarkTouch(b *testing.B) {
	const n = 4096
	m := benchManager(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Touch(ObjectID(i % n))
	}
}
