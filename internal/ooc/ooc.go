// Package ooc implements the MRTS out-of-core layer: it tracks every mobile
// object's residency (in-core vs on disk), decides when and which objects to
// swap, and exposes the control knobs the paper describes — five eviction
// policies (LRU, LFU, MRU, MU, LU), a hard and a soft swapping threshold,
// per-object priorities, and lock/unlock.
//
// Memory pressure is modeled by explicit byte accounting of serialized object
// sizes against a per-node budget: the Go runtime's GC makes physical RAM
// exhaustion both unportable and unsafe to provoke, while byte accounting
// triggers the identical decision logic at the same thresholds (hard = a
// multiple of the largest stored object, soft = a fraction of total memory).
package ooc

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ObjectID identifies a mobile object to the residency manager.
type ObjectID uint64

// Policy selects the eviction (swapping) scheme.
type Policy string

// The five swapping schemes implemented by the paper's storage layer.
const (
	// LRU evicts the least recently used object ("enjoys highest
	// performance most of the time").
	LRU Policy = "lru"
	// LFU evicts the least frequently used object (accesses per unit of
	// residence time); "for some applications (e.g., PCDM) the LFU can be
	// up to 7% faster".
	LFU Policy = "lfu"
	// MRU evicts the most recently used object.
	MRU Policy = "mru"
	// MU evicts the object with the most total accesses.
	MU Policy = "mu"
	// LU evicts the object with the fewest total accesses.
	LU Policy = "lu"
)

// Policies lists all supported eviction policies.
func Policies() []Policy { return []Policy{LRU, LFU, MRU, MU, LU} }

// Config configures a Manager.
type Config struct {
	// Budget is the node's memory budget in bytes for mobile objects.
	Budget int64
	// Policy is the eviction scheme. Empty means LRU.
	Policy Policy
	// HardMultiple defines the hard swapping threshold as a multiple of
	// the size of the largest object currently stored on disk; checked on
	// allocation. Zero means the paper's default of 2.
	HardMultiple float64
	// SoftFraction defines the soft swapping threshold as a fraction of
	// the total budget: when free memory drops below it the layer is
	// "advised" to start swapping. Zero means the paper's default of 1/2.
	SoftFraction float64
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = LRU
	}
	if c.HardMultiple == 0 {
		c.HardMultiple = 2
	}
	if c.SoftFraction == 0 {
		c.SoftFraction = 0.5
	}
	return c
}

type entry struct {
	id         ObjectID
	size       int64
	inCore     bool
	locked     int // lock count; > 0 pins the object in core
	priority   int
	lastAccess uint64 // logical clock of last access
	firstSeen  uint64 // logical clock at registration / load
	accesses   uint64
	queueLen   int // pending messages (control layer input)
	// pos is the entry's index in Manager.resident while in core, in
	// Manager.wanted while out of core and wanted, and -1 otherwise.
	pos int
}

// hinted reports whether something asks for e to be in core: a queued
// message or a priority hint. Out of core, that makes it a prefetch candidate.
func (e *entry) hinted() bool { return e.queueLen > 0 || e.priority > 0 }

// pinned totals the in-core entries that cannot be evicted right now: bytes
// of those locked or with messages queued, and how many of them have messages
// queued — the ones a drain will unpin without anybody's help.
type pinned struct {
	bytes  int64
	queued int
}

// pin is e's share of Manager.pinned.
func (e *entry) pin() (p pinned) {
	if !e.inCore {
		return p
	}
	if e.queueLen > 0 {
		p.queued = 1
	}
	if e.locked > 0 || e.queueLen > 0 {
		p.bytes = e.size
	}
	return p
}

// repin replaces was, e's share before a change, with its share now.
func (m *Manager) repin(e *entry, was pinned) {
	now := e.pin()
	m.pinned.bytes += now.bytes - was.bytes
	m.pinned.queued += now.queued - was.queued
}

// Stats summarizes manager activity.
type Stats struct {
	Evictions   uint64
	Loads       uint64
	InCore      int
	OutOfCore   int
	MemUsed     int64
	MemBudget   int64
	PeakMemUsed int64
}

// Manager is the residency manager for one node. It is safe for concurrent
// use.
type Manager struct {
	mu   sync.Mutex
	cfg  Config
	used int64
	peak int64
	// pinned is the part of used that no eviction can free right now. Every
	// method that changes an entry's residency, size, lock count or queue
	// length re-reads the entry's share around the change (entry.pin, repin).
	pinned pinned

	clock   uint64
	entries map[ObjectID]*entry
	// Two maintained indexes over entries, both dense and unordered (an
	// entry knows its position, removal swaps the last element in), so no
	// per-message or per-load call walks the object table: resident holds
	// every in-core entry — what PickVictims selects from — and wanted every
	// out-of-core entry with queued work or a priority hint — all that
	// SuggestPrefetchRanked ranks. wantedN mirrors len(wanted) for the
	// lock-free PrefetchWanted. scratch is the selection buffer both reuse.
	resident []*entry
	wanted   []*entry
	wantedN  atomic.Int32
	scratch  []*entry

	largestStored int64 // largest object ever written to disk
	evictions     uint64
	loads         uint64
}

// NewManager returns a manager with the given configuration.
func NewManager(cfg Config) *Manager {
	return &Manager{
		cfg:     cfg.withDefaults(),
		entries: make(map[ObjectID]*entry),
	}
}

// Policy returns the active eviction policy.
func (m *Manager) Policy() Policy { return m.cfg.Policy }

// Budget returns the memory budget in bytes.
func (m *Manager) Budget() int64 { return m.cfg.Budget }

// MemUsed returns the bytes currently accounted in-core.
func (m *Manager) MemUsed() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Register adds an object of the given size, in-core. It is an error to
// register the same ID twice.
func (m *Manager) Register(id ObjectID, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[id]; ok {
		return fmt.Errorf("ooc: object %d already registered", id)
	}
	m.clock++
	e := &entry{
		id: id, size: size, inCore: true,
		lastAccess: m.clock, firstSeen: m.clock,
	}
	m.entries[id] = e
	push(&m.resident, e)
	m.addUsed(size)
	return nil
}

// push appends e to the index *s and records its position.
func push(s *[]*entry, e *entry) {
	e.pos = len(*s)
	*s = append(*s, e)
}

// remove takes e out of the index *s by moving the last element into its
// slot.
func remove(s *[]*entry, e *entry) {
	last := len(*s) - 1
	moved := (*s)[last]
	(*s)[e.pos] = moved
	moved.pos = e.pos
	(*s)[last] = nil
	*s = (*s)[:last]
	e.pos = -1
}

// setWanted puts the out-of-core entry e in or out of the wanted set.
func (m *Manager) setWanted(e *entry, want bool) {
	if want == (e.pos >= 0) {
		return
	}
	if want {
		push(&m.wanted, e)
	} else {
		remove(&m.wanted, e)
	}
	m.wantedN.Store(int32(len(m.wanted)))
}

// Unregister removes an object entirely (e.g. after migration to another
// node).
func (m *Manager) Unregister(id ObjectID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	if !ok {
		return
	}
	gone := e.pin()
	m.pinned.bytes -= gone.bytes
	m.pinned.queued -= gone.queued
	if e.inCore {
		m.used -= e.size
		remove(&m.resident, e)
	} else {
		m.setWanted(e, false)
	}
	delete(m.entries, id)
}

// Touch records an access to id (message delivered / handler executed).
func (m *Manager) Touch(id ObjectID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[id]; ok {
		m.clock++
		e.lastAccess = m.clock
		e.accesses++
	}
}

// SetSize updates the accounted size of id (objects grow during refinement).
func (m *Manager) SetSize(id ObjectID, size int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	if !ok {
		return
	}
	was := e.pin()
	if e.inCore {
		m.addUsed(size - e.size)
	}
	e.size = size
	m.repin(e, was)
}

// Size returns the accounted size of id (0 if unknown).
func (m *Manager) Size(id ObjectID) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[id]; ok {
		return e.size
	}
	return 0
}

// Lock pins id in core: a locked object is never selected for eviction.
// Locks nest; each Lock needs a matching Unlock.
func (m *Manager) Lock(id ObjectID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[id]; ok {
		was := e.pin()
		e.locked++
		m.repin(e, was)
	}
}

// Unlock releases one pin.
func (m *Manager) Unlock(id ObjectID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[id]; ok && e.locked > 0 {
		was := e.pin()
		e.locked--
		m.repin(e, was)
	}
}

// Locked reports whether id is pinned.
func (m *Manager) Locked(id ObjectID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	return ok && e.locked > 0
}

// SetPriority sets the swapping priority hint: higher-priority objects are
// kept in core longer. The default is 0.
func (m *Manager) SetPriority(id ObjectID, pri int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[id]; ok {
		e.priority = pri
		if !e.inCore {
			m.setWanted(e, e.hinted())
		}
	}
}

// Priority returns id's swapping priority hint (0 for an unknown object).
func (m *Manager) Priority(id ObjectID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[id]; ok {
		return e.priority
	}
	return 0
}

// SetQueueLen informs the layer how many messages are pending for id — the
// control layer input that biases swapping decisions (objects with queued
// work are kept, idle ones go first).
func (m *Manager) SetQueueLen(id ObjectID, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[id]; ok {
		was := e.pin()
		e.queueLen = n
		m.repin(e, was)
		if !e.inCore {
			m.setWanted(e, e.hinted())
		}
	}
}

// QueueLen returns the queue length last set for id (0 for an unknown
// object).
func (m *Manager) QueueLen(id ObjectID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[id]; ok {
		return e.queueLen
	}
	return 0
}

// InCore reports whether id is resident.
func (m *Manager) InCore(id ObjectID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	return ok && e.inCore
}

// MarkOut transitions id out of core (after its bytes hit the store).
func (m *Manager) MarkOut(id ObjectID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	if !ok || !e.inCore {
		return
	}
	was := e.pin()
	remove(&m.resident, e)
	e.inCore = false
	m.repin(e, was)
	m.setWanted(e, e.hinted())
	m.used -= e.size
	m.evictions++
	if e.size > m.largestStored {
		m.largestStored = e.size
	}
}

// MarkIn transitions id back in core (after a load completes).
func (m *Manager) MarkIn(id ObjectID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	if !ok || e.inCore {
		return
	}
	m.setWanted(e, false)
	e.inCore = true
	push(&m.resident, e)
	m.clock++
	e.lastAccess = m.clock
	e.firstSeen = m.clock
	m.loads++
	m.addUsed(e.size)
	m.repin(e, pinned{})
}

func (m *Manager) addUsed(n int64) {
	m.used += n
	if m.used > m.peak {
		m.peak = m.used
	}
}

// hardThresholdLocked returns the hard swapping threshold in bytes:
// HardMultiple × the largest object stored so far. Allocations that would
// leave less than this amount free force eviction.
func (m *Manager) hardThresholdLocked() int64 {
	return int64(m.cfg.HardMultiple * float64(m.largestStored))
}

// NeedForSoft returns how many bytes must be evicted to bring free memory
// back above the soft threshold. Zero means the threshold is not breached.
func (m *Manager) NeedForSoft() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	target := int64((1 - m.cfg.SoftFraction) * float64(m.cfg.Budget))
	over := m.used - target
	if over < 0 {
		return 0
	}
	return over
}

// NeedForAlloc returns how many bytes must be evicted before extra bytes can
// be allocated without violating the budget and the hard threshold. Zero
// means the allocation fits.
func (m *Manager) NeedForAlloc(extra int64) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	limit := m.cfg.Budget - m.hardThresholdLocked()
	if limit < 0 {
		limit = 0
	}
	over := m.used + extra - limit
	if over < 0 {
		return 0
	}
	return over
}

// Admits is the admission test for demand loads. fits: extra more bytes fit
// in core once every idle resident is evicted — what is pinned, plus extra,
// stays inside the limit NeedForAlloc enforces, so a load admitted under it
// can always make its own room. wait: they do not fit now, but some resident
// has messages queued, and the drain that empties it will unpin it; when
// neither holds, nothing the manager knows of will ever make room.
func (m *Manager) Admits(extra int64) (fits, wait bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pinned.bytes+extra <= m.cfg.Budget-m.hardThresholdLocked() {
		return true, false
	}
	return false, m.pinned.queued > 0
}

// victimKey is the policy's eviction key for e: lower goes first. LFU's key
// ages with the manager clock, so it is computed at selection time, never
// stored.
func (m *Manager) victimKey(e *entry) float64 {
	switch m.cfg.Policy {
	case MRU:
		return -float64(e.lastAccess)
	case LFU:
		age := m.clock - e.firstSeen + 1
		return float64(e.accesses) / float64(age)
	case MU:
		return -float64(e.accesses)
	case LU:
		return float64(e.accesses)
	default: // LRU
		return float64(e.lastAccess)
	}
}

// evictsBefore is the victim order, a strict total order: priority, then
// queue length, then the policy key, then id.
func (m *Manager) evictsBefore(a, b *entry) bool {
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	if a.queueLen != b.queueLen {
		return a.queueLen < b.queueLen
	}
	if ka, kb := m.victimKey(a), m.victimKey(b); ka != kb {
		return ka < kb
	}
	return a.id < b.id
}

// prefetchesBefore is the candidate order, a strict total order: most
// queued messages, then highest priority, then id.
func prefetchesBefore(a, b *entry) bool {
	if a.queueLen != b.queueLen {
		return a.queueLen > b.queueLen
	}
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.id < b.id
}

// insertRanked inserts e into sel, which is ascending under before.
func insertRanked(sel []*entry, e *entry, before func(a, b *entry) bool) []*entry {
	i := sort.Search(len(sel), func(i int) bool { return before(e, sel[i]) })
	sel = append(sel, nil)
	copy(sel[i+1:], sel[i:])
	sel[i] = e
	return sel
}

// PickVictims selects unlocked in-core objects to evict, in policy order,
// until their sizes sum to at least need. Objects with pending messages and
// higher priorities are avoided when possible: candidates are ranked by
// priority, then queue length, then the policy key.
//
// One pass over the resident index keeps the shortest leading run of the
// victim order that frees need bytes: an entry is compared with the worst
// one kept and almost always skipped, so the cost is one comparison per
// resident plus an insertion per victim, and only the result is allocated.
func (m *Manager) PickVictims(need int64) []ObjectID {
	m.mu.Lock()
	defer m.mu.Unlock()
	sel := m.scratch[:0]
	var freed int64
	for _, e := range m.resident {
		if e.locked > 0 {
			continue
		}
		if freed >= need && (len(sel) == 0 || !m.evictsBefore(e, sel[len(sel)-1])) {
			continue
		}
		sel = insertRanked(sel, e, m.evictsBefore)
		freed += e.size
		for last := len(sel) - 1; last >= 0 && freed-sel[last].size >= need; last-- {
			freed -= sel[last].size
			sel[last] = nil
			sel = sel[:last]
		}
	}
	out := make([]ObjectID, len(sel))
	for i, e := range sel {
		out[i] = e.id
	}
	m.release(sel)
	return out
}

// release hands the selection buffer back for reuse, cleared so that it
// keeps no unregistered entry alive.
func (m *Manager) release(sel []*entry) {
	clear(sel)
	m.scratch = sel[:0]
}

// Candidate is one prefetch suggestion: the object plus a class hint for the
// I/O scheduler. Urgent candidates already have messages queued — their load
// is on the critical path and should go in at demand class; the rest are
// speculation (priority hints) and belong in the prefetch class.
type Candidate struct {
	ID     ObjectID
	Urgent bool
}

// PrefetchWanted reports, without taking the manager's lock, whether any
// out-of-core object has queued work or a priority hint — whether
// SuggestPrefetchRanked could return anything.
func (m *Manager) PrefetchWanted() bool { return m.wantedN.Load() > 0 }

// SuggestPrefetchRanked returns up to limit out-of-core objects worth
// loading ahead of need, ranked by pending message count then priority — the
// cache population policy of the out-of-core layer — each tagged with its
// urgency class hint. It ranks only the wanted index, which is usually empty
// or a handful of entries.
func (m *Manager) SuggestPrefetchRanked(limit int) []Candidate {
	m.mu.Lock()
	defer m.mu.Unlock()
	sel := m.scratch[:0]
	for _, e := range m.wanted {
		if limit > 0 && len(sel) == limit {
			if !prefetchesBefore(e, sel[limit-1]) {
				continue
			}
			sel = sel[:limit-1]
		}
		sel = insertRanked(sel, e, prefetchesBefore)
	}
	out := make([]Candidate, len(sel))
	for i, e := range sel {
		out[i] = Candidate{ID: e.id, Urgent: e.queueLen > 0}
	}
	m.release(sel)
	return out
}

// SetStoredSize records the serialized size of an object whose bytes just
// hit (or are about to hit) the store: the size its reload will re-admit,
// and the input to the largest-stored-object tracking behind the hard
// threshold. Unlike SetSize it is meaningful for out-of-core entries; if the
// object raced back in core (a write rollback), the in-core accounting is
// adjusted like SetSize would.
func (m *Manager) SetStoredSize(id ObjectID, size int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	if !ok {
		return
	}
	was := e.pin()
	if e.inCore {
		m.addUsed(size - e.size)
	}
	e.size = size
	m.repin(e, was)
	if size > m.largestStored {
		m.largestStored = size
	}
}

// Snapshot returns current statistics.
func (m *Manager) Snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Evictions:   m.evictions,
		Loads:       m.loads,
		InCore:      len(m.resident),
		OutOfCore:   len(m.entries) - len(m.resident),
		MemUsed:     m.used,
		MemBudget:   m.cfg.Budget,
		PeakMemUsed: m.peak,
	}
}

// CheckInvariants audits the indexes against the object table and returns
// one message per violation (empty = healthy): every entry sits in exactly
// the index its state calls for, at the position it records; the indexes
// hold nothing else; the lock-free wanted count matches; and the in-core
// and pinned byte counts are the sums they stand for.
func (m *Manager) CheckInvariants() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, "ooc: "+fmt.Sprintf(format, args...))
	}
	at := func(index []*entry, e *entry) bool {
		return e.pos >= 0 && e.pos < len(index) && index[e.pos] == e
	}
	var resident, wanted int
	var used int64
	var pins pinned
	for id, e := range m.entries {
		p := e.pin()
		pins.bytes += p.bytes
		pins.queued += p.queued
		switch {
		case e.id != id:
			fail("object %d filed under id %d", e.id, id)
		case e.inCore:
			resident++
			used += e.size
			if !at(m.resident, e) {
				fail("in-core object %d not at resident[%d]", id, e.pos)
			}
		case e.hinted():
			wanted++
			if !at(m.wanted, e) {
				fail("wanted object %d not at wanted[%d]", id, e.pos)
			}
		case e.pos != -1:
			fail("idle out-of-core object %d records index position %d", id, e.pos)
		}
	}
	if resident != len(m.resident) {
		fail("resident index holds %d entries, %d objects are in core", len(m.resident), resident)
	}
	if wanted != len(m.wanted) {
		fail("wanted index holds %d entries, %d objects are wanted", len(m.wanted), wanted)
	}
	if n := int(m.wantedN.Load()); n != len(m.wanted) {
		fail("wanted count reads %d, index holds %d", n, len(m.wanted))
	}
	if used != m.used {
		fail("%d bytes accounted in core, resident sizes sum to %d", m.used, used)
	}
	if pins != m.pinned {
		fail("pinned accounting reads %+v, locked and queued residents sum to %+v", m.pinned, pins)
	}
	return out
}

// String implements fmt.Stringer for the report printers.
func (s Stats) String() string {
	return fmt.Sprintf(
		"evictions %d loads %d in-core %d out-of-core %d mem %d/%d (peak %d)",
		s.Evictions, s.Loads, s.InCore, s.OutOfCore, s.MemUsed, s.MemBudget, s.PeakMemUsed)
}
