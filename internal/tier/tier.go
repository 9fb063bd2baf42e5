// Package tier implements a capacity-aware multi-tier out-of-core storage
// hierarchy: a composite storage.Store made of ranked tiers — tier 0 a
// byte-leased fast medium (remote memory donated by another node), tier 1 a
// disk backstop — with adaptive placement between them.
//
// The paper's conclusion proposes "the memory of remote nodes as out-of-core
// media"; this package realizes it the way real heterogeneous-memory systems
// do (GALE 2025, the external-memory simulation literature): remote RAM is a
// *bounded fast tier in front of* disk, not a replacement for it. Placement
// policy:
//
//   - Write admission by size and heat: an evicted blob lands in tier 0 when
//     it fits the lease; once usage crosses the high watermark (90 % of the
//     lease) only previously-seen (warm) keys are admitted, cold first-timers
//     go to disk.
//   - Spill, never fail: when tier 0 is full — or its store errors — the
//     write goes to tier 1 and succeeds. Running out of remote memory is a
//     placement decision, not an I/O error.
//   - Background demotion: past the high watermark the coldest tier-0 blobs
//     are copied down until usage reaches the low watermark (70 % of the
//     lease). Demotions ride the inner I/O scheduler's eviction-write class,
//     so demand reads always win the disk.
//   - Promotion on repeated demand misses: a blob read from disk twice is
//     copied up. Promotions ride the prefetch class (bounded, cancellable) so
//     they can never starve demand loads.
//
// Every blob is resident in exactly one tier, or in flight between them with
// its bytes conservatively charged to tier 0; tier-0 charged bytes never
// exceed the lease. CheckInvariants audits both properties and the
// simulation harness sweeps them continuously.
package tier

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sync"

	"mrts/internal/clock"
	"mrts/internal/obs"
	"mrts/internal/storage"
	"mrts/internal/swapio"
)

// Config assembles a tiered Store.
type Config struct {
	// Fast is tier 0 (remote memory). May be nil when Capacity is 0.
	Fast storage.Store
	// Slow is tier 1, the backstop (disk, usually behind the LatencyStore /
	// FaultStore stack). Required.
	Slow storage.Store
	// Capacity is the tier-0 byte lease: 0 disables tier 0 entirely (pure
	// disk), < 0 means unbounded (pure remote memory with a disk backstop).
	Capacity int64
	// Compress, when non-nil, inserts the transparent compression layer
	// (tier 0.5) between the placement policy and Slow: tier-1 writes are
	// framed and plane-coded on the way down, and a byte-capped RAM
	// cache of compressed frames absorbs repeat reads before they reach the
	// disk. See CompressConfig.
	Compress *CompressConfig
	// Retry is the retry policy of the inner scheduler (absorbs transient
	// tier-1 faults in demand reads and demotion writes).
	Retry storage.RetryPolicy
	// Tracer, when non-nil, receives tier.spill / tier.demote /
	// tier.promote instants (Arg: blob bytes).
	Tracer *obs.Tracer
	// Clock paces WaitIdle polling and the inner scheduler (nil = wall
	// clock).
	Clock clock.Clock
}

// highWater and lowWater are the demotion watermarks as fractions of the
// lease: crossing highWater starts background demotion down to lowWater.
const (
	highWater = 0.9
	lowWater  = highWater * 7 / 9
)

// promoteAfter is how many demand misses served by tier 1 promote a blob back
// to tier 0.
const promoteAfter = 2

// place is where a blob's authoritative copy lives.
type place uint8

const (
	// nowhere: the entry is only a latch/heat ghost (never stored, or a
	// failed put).
	nowhere place = iota
	// inFast: resident in tier 0.
	inFast
	// inSlow: resident in tier 1.
	inSlow
	// demoting: moving fast→slow; the fast copy stays authoritative (and
	// charged) until the slow write lands.
	demoting
	// promoting: moving slow→fast; the slow copy stays authoritative, the
	// fast bytes are already reserved (charged) so the lease cannot be
	// oversubscribed by in-flight promotions.
	promoting
)

func (p place) String() string {
	switch p {
	case inFast:
		return "fast"
	case inSlow:
		return "slow"
	case demoting:
		return "demoting"
	case promoting:
		return "promoting"
	default:
		return "nowhere"
	}
}

// entry is the index record of one key.
type entry struct {
	size    int64 // bytes of the last durable write
	charged int64 // bytes this key currently charges against the lease
	place   place
	gen     uint64 // bumped by every Put/Delete; in-flight movers abandon on mismatch
	seq     uint64 // last-touch logical sequence (LRU order; no wall time)
	heat    uint64 // lifetime touches — the admission policy's warmth signal
	misses  int    // demand reads served by tier 1 since the last placement
	writing bool   // per-key mutation latch: one store mutation at a time
}

// errSuperseded aborts an in-flight demotion whose key was rewritten or
// deleted first.
var errSuperseded = errors.New("tier: move superseded")

// Stats is a point-in-time snapshot of tier activity.
type Stats struct {
	// FastHits / SlowHits count demand Gets served by each tier.
	FastHits, SlowHits uint64
	// FastPuts counts writes admitted to tier 0; Spills writes placed
	// directly on tier 1 (no lease room, too big, too cold, or a tier-0
	// write error).
	FastPuts, Spills uint64
	// Demotions / Promotions count completed background moves;
	// the *Fails counters moves that errored (the blob stayed put).
	Demotions, Promotions         uint64
	DemotionFails, PromotionFails uint64
	// FastPutErrors counts tier-0 write errors absorbed by spilling;
	// FastReadErrors tier-0 read errors surfaced to the caller's retry.
	FastPutErrors, FastReadErrors uint64
	// FastBytes is the lease usage (resident + in-flight reservations);
	// Capacity the lease itself (summed across stores by Add).
	FastBytes, Capacity int64
	// FastBlobs / SlowBlobs count resident blobs per tier (in-flight moves
	// count at their authoritative tier).
	FastBlobs, SlowBlobs int
}

// HitRatio returns the fraction of demand reads served by tier 0.
func (s Stats) HitRatio() float64 {
	total := s.FastHits + s.SlowHits
	if total == 0 {
		return 0
	}
	return float64(s.FastHits) / float64(total)
}

// Add accumulates other into s (counters and gauges sum).
func (s *Stats) Add(other Stats) {
	s.FastHits += other.FastHits
	s.SlowHits += other.SlowHits
	s.FastPuts += other.FastPuts
	s.Spills += other.Spills
	s.Demotions += other.Demotions
	s.Promotions += other.Promotions
	s.DemotionFails += other.DemotionFails
	s.PromotionFails += other.PromotionFails
	s.FastPutErrors += other.FastPutErrors
	s.FastReadErrors += other.FastReadErrors
	s.FastBytes += other.FastBytes
	s.Capacity += other.Capacity
	s.FastBlobs += other.FastBlobs
	s.SlowBlobs += other.SlowBlobs
}

// Store is the composite tiered store. It implements storage.Store; the
// runtime's swap path uses it like any other backend.
type Store struct {
	cfg    Config
	fast   storage.Store
	slow   storage.Store     // tier 1 as the placement policy sees it (the compression layer when enabled)
	comp   *compressedStore  // tier 0.5, nil when Compress is not configured
	inner  *swapio.Scheduler // serves tier 1: demand reads, demotion writes, promotion reads
	clk    clock.Clock
	tracer *obs.Tracer

	highMark, lowMark int64

	mu        sync.Mutex
	cond      *sync.Cond
	index     map[storage.Key]*entry
	fastBytes int64 // sum of entry.charged — resident + reserved lease usage
	seq       uint64
	inFlight  int // scheduled demotions + promotions not yet finished
	closed    bool
	stats     Stats
}

// New builds a tiered store over cfg.Fast and cfg.Slow. The returned store
// owns both: Close closes the inner scheduler (draining demotions), then the
// fast store; the slow store is closed by the inner scheduler.
func New(cfg Config) (*Store, error) {
	if cfg.Slow == nil {
		return nil, errors.New("tier: Slow store is required")
	}
	if cfg.Fast == nil && cfg.Capacity != 0 {
		return nil, errors.New("tier: Fast store is required when Capacity != 0")
	}
	slow := cfg.Slow
	var comp *compressedStore
	if cfg.Compress != nil {
		comp = newCompressedStore(cfg.Slow, *cfg.Compress, cfg.Clock)
		slow = comp
	}
	s := &Store{
		cfg:    cfg,
		fast:   cfg.Fast,
		slow:   slow,
		comp:   comp,
		clk:    clock.Or(cfg.Clock),
		tracer: cfg.Tracer,
		index:  make(map[storage.Key]*entry),
	}
	if cfg.Capacity > 0 {
		s.highMark = int64(float64(cfg.Capacity) * highWater)
		s.lowMark = int64(float64(cfg.Capacity) * lowWater)
	}
	s.cond = sync.NewCond(&s.mu)
	s.inner = swapio.New(slow, swapio.Config{
		Retry: cfg.Retry,
		Clock: cfg.Clock,
	})
	return s, nil
}

// acquireLocked claims key's mutation latch for a Put/Delete, creating the
// index entry if absent, and bumps the generation so in-flight moves of the
// key abandon themselves. Callers must hold s.mu.
func (s *Store) acquireLocked(key storage.Key) *entry {
	for {
		ent := s.index[key]
		if ent == nil {
			ent = &entry{}
			s.index[key] = ent
		}
		if !ent.writing {
			ent.writing = true
			ent.gen++
			return ent
		}
		s.cond.Wait()
	}
}

// releaseLocked drops the mutation latch.
func (s *Store) releaseLocked(ent *entry) {
	ent.writing = false
	s.cond.Broadcast()
}

// touchLocked records an access for the LRU/heat policy.
func (s *Store) touchLocked(ent *entry) {
	s.seq++
	ent.seq = s.seq
	ent.heat++
}

// admitLocked decides whether a write of size bytes goes to tier 0.
func (s *Store) admitLocked(ent *entry, size int64) bool {
	c := s.cfg.Capacity
	if c == 0 || s.fast == nil {
		return false
	}
	if c < 0 {
		return true
	}
	projected := s.fastBytes - ent.charged + size
	if projected > c {
		return false
	}
	// Above the high watermark the lease is contended: only keys already
	// seen (warm) are worth the space, cold first-timers spill.
	if projected > s.highMark && ent.heat == 0 {
		return false
	}
	return true
}

func (s *Store) overHighLocked() bool {
	return s.cfg.Capacity > 0 && s.fastBytes > s.highMark
}

// Put implements storage.Store. Tier-0 admission is by size and heat; a
// write the fast tier cannot take — no lease room, or any fast-store error —
// spills to tier 1 and still succeeds.
func (s *Store) Put(key storage.Key, data []byte) error {
	size := int64(len(data))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return storage.ErrClosed
	}
	ent := s.acquireLocked(key)
	prevPlace := ent.place
	wasFast := prevPlace == inFast || prevPlace == demoting
	oldSize := ent.size
	admit := s.admitLocked(ent, size)
	if admit {
		// Same-key overwrite replaces the old value atomically on the
		// server, so charging the delta up front keeps the accounting a
		// ceiling of the server's residency — the lease is never exceeded.
		s.fastBytes += size - ent.charged
		ent.charged = size
	}
	s.mu.Unlock()

	if admit {
		err := s.fast.Put(key, data)
		if err == nil {
			if prevPlace == inSlow || prevPlace == promoting {
				// Scrub the stale tier-1 copy: residency stays single.
				_ = s.slow.Delete(key)
			}
			s.mu.Lock()
			ent.place = inFast
			ent.size = size
			ent.misses = 0
			s.touchLocked(ent)
			s.stats.FastPuts++
			s.releaseLocked(ent)
			over := s.overHighLocked()
			s.mu.Unlock()
			if over {
				s.demote()
			}
			return nil
		}
		// Loud but absorbed: tier 0 refused the write (lease race on the
		// server, transient fault, bad server) — spill instead of failing
		// the eviction.
		s.mu.Lock()
		s.fastBytes -= ent.charged
		ent.charged = 0
		if wasFast {
			// Old fast copy presumed intact (the failed Put did not land);
			// the spill below will scrub it.
			ent.charged = oldSize
			s.fastBytes += oldSize
		}
		s.stats.FastPutErrors++
		s.mu.Unlock()
	}

	// Spill path: the blob goes straight to tier 1.
	err := s.slow.Put(key, data)
	if err == nil && wasFast && s.fast != nil {
		_ = s.fast.Delete(key) // scrub the stale tier-0 copy (still latched)
	}
	s.mu.Lock()
	if err != nil {
		// The write failed everywhere; whatever was resident before stays
		// authoritative. A mid-promotion entry reverts to its slow copy and
		// drops the orphaned reservation — the gen bump means no mover will
		// reconcile either.
		if wasFast {
			ent.place = inFast
		} else {
			if ent.place == promoting {
				ent.place = inSlow
			}
			s.fastBytes -= ent.charged
			ent.charged = 0
		}
		s.releaseLocked(ent)
		s.mu.Unlock()
		return err
	}
	// Release whatever this key still charges against the lease — an old fast
	// residency, or a promotion reservation orphaned by the gen bump. The
	// latch plus that bump guarantee no mover still owns the charge.
	s.fastBytes -= ent.charged
	ent.charged = 0
	ent.place = inSlow
	ent.size = size
	ent.misses = 0
	s.touchLocked(ent)
	s.stats.Spills++
	s.releaseLocked(ent)
	s.mu.Unlock()
	s.tracer.Emit(obs.KindTierSpill, 0, size)
	return nil
}

// Get implements storage.Store. Tier-0 residents are read directly; tier-1
// residents go through the inner scheduler at demand class. A tier-0 read
// error propagates (the caller's retry policy re-drives the whole tiered
// Get) unless the key has moved meanwhile, in which case the read is
// re-dispatched against its new home.
func (s *Store) Get(key storage.Key) ([]byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, storage.ErrClosed
	}
	ent := s.index[key]
	if ent == nil || ent.place == nowhere {
		s.mu.Unlock()
		return nil, storage.ErrNotFound
	}
	for {
		if ent.place == nowhere { // deleted while we were chasing it
			s.mu.Unlock()
			return nil, storage.ErrNotFound
		}
		gen := ent.gen
		if ent.place == inFast || ent.place == demoting {
			s.mu.Unlock()
			data, err := s.fast.Get(key)
			s.mu.Lock()
			if err == nil {
				s.stats.FastHits++
				s.touchLocked(ent)
				s.mu.Unlock()
				return data, nil
			}
			if ent.gen != gen || (ent.place != inFast && ent.place != demoting) {
				continue // the key moved mid-read; chase it
			}
			s.stats.FastReadErrors++
			s.mu.Unlock()
			return nil, err
		}
		// Tier-1 resident (inSlow, or promoting with the slow copy still
		// authoritative). A concurrent promotion load of the same key
		// coalesces inside the inner scheduler.
		s.mu.Unlock()
		data, err := s.inner.LoadSync(key, 0)
		s.mu.Lock()
		if err != nil {
			if ent.gen != gen || (ent.place != inSlow && ent.place != promoting) {
				continue // promotion or a racing Put moved it; chase
			}
			s.mu.Unlock()
			return nil, err
		}
		s.stats.SlowHits++
		s.touchLocked(ent)
		promote := false
		var psize int64
		if ent.place == inSlow && ent.gen == gen {
			ent.misses++
			if ent.misses >= promoteAfter {
				promote = s.reservePromoteLocked(ent)
				gen = ent.gen
				psize = ent.size // read under s.mu; a racing Put mutates it
			}
		}
		s.mu.Unlock()
		if promote {
			s.startPromote(key, ent, gen, psize)
		}
		return data, nil
	}
}

// Delete implements storage.Store: the key leaves every tier.
func (s *Store) Delete(key storage.Key) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return storage.ErrClosed
	}
	ent := s.acquireLocked(key)
	hadFast := ent.place == inFast || ent.place == demoting
	hadSlow := ent.place == inSlow || ent.place == promoting
	s.mu.Unlock()
	var ferr, serr error
	if hadFast && s.fast != nil {
		ferr = s.fast.Delete(key)
	}
	if hadSlow {
		serr = s.slow.Delete(key)
	}
	s.mu.Lock()
	s.fastBytes -= ent.charged
	ent.charged = 0
	ent.place = nowhere // readers chasing the old pointer see the tombstone
	delete(s.index, key)
	s.releaseLocked(ent)
	s.mu.Unlock()
	if ferr != nil {
		return ferr
	}
	return serr
}

// Has implements storage.Store from the index — no store round trip; every
// write flows through Put, so the index is authoritative.
func (s *Store) Has(key storage.Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent := s.index[key]
	return ent != nil && ent.place != nowhere
}

// Close drains the inner scheduler (pending demotions complete, queued
// promotions cancel), closing the slow store, then closes the fast store.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.inner.Close()
	if s.fast != nil {
		if ferr := s.fast.Close(); err == nil {
			err = ferr
		}
	}
	return err
}

// demote schedules background demotions of the coldest tier-0 blobs until
// the projected usage reaches the low watermark. The moves ride the inner
// scheduler's eviction-write class: demand reads always dispatch first.
func (s *Store) demote() {
	type victim struct {
		key storage.Key
		ent *entry
		gen uint64
	}
	s.mu.Lock()
	if s.closed || !s.overHighLocked() {
		s.mu.Unlock()
		return
	}
	var pending int64 // bytes already leaving in a prior wave
	var cands []victim
	for k, e := range s.index {
		switch e.place {
		case demoting:
			pending += e.charged
		case inFast:
			if !e.writing {
				cands = append(cands, victim{key: k, ent: e})
			}
		}
	}
	need := s.fastBytes - pending - s.lowMark
	if need <= 0 {
		s.mu.Unlock()
		return
	}
	// Coldest first; ties broken by key so the wave is deterministic under
	// a seeded schedule (map iteration order is not).
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ent.seq != cands[j].ent.seq {
			return cands[i].ent.seq < cands[j].ent.seq
		}
		return cands[i].key < cands[j].key
	})
	var picked []victim
	for _, c := range cands {
		if need <= 0 {
			break
		}
		c.ent.place = demoting
		c.gen = c.ent.gen
		s.inFlight++
		need -= c.ent.size
		picked = append(picked, c)
	}
	s.mu.Unlock()
	for _, v := range picked {
		s.scheduleDemotion(v.key, v.ent, v.gen)
	}
}

// scheduleDemotion submits one fast→slow move at write class. The encode
// hook (running on an inner I/O worker) acquires the key's latch, reads the
// fast copy and hands it to the scheduler, which performs the retried slow
// write; the done hook finalizes the move. The latch is held across the
// whole move, so a racing Put or Delete of the same key serializes behind
// it — tier-1 writes for one key can never reorder.
func (s *Store) scheduleDemotion(key storage.Key, ent *entry, gen uint64) {
	abort := func(failed bool) {
		s.mu.Lock()
		if ent.gen == gen && ent.place == demoting {
			ent.place = inFast
		}
		if failed {
			s.stats.DemotionFails++
		}
		s.inFlight--
		s.mu.Unlock()
	}
	// aborted marks a move reconciled inside the encode hook; encode and done
	// run sequentially on one inner worker, so a plain bool is safe. The done
	// hook cannot infer the abort from a nil blob — a zero-length value
	// encodes to one.
	aborted := false
	ok := s.inner.Store(key, 0, func() ([]byte, error) {
		s.mu.Lock()
		for ent.writing {
			s.cond.Wait()
		}
		if ent.gen != gen || ent.place != demoting {
			s.mu.Unlock()
			aborted = true
			abort(false)
			return nil, errSuperseded
		}
		ent.writing = true
		s.mu.Unlock()
		blob, err := s.fast.Get(key)
		if err != nil {
			s.mu.Lock()
			s.releaseLocked(ent)
			s.mu.Unlock()
			aborted = true
			abort(true)
			return nil, err
		}
		return blob, nil
	}, nil, func(n int, err error) {
		if aborted {
			return // reconciled in the encode hook
		}
		size := int64(n)
		if err != nil {
			// The slow write failed after retries: the blob stays in fast,
			// still charged — loud, not lost.
			s.mu.Lock()
			s.releaseLocked(ent)
			s.mu.Unlock()
			abort(true)
			return
		}
		// The slow copy is durable: flip residency before scrubbing the
		// fast copy so concurrent reads always find a valid home.
		s.mu.Lock()
		ent.place = inSlow
		ent.misses = 0
		s.mu.Unlock()
		_ = s.fast.Delete(key)
		s.mu.Lock()
		s.fastBytes -= ent.charged
		ent.charged = 0
		s.stats.Demotions++
		s.inFlight--
		s.releaseLocked(ent)
		over := s.overHighLocked()
		s.mu.Unlock()
		s.tracer.Emit(obs.KindTierDemote, 0, size)
		if over {
			s.demote()
		}
	})
	if !ok {
		abort(false)
	}
}

// reservePromoteLocked charges the lease for an upcoming promotion so
// concurrent promotions cannot oversubscribe it. Promotion is gated on the
// high watermark: promoting into a contended lease would just thrash the
// demoter. A latched key is refused: its mover still owns ent.charged — a
// demotion publishes inSlow before it has scrubbed the fast copy and released
// that charge, and a reservation made in between would be overwritten and
// then released in its place, leaking the blob's bytes from the lease.
func (s *Store) reservePromoteLocked(ent *entry) bool {
	if s.cfg.Capacity == 0 || s.fast == nil || ent.writing {
		return false
	}
	if s.cfg.Capacity > 0 && s.fastBytes+ent.size > s.highMark {
		return false
	}
	ent.charged = ent.size
	s.fastBytes += ent.size
	ent.place = promoting
	s.inFlight++
	return true
}

// startPromote submits the slow→fast move: a prefetch-class read (bounded,
// cancellable, never ahead of demand) whose callback installs the blob in
// tier 0 and scrubs the tier-1 copy.
func (s *Store) startPromote(key storage.Key, ent *entry, gen uint64, size int64) {
	release := func(failed bool) {
		// Only release if this promotion still owns the reservation: a
		// superseding Put/Delete reconciles the charge itself.
		if ent.gen == gen && ent.place == promoting {
			s.fastBytes -= ent.charged
			ent.charged = 0
			ent.place = inSlow
			ent.misses = 0
			if failed {
				s.stats.PromotionFails++
			}
		}
		s.inFlight--
	}
	ok := s.inner.Load(key, 0, swapio.Prefetch, func(blob []byte, err error) {
		s.mu.Lock()
		if err != nil || ent.gen != gen || ent.place != promoting {
			release(err != nil && ent.gen == gen)
			s.mu.Unlock()
			return
		}
		// Install under the key's latch: serialized against Put/Delete.
		for ent.writing {
			s.cond.Wait()
			if ent.gen != gen || ent.place != promoting {
				release(false)
				s.mu.Unlock()
				return
			}
		}
		ent.writing = true
		s.mu.Unlock()
		perr := s.fast.Put(key, blob)
		if perr == nil {
			_ = s.slow.Delete(key)
		}
		s.mu.Lock()
		if perr != nil {
			release(true)
		} else {
			ent.place = inFast // the reservation becomes the residency charge
			ent.misses = 0
			s.stats.Promotions++
			s.inFlight--
		}
		s.releaseLocked(ent)
		over := s.overHighLocked()
		s.mu.Unlock()
		if perr == nil {
			s.tracer.Emit(obs.KindTierPromote, 0, size)
			if over {
				s.demote()
			}
		}
	})
	if !ok {
		// Prefetch bound or shutdown: no promotion this round.
		s.mu.Lock()
		release(false)
		s.mu.Unlock()
	}
}

// WaitIdle blocks until no demotion or promotion is in flight and no key is
// latched by an in-progress mutation, stable across a clock tick — the
// quiescence hook the simulation audit uses before its deep residency
// checks. Under a virtual clock the tick only elapses at global quiescence,
// so an idle observation right after it cannot hide a mutation that is
// merely between dispatch and latch.
func (s *Store) WaitIdle() {
	idle := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.inFlight != 0 {
			return false
		}
		for _, e := range s.index {
			if e.writing {
				return false
			}
		}
		return true
	}
	for {
		s.clk.Sleep(200 * time.Microsecond)
		if idle() {
			s.clk.Sleep(200 * time.Microsecond)
			if idle() {
				return
			}
		}
	}
}

// Snapshot returns the tier counters plus current residency.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.FastBytes = s.fastBytes
	out.Capacity = s.cfg.Capacity
	for _, e := range s.index {
		switch e.place {
		case inFast, demoting:
			out.FastBlobs++
		case inSlow, promoting:
			out.SlowBlobs++
		}
	}
	return out
}

// CompressStats returns the tier-0.5 counters; ok is false when the store
// was built without a compression layer.
func (s *Store) CompressStats() (stats CompressStats, ok bool) {
	if s.comp == nil {
		return CompressStats{}, false
	}
	return s.comp.Stats(), true
}

// CheckInvariants audits the tier state and returns one message per
// violation. The shallow form (deep=false) checks the always-true accounting
// properties and is safe to run concurrently with traffic; the deep form
// additionally verifies single-tier residency against the backing stores and
// must only run at quiescence (after WaitIdle, no concurrent operations).
func (s *Store) CheckInvariants(deep bool) []string {
	var out []string
	s.mu.Lock()
	var charged int64
	for _, e := range s.index {
		charged += e.charged
		if e.charged < 0 {
			out = append(out, fmt.Sprintf("tier: negative charge %d", e.charged))
		}
	}
	if charged != s.fastBytes {
		out = append(out, fmt.Sprintf("tier: fastBytes=%d but entries charge %d", s.fastBytes, charged))
	}
	if s.cfg.Capacity > 0 && s.fastBytes > s.cfg.Capacity {
		out = append(out, fmt.Sprintf("tier: lease exceeded: %d charged > %d capacity", s.fastBytes, s.cfg.Capacity))
	}
	if !deep {
		s.mu.Unlock()
		return out
	}
	type snap struct {
		key storage.Key
		ent entry
	}
	var snaps []snap
	for k, e := range s.index {
		snaps = append(snaps, snap{key: k, ent: *e})
	}
	s.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].key < snaps[j].key })
	for _, sn := range snaps {
		k, e := sn.key, sn.ent
		if e.writing {
			out = append(out, fmt.Sprintf("tier: %q latched at quiescence", k))
		}
		switch e.place {
		case demoting, promoting:
			out = append(out, fmt.Sprintf("tier: %q still %s at quiescence", k, e.place))
		case inFast:
			if e.charged != e.size {
				out = append(out, fmt.Sprintf("tier: fast-resident %q charges %d, size %d", k, e.charged, e.size))
			}
			if s.fast != nil && !s.fast.Has(k) {
				out = append(out, fmt.Sprintf("tier: %q indexed fast but tier 0 lacks it", k))
			}
			if s.slow.Has(k) {
				out = append(out, fmt.Sprintf("tier: %q resident in both tiers", k))
			}
		case inSlow:
			if e.charged != 0 {
				out = append(out, fmt.Sprintf("tier: slow-resident %q still charges %d", k, e.charged))
			}
			if !s.slow.Has(k) {
				out = append(out, fmt.Sprintf("tier: %q indexed slow but tier 1 lacks it", k))
			}
			if s.fast != nil && s.fast.Has(k) {
				out = append(out, fmt.Sprintf("tier: %q resident in both tiers", k))
			}
		default:
			if e.charged != 0 {
				out = append(out, fmt.Sprintf("tier: ghost %q charges %d", k, e.charged))
			}
		}
	}
	return out
}

var _ storage.Store = (*Store)(nil)
