package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// This file implements deterministic fault injection for the storage layer.
// Robust parallel mesh I/O hinges on every failure branch of the swap path
// being reachable in tests; FaultStore makes transient and permanent I/O
// faults reproducible (seeded), targetable (per key) and countable, so the
// retry layer and the runtime's loss accounting can be exercised without a
// failing disk.

// ErrInjected is the base error of every fault FaultStore injects.
var ErrInjected = errors.New("storage: injected fault")

// ErrPermanent marks an error as non-retryable: retry layers must hand it to
// the caller immediately. Classify with IsPermanent.
var ErrPermanent = errors.New("storage: permanent fault")

// IsPermanent reports whether err must not be retried: the key is missing,
// the store is closed, the store is out of capacity, or the error is
// explicitly marked permanent.
func IsPermanent(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrCapacity) || errors.Is(err, ErrPermanent)
}

// FaultConfig configures a FaultStore. All mechanisms compose: an operation
// first consumes its fail-first-N budget, then rolls the per-op probability.
type FaultConfig struct {
	// Seed makes the probabilistic injection deterministic. The same seed
	// and the same operation sequence produce the same faults.
	Seed int64
	// GetFailProb / PutFailProb are per-operation fault probabilities.
	GetFailProb float64
	PutFailProb float64
	// FailFirstGets / FailFirstPuts fail the first N matching operations of
	// each key and then succeed — the canonical transient-fault shape a
	// retry budget must absorb deterministically.
	FailFirstGets int
	FailFirstPuts int
	// Keys restricts injection to the listed keys; empty targets every key.
	Keys []Key
	// Permanent marks injected faults non-retryable (IsPermanent == true),
	// modeling media loss rather than a transient glitch.
	Permanent bool
	// CorruptGets returns a truncated blob instead of an error, driving the
	// caller's decode-failure branch rather than its read-failure branch.
	CorruptGets bool
}

// FaultStats counts injected faults.
type FaultStats struct {
	InjectedGets uint64
	InjectedPuts uint64
}

// FaultStore wraps a Store and injects configured faults. It is safe for
// concurrent use.
type FaultStore struct {
	inner Store
	cfg   FaultConfig

	mu      sync.Mutex
	rng     *rand.Rand
	getsRem map[Key]int // remaining fail-first budget per key
	putsRem map[Key]int

	injGets atomic.Uint64
	injPuts atomic.Uint64
}

// NewFault wraps inner with the given fault configuration.
func NewFault(inner Store, cfg FaultConfig) *FaultStore {
	return &FaultStore{
		inner:   inner,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		getsRem: make(map[Key]int),
		putsRem: make(map[Key]int),
	}
}

// Stats returns the injected-fault counters.
func (s *FaultStore) Stats() FaultStats {
	return FaultStats{InjectedGets: s.injGets.Load(), InjectedPuts: s.injPuts.Load()}
}

func (s *FaultStore) targeted(key Key) bool {
	if len(s.cfg.Keys) == 0 {
		return true
	}
	for _, k := range s.cfg.Keys {
		if k == key {
			return true
		}
	}
	return false
}

// trip decides whether this operation faults. rem holds the per-key
// fail-first budgets, budget the configured N, prob the per-op probability.
func (s *FaultStore) trip(key Key, rem map[Key]int, budget int, prob float64) bool {
	if !s.targeted(key) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if budget > 0 {
		n, seen := rem[key]
		if !seen {
			n = budget
		}
		if n > 0 {
			rem[key] = n - 1
			return true
		}
		rem[key] = 0
	}
	return prob > 0 && s.rng.Float64() < prob
}

func (s *FaultStore) injectedErr(op string, key Key) error {
	if s.cfg.Permanent {
		return fmt.Errorf("%s %q: %w: %w", op, string(key), ErrInjected, ErrPermanent)
	}
	return fmt.Errorf("%s %q: %w", op, string(key), ErrInjected)
}

// Put implements Store.
func (s *FaultStore) Put(key Key, data []byte) error {
	if s.trip(key, s.putsRem, s.cfg.FailFirstPuts, s.cfg.PutFailProb) {
		s.injPuts.Add(1)
		return s.injectedErr("put", key)
	}
	return s.inner.Put(key, data)
}

// Get implements Store.
func (s *FaultStore) Get(key Key) ([]byte, error) {
	if s.trip(key, s.getsRem, s.cfg.FailFirstGets, s.cfg.GetFailProb) {
		s.injGets.Add(1)
		if s.cfg.CorruptGets {
			d, err := s.inner.Get(key)
			if err != nil {
				return nil, err
			}
			return d[:len(d)/2], nil
		}
		return nil, s.injectedErr("get", key)
	}
	return s.inner.Get(key)
}

// GetBuf implements BufGetter, injecting the same faults as Get while
// forwarding the pooled path inward. A corrupted read returns a truncated
// view of the inner buffer; ReleaseBuf below still releases the full region.
func (s *FaultStore) GetBuf(key Key) ([]byte, error) {
	if s.trip(key, s.getsRem, s.cfg.FailFirstGets, s.cfg.GetFailProb) {
		s.injGets.Add(1)
		if s.cfg.CorruptGets {
			d, err := GetBuf(s.inner, key)
			if err != nil {
				return nil, err
			}
			return d[:len(d)/2], nil
		}
		return nil, s.injectedErr("get", key)
	}
	return GetBuf(s.inner, key)
}

// ReleaseBuf implements BufGetter.
func (s *FaultStore) ReleaseBuf(data []byte) { ReleaseBuf(s.inner, data) }

// PutBuf implements BufPutter: an injected fault leaves the buffer with the
// caller (exactly the retry contract), otherwise ownership passes inward.
func (s *FaultStore) PutBuf(key Key, data []byte) error {
	if s.trip(key, s.putsRem, s.cfg.FailFirstPuts, s.cfg.PutFailProb) {
		s.injPuts.Add(1)
		return s.injectedErr("put", key)
	}
	return PutBuf(s.inner, key, data)
}

// Delete implements Store.
func (s *FaultStore) Delete(key Key) error { return s.inner.Delete(key) }

// Has implements Store.
func (s *FaultStore) Has(key Key) bool { return s.inner.Has(key) }

// Close implements Store.
func (s *FaultStore) Close() error { return s.inner.Close() }
