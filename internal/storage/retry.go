package storage

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mrts/internal/clock"
)

// RetryPolicy configures a Retrier's transparent retry of failed store
// operations: transient I/O faults are absorbed with exponential backoff and
// jitter before they ever reach the runtime's swap path.
// Permanent errors (IsPermanent) are never retried.
//
// The zero value disables retry (a single attempt per operation).
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per operation, including the
	// first. Values <= 1 mean a single attempt (no retry).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// attempt. Zero means 500µs.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero means 50ms.
	MaxDelay time.Duration
	// Seed makes the jitter deterministic (0 is a valid fixed seed).
	Seed int64
	// OnRetry, when non-nil, observes every retry before its backoff sleep.
	// attempt is the 1-based number of the attempt that just failed.
	OnRetry func(key Key, attempt int, err error)
	// Clock times the backoff sleeps. Nil means the wall clock; the
	// simulation harness injects a virtual clock so backoff costs no real
	// time.
	Clock clock.Clock
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 500 * time.Microsecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 50 * time.Millisecond
	}
	return p
}

// Retrier executes storage operations under a RetryPolicy, absorbing
// transient failures with exponential backoff and jitter, and counts the
// retries. The swap I/O scheduler runs every operation through one.
type Retrier struct {
	p       RetryPolicy
	clk     clock.Clock
	mu      sync.Mutex
	rng     *rand.Rand
	retries atomic.Uint64
}

// NewRetrier returns a Retrier for the given policy.
func NewRetrier(p RetryPolicy) *Retrier {
	p = p.withDefaults()
	return &Retrier{p: p, clk: clock.Or(p.Clock), rng: rand.New(rand.NewSource(p.Seed))}
}

// jitter returns a duration in [d/2, d] ("equal jitter"), decorrelating
// concurrent waiters without losing the exponential envelope.
func (r *Retrier) jitter(d time.Duration) time.Duration {
	r.mu.Lock()
	f := 0.5 + 0.5*r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// DoGetBuf runs GetBuf(st, key) under the retry policy, retrying transient
// failures within the attempt budget; key is reported to the policy's OnRetry
// observer. It takes the store rather than the operation as a closure
// because the swap read path calls it per load: the closure would be
// heap-allocated on every call, and the hot path must stay allocation-free
// in the steady state.
func (r *Retrier) DoGetBuf(st Store, key Key) ([]byte, error) {
	delay := r.p.BaseDelay
	for attempt := 1; ; attempt++ {
		blob, err := GetBuf(st, key)
		if err == nil || !r.shouldRetry(key, attempt, err, &delay) {
			return blob, err
		}
	}
}

// DoPutBuf runs PutBuf(st, key, blob) under the retry policy, closure-free
// like DoGetBuf. PutBuf's ownership contract holds across retries: the
// buffer transfers only on success, so a failed attempt may safely retry
// with the same bytes.
func (r *Retrier) DoPutBuf(st Store, key Key, blob []byte) error {
	delay := r.p.BaseDelay
	for attempt := 1; ; attempt++ {
		err := PutBuf(st, key, blob)
		if err == nil || !r.shouldRetry(key, attempt, err, &delay) {
			return err
		}
	}
}

// Retries returns the cumulative count of absorbed (retried) failures.
func (r *Retrier) Retries() uint64 { return r.retries.Load() }

// shouldRetry decides whether another attempt is allowed after err on the
// given 1-based attempt; when it is, it performs the retry bookkeeping and
// backoff sleep and advances *delay along the exponential envelope.
func (r *Retrier) shouldRetry(key Key, attempt int, err error, delay *time.Duration) bool {
	if attempt >= r.p.MaxAttempts || IsPermanent(err) {
		return false
	}
	r.retries.Add(1)
	if r.p.OnRetry != nil {
		r.p.OnRetry(key, attempt, err)
	}
	r.clk.Sleep(r.jitter(*delay))
	*delay *= 2
	if *delay > r.p.MaxDelay {
		*delay = r.p.MaxDelay
	}
	return true
}
