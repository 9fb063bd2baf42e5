// Package clock abstracts time for the MRTS runtime layers. Every package
// below cmd/ that sleeps, schedules timeouts, or timestamps runtime behavior
// (comm delivery delays, storage service times, retry backoff, termination
// probing, swap-wait accounting) takes an injected Clock instead of calling
// the time package directly. Production code runs on Real(), which forwards
// to the time package; the deterministic simulation harness (internal/sim)
// runs on a Virtual clock whose time advances only when every simulated
// goroutine has quiesced — so a test that "waits 50ms of backoff" completes
// in microseconds of wall time, and a whole fault schedule plays out in
// virtual time reproducibly.
//
// The injection rule (enforced by `make lint` and the CI lint job): no
// source file in the packages Makefile lists as CLOCKED_PKGS may call
// time.Now, time.Sleep, time.After, time.NewTimer or time.Tick — this
// package is the only place those calls are allowed to reach the runtime
// from.
package clock

import "time"

// Clock is the time source injected into the runtime layers.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns the elapsed time on this clock since t.
	Since(t time.Time) time.Duration
	// Sleep blocks the calling goroutine for d of this clock's time.
	// Non-positive d yields the processor without sleeping.
	Sleep(d time.Duration)
	// NewTimer returns a Timer firing after d.
	NewTimer(d time.Duration) *Timer
}

// Timer is a stoppable single-fire timer, the portable subset of time.Timer
// both clock implementations can provide.
type Timer struct {
	// C receives the clock's time when the timer fires.
	C    <-chan time.Time
	stop func() bool
}

// Stop cancels the timer. It reports whether the timer was still pending
// (matching time.Timer.Stop semantics).
func (t *Timer) Stop() bool {
	if t == nil || t.stop == nil {
		return false
	}
	return t.stop()
}

// realClock forwards to the time package.
type realClock struct{}

// Real returns the wall clock. It is the default everywhere a nil Clock is
// configured.
func Real() Clock { return realClock{} }

// Or returns c, or the wall clock when c is nil — the idiom every layer uses
// to default its injected clock.
func Or(c Clock) Clock {
	if c == nil {
		return Real()
	}
	return c
}

func (realClock) Now() time.Time                  { return time.Now() }
func (realClock) Since(t time.Time) time.Duration { return time.Since(t) }

func (realClock) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

func (realClock) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, stop: t.Stop}
}
