package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealClockSmoke(t *testing.T) {
	c := Real()
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Fatalf("real clock did not advance")
	}
	select {
	case <-c.NewTimer(0).C:
	case <-time.After(time.Second):
		t.Fatalf("NewTimer(0) never fired")
	}
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatalf("Stop on pending real timer returned false")
	}
}

func TestOrDefaultsToReal(t *testing.T) {
	if Or(nil) == nil {
		t.Fatalf("Or(nil) returned nil")
	}
	v := NewVirtual()
	defer v.Stop()
	if Or(v) != Clock(v) {
		t.Fatalf("Or did not pass through a non-nil clock")
	}
}

func TestVirtualSleepAdvances(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	t0 := v.Now()
	v.Sleep(50 * time.Millisecond) // auto-advance: no one else is runnable
	if got := v.Since(t0); got < 50*time.Millisecond {
		t.Fatalf("virtual time advanced %v, want >= 50ms", got)
	}
}

func TestVirtualSleepOrdering(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	durs := []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	for i, d := range durs {
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			v.Sleep(d)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}(i, d)
	}
	wg.Wait()
	want := []int{1, 2, 0} // by deadline: 10ms, 20ms, 30ms
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order %v, want %v", order, want)
		}
	}
}

func TestVirtualAfterAndTimer(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	select {
	case ts := <-v.NewTimer(5 * time.Millisecond).C:
		if ts.Before(epoch.Add(5 * time.Millisecond)) {
			t.Fatalf("timer fired at %v, want >= epoch+5ms", ts)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("virtual timer never fired")
	}

	tm := v.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatalf("Stop on pending virtual timer returned false")
	}
	if tm.Stop() {
		t.Fatalf("second Stop returned true")
	}
	// A stopped timer must not hold the clock back: this sleep would hang
	// forever if the hour-long deadline were still in the heap gating
	// auto-advance at the 1h mark ordering.
	v.Sleep(time.Millisecond)
}

// waitPending blocks until a sleeper is registered on v — or done closes,
// because the quiesce-driven advancer may legitimately fire a sleep before
// this observer ever sees it pending.
func waitPending(v *Virtual, done <-chan struct{}) {
	pending := func() bool {
		v.mu.Lock()
		defer v.mu.Unlock()
		return len(v.waiters) > 0
	}
	for !pending() {
		select {
		case <-done:
			return
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func TestVirtualManualAdvance(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	var fired atomic.Bool
	done := make(chan struct{})
	go func() {
		v.Sleep(time.Hour)
		fired.Store(true)
		close(done)
	}()
	// Wait for the sleeper to register, then drive time by hand. (If the
	// advancer won the race and fired it already, Advance still moves time.)
	waitPending(v, done)
	v.Advance(2 * time.Hour)
	<-done
	if !fired.Load() {
		t.Fatalf("manual advance did not release sleeper")
	}
	if v.Since(epoch) < 2*time.Hour {
		t.Fatalf("Advance moved time by %v, want >= 2h", v.Since(epoch))
	}
}

func TestVirtualStopReleasesSleepers(t *testing.T) {
	v := NewVirtual()
	done := make(chan struct{})
	go func() {
		// The advancer would fire this eventually; Stop must release it
		// immediately regardless.
		v.Sleep(time.Hour)
		close(done)
	}()
	waitPending(v, done)
	v.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Stop did not release a pending sleeper")
	}
	// Stopped clock: further sleeps are no-ops and Stop is idempotent.
	v.Sleep(time.Hour)
	v.Stop()
}

func TestVirtualManySleepersConverge(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				v.Sleep(time.Duration(1+i%7) * time.Millisecond)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("auto-advance failed to drain 64 sleepers")
	}
}
