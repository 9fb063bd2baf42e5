package storage

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"mrts/internal/clock"
)

// coarseClock is a manual clock whose sleepers wake only on multiples of
// gran — a timer that overshoots, the way a goroutine whose sleep expired
// waits for the next preemption tick of a saturated processor. Time moves
// only when the test calls step.
type coarseClock struct {
	clock.Clock // After/NewTimer are not used by LatencyStore
	gran        time.Duration

	mu       sync.Mutex
	now      time.Duration // since base
	sleepers []coarseSleeper
	asked    []time.Duration // every requested wake-up time, unrounded
}

type coarseSleeper struct {
	at time.Duration
	ch chan struct{}
}

var coarseBase = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

func (c *coarseClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return coarseBase.Add(c.now)
}

func (c *coarseClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *coarseClock) Sleep(d time.Duration) {
	c.mu.Lock()
	want := c.now + d
	at := (want + c.gran - 1) / c.gran * c.gran
	ch := make(chan struct{})
	c.asked = append(c.asked, want)
	c.sleepers = append(c.sleepers, coarseSleeper{at: at, ch: ch})
	c.mu.Unlock()
	<-ch
}

func (c *coarseClock) sleeping() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sleepers)
}

// step jumps to the earliest wake-up and releases everyone due then.
func (c *coarseClock) step() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.sleepers) == 0 {
		return
	}
	next := c.sleepers[0].at
	for _, s := range c.sleepers {
		if s.at < next {
			next = s.at
		}
	}
	if next > c.now {
		c.now = next
	}
	kept := c.sleepers[:0]
	for _, s := range c.sleepers {
		if s.at <= c.now {
			close(s.ch)
		} else {
			kept = append(kept, s)
		}
	}
	c.sleepers = kept
}

// TestSpindleKeepsItsOwnTime: n operations submitted together finish by
// n × ServiceTime on a clock whose sleeps overshoot tenfold, and no two of
// them hold the spindle at once. A store that sleeps inside its mutex bills
// every overshoot to the operation behind it and needs ten times as long.
func TestSpindleKeepsItsOwnTime(t *testing.T) {
	const n = 20
	const service = time.Millisecond
	clk := &coarseClock{gran: 10 * service}
	st := NewLatencyClock(NewMem(), DiskModel{Seek: service}, clk)

	var wg sync.WaitGroup
	var done sync.WaitGroup
	finished := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			wg.Done()
			if err := st.Put(Key(fmt.Sprintf("k%d", i)), nil); err != nil {
				t.Error(err)
			}
			finished <- struct{}{}
		}(i)
	}
	wg.Wait()
	// Drive the clock: step once everyone still out is asleep (or, for a
	// store that lets one caller sleep at a time, after a grace period).
	for left := n; left > 0; {
		deadline := time.Now().Add(50 * time.Millisecond)
		for clk.sleeping() < left && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
		clk.step()
		for drained := false; !drained; {
			select {
			case <-finished:
				left--
			case <-time.After(2 * time.Millisecond):
				drained = true
			}
		}
	}
	done.Wait()

	if got := clk.Since(coarseBase); got > n*service {
		t.Fatalf("%d operations of %v finished at %v on the store's clock, want <= %v", n, service, got, n*service)
	}
	// Each sleep was asked to end at its operation's modeled end: the slots
	// are [end-service, end), and they must tile without overlap.
	ends := append([]time.Duration(nil), clk.asked...)
	sort.Slice(ends, func(a, b int) bool { return ends[a] < ends[b] })
	if len(ends) != n {
		t.Fatalf("%d sleeps for %d operations", len(ends), n)
	}
	for i := 1; i < n; i++ {
		if ends[i]-ends[i-1] < service {
			t.Fatalf("operations %d and %d overlap on the spindle: ends %v and %v", i-1, i, ends[i-1], ends[i])
		}
	}
}

// TestSpindleIdleGapIsNotBanked: the timeline never runs behind the clock —
// an operation arriving after the spindle went idle starts now, not at the
// stale end of the one before it.
func TestSpindleIdleGapIsNotBanked(t *testing.T) {
	v := clock.NewVirtual()
	defer v.Stop()
	const service = 2 * time.Millisecond
	st := NewLatencyClock(NewMem(), DiskModel{Seek: service}, v)
	t0 := v.Now()
	if err := st.Put("a", nil); err != nil {
		t.Fatal(err)
	}
	v.Sleep(10 * service)
	t1 := v.Now()
	if err := st.Put("b", nil); err != nil {
		t.Fatal(err)
	}
	if got := v.Since(t1); got != service {
		t.Fatalf("operation after an idle gap took %v, want %v", got, service)
	}
	if got := v.Since(t0); got != 12*service {
		t.Fatalf("timeline reads %v, want %v", got, 12*service)
	}
}
