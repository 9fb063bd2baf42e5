package clock

import (
	"container/heap"
	"runtime"
	"sync"
	"time"
)

// epoch is the fixed start time of every Virtual clock. A constant epoch
// makes virtual timestamps a pure function of the simulated schedule, never
// of the machine the simulation runs on.
var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// Virtual is a simulated clock in the FoundationDB style: Now() returns a
// virtual time that advances only in discrete jumps to the next registered
// deadline, and only when the simulation has quiesced — every goroutine that
// is going to act has acted, and the only thing left to do is wait. Sleeping
// on a Virtual clock therefore costs (almost) no wall time: a retry backoff
// of 50ms, a termination-probe round of 500µs, a modeled disk seek of 8ms
// all complete as soon as the system has nothing better to do.
//
// Quiescence is detected cooperatively: an internal advancer goroutine
// watches the set of pending waiters; when at least one waiter exists and no
// clock activity (new sleeps, timer registrations, firings) happens across a
// short settle window in which every runnable goroutine gets the processor,
// it jumps time to the earliest deadline and fires everything due. Work that
// never touches the clock (pure computation, channel handoffs) keeps running
// in real time underneath; the settle window only decides when the
// simulation is allowed to skip ahead. The virtual timeline — which
// deadlines exist and in which order they fire — is independent of how fast
// the host executes.
type Virtual struct {
	mu      sync.Mutex
	cond    *sync.Cond // wakes the advancer when waiters appear
	now     int64      // nanoseconds since epoch
	seq     uint64     // registration order, breaks deadline ties
	act     uint64     // bumped on every registration/firing: the quiesce signal
	waiters waiterHeap
	stopped bool
	settle  time.Duration
	done    chan struct{}
}

// waiter is one pending Sleep/After/Timer deadline.
type waiter struct {
	at    int64 // virtual deadline, nanoseconds since epoch
	seq   uint64
	ch    chan time.Time
	index int // heap index; -1 once fired or stopped
}

// NewVirtual returns a started virtual clock at the fixed epoch. Call Stop
// when done with it to release the advancer goroutine.
func NewVirtual() *Virtual {
	v := &Virtual{settle: 20 * time.Microsecond, done: make(chan struct{})}
	v.cond = sync.NewCond(&v.mu)
	go v.advance()
	return v
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return epoch.Add(time.Duration(v.now))
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Sleep implements Clock: it blocks until the virtual time has advanced by
// d. A non-positive d yields the processor, like the real clock.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		runtime.Gosched()
		return
	}
	w := v.add(d)
	if w == nil {
		return // stopped clock: sleeps return immediately
	}
	<-w.ch
}

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- v.Now()
		return ch
	}
	if w := v.add(d); w != nil {
		return w.ch
	}
	ch <- v.Now()
	return ch
}

// NewTimer implements Clock.
func (v *Virtual) NewTimer(d time.Duration) *Timer {
	if d <= 0 {
		ch := make(chan time.Time, 1)
		ch <- v.Now()
		return &Timer{C: ch, stop: func() bool { return false }}
	}
	w := v.add(d)
	if w == nil {
		ch := make(chan time.Time, 1)
		ch <- v.Now()
		return &Timer{C: ch, stop: func() bool { return false }}
	}
	return &Timer{C: w.ch, stop: func() bool {
		v.mu.Lock()
		defer v.mu.Unlock()
		if w.index < 0 {
			return false // already fired
		}
		heap.Remove(&v.waiters, w.index)
		v.act++
		return true
	}}
}

// add registers a waiter d from now. It returns nil when the clock is
// stopped (callers must not block then).
func (v *Virtual) add(d time.Duration) *waiter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.stopped {
		return nil
	}
	v.seq++
	v.act++
	w := &waiter{at: v.now + int64(d), seq: v.seq, ch: make(chan time.Time, 1)}
	heap.Push(&v.waiters, w)
	v.cond.Signal()
	return w
}

// Advance moves virtual time forward by d manually and fires everything
// due — the escape hatch for tests that drive time by hand rather than
// relying on quiesce detection.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	v.now += int64(d)
	v.fireDueLocked()
	v.mu.Unlock()
}

// Stop shuts the clock down: the advancer goroutine exits, every pending
// waiter is released at the current virtual time, and subsequent sleeps
// return immediately. Stop is idempotent. A stopped clock still serves Now.
func (v *Virtual) Stop() {
	v.mu.Lock()
	if v.stopped {
		v.mu.Unlock()
		<-v.done
		return
	}
	v.stopped = true
	now := epoch.Add(time.Duration(v.now))
	for v.waiters.Len() > 0 {
		w := heap.Pop(&v.waiters).(*waiter)
		w.ch <- now
	}
	v.cond.Broadcast()
	v.mu.Unlock()
	<-v.done
}

// fireDueLocked releases every waiter whose deadline has been reached.
// Caller holds v.mu.
func (v *Virtual) fireDueLocked() {
	for v.waiters.Len() > 0 && v.waiters[0].at <= v.now {
		w := heap.Pop(&v.waiters).(*waiter)
		v.act++
		w.ch <- epoch.Add(time.Duration(v.now))
	}
}

// advance is the quiesce-detecting time driver.
func (v *Virtual) advance() {
	defer close(v.done)
	for {
		v.mu.Lock()
		for v.waiters.Len() == 0 && !v.stopped {
			v.cond.Wait()
		}
		if v.stopped {
			v.mu.Unlock()
			return
		}
		before := v.act
		settle := v.settle
		v.mu.Unlock()

		// Settle window: every runnable goroutine gets the processor, so
		// anything that was about to act on the clock (register a sleep,
		// send a message that leads to one) gets its chance before time
		// jumps. This is the only real-time wait in the virtual clock, and
		// it shapes wall-clock speed, never the virtual timeline.
		for i := 0; i < 16; i++ {
			runtime.Gosched()
		}
		time.Sleep(settle)

		v.mu.Lock()
		if v.stopped {
			v.mu.Unlock()
			return
		}
		if v.act != before || v.waiters.Len() == 0 {
			// Someone acted during the window: not quiesced, re-settle.
			v.mu.Unlock()
			continue
		}
		if next := v.waiters[0].at; next > v.now {
			v.now = next
		}
		v.fireDueLocked()
		v.mu.Unlock()
	}
}

// waiterHeap orders waiters by (deadline, registration sequence).
type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }

func (h waiterHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}

func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*h = old[:n-1]
	return w
}
