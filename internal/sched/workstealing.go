package sched

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"mrts/internal/obs"
)

// wsPool is the TBB-like scheduler: each worker owns a deque; it pops its
// own tasks LIFO (depth-first, cache-friendly) and steals FIFO from victims
// when idle.
type wsPool struct {
	deques  []*deque
	rngs    []*rand.Rand // per-worker seeded victim selectors
	seed    int64
	tracer  atomic.Pointer[obs.Tracer]
	q       *quiescence
	wake    *sync.Cond
	wakeMu  sync.Mutex
	sleep   int // workers currently parked
	closed  bool
	wg      sync.WaitGroup
	nextSub int // round-robin cursor for external submissions
	subMu   sync.Mutex
}

type deque struct {
	mu    sync.Mutex
	tasks []Task
}

func (d *deque) pushBottom(t Task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *deque) popBottom() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks)
	if n == 0 {
		return nil, false
	}
	t := d.tasks[n-1]
	d.tasks[n-1] = nil
	d.tasks = d.tasks[:n-1]
	return t, true
}

func (d *deque) stealTop() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return nil, false
	}
	t := d.tasks[0]
	copy(d.tasks, d.tasks[1:])
	d.tasks[len(d.tasks)-1] = nil
	d.tasks = d.tasks[:len(d.tasks)-1]
	return t, true
}

// NewWorkStealing returns a work-stealing pool with the given number of
// workers (<= 0 selects DefaultWorkers) and a fixed victim-selection seed.
func NewWorkStealing(workers int) Pool {
	return NewWorkStealingSeeded(workers, 1)
}

// NewWorkStealingSeeded is NewWorkStealing with an explicit seed for the
// steal-victim selectors. Worker w draws from a rand.Rand seeded with
// seed+w, never from the global source, so a steal sequence is reproducible
// from the seed alone — the property the simulation harness replays on. The
// seed appears in Name() so failure output identifies the schedule.
func NewWorkStealingSeeded(workers int, seed int64) Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	p := &wsPool{
		deques: make([]*deque, workers),
		rngs:   make([]*rand.Rand, workers),
		seed:   seed,
		q:      newQuiescence(),
	}
	p.wake = sync.NewCond(&p.wakeMu)
	for i := range p.deques {
		p.deques[i] = &deque{}
		p.rngs[i] = rand.New(rand.NewSource(seed + int64(i)))
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.run(i)
	}
	return p
}

func (p *wsPool) Name() string { return fmt.Sprintf("workstealing(seed=%d)", p.seed) }

// SetTracer implements Pool.
func (p *wsPool) SetTracer(tr *obs.Tracer) { p.tracer.Store(tr) }

// runTask executes t on worker w inside a sched.run span.
func (p *wsPool) runTask(ctx *Ctx, t Task) {
	sp := p.tracer.Load().Start(obs.KindSchedRun, uint64(ctx.worker))
	t(ctx)
	sp.End(int64(ctx.worker))
	p.q.dec()
}

func (p *wsPool) Workers() int { return len(p.deques) }

func (p *wsPool) Submit(t Task) {
	p.subMu.Lock()
	w := p.nextSub
	p.nextSub = (p.nextSub + 1) % len(p.deques)
	p.subMu.Unlock()
	p.enqueue(w, t)
}

func (p *wsPool) spawnFrom(w int, t Task) { p.enqueue(w, t) }

func (p *wsPool) enqueue(w int, t Task) {
	p.q.inc()
	p.deques[w].pushBottom(t)
	p.wakeMu.Lock()
	if p.sleep > 0 {
		p.wake.Signal()
	}
	p.wakeMu.Unlock()
}

func (p *wsPool) Wait() { p.q.wait() }

func (p *wsPool) Close() {
	p.wakeMu.Lock()
	p.closed = true
	p.wake.Broadcast()
	p.wakeMu.Unlock()
	p.wg.Wait()
}

// grab finds a task for worker w: own deque first, then steal.
func (p *wsPool) grab(w int) (Task, bool) {
	if t, ok := p.deques[w].popBottom(); ok {
		return t, true
	}
	// Steal: seeded-random start, sweep all victims.
	n := len(p.deques)
	start := p.rngs[w].Intn(n)
	for k := 0; k < n; k++ {
		v := (start + k) % n
		if v == w {
			continue
		}
		if t, ok := p.deques[v].stealTop(); ok {
			p.tracer.Load().Emit(obs.KindSchedSteal, uint64(w), int64(v))
			return t, true
		}
	}
	return nil, false
}

func (p *wsPool) run(w int) {
	defer p.wg.Done()
	ctx := &Ctx{pool: p, worker: w}
	for {
		t, ok := p.grab(w)
		if ok {
			p.runTask(ctx, t)
			continue
		}
		// Park. Re-check for work under the wake lock: enqueue pushes the
		// task before acquiring the lock, so a re-grab here cannot miss a
		// task enqueued before our park decision (no lost wakeups).
		p.wakeMu.Lock()
		if p.closed {
			p.wakeMu.Unlock()
			return
		}
		if t, ok := p.grab(w); ok {
			p.wakeMu.Unlock()
			p.runTask(ctx, t)
			continue
		}
		p.sleep++
		p.wake.Wait()
		p.sleep--
		closed := p.closed
		p.wakeMu.Unlock()
		if closed {
			return
		}
	}
}
