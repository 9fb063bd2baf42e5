package sched

import (
	"sync"
	"sync/atomic"

	"mrts/internal/obs"
)

// gqPool is the GCD-like scheduler: a single unbounded FIFO queue feeding a
// fixed thread pool. Compared to work stealing it has no task locality and a
// single point of contention — the structural difference Table VII of the
// paper measures between the TBB and GCD builds.
type gqPool struct {
	tracer atomic.Pointer[obs.Tracer]
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Task
	head   int
	closed bool
	q      *quiescence
	wg     sync.WaitGroup
	nw     int
}

// NewGlobalQueue returns a global-queue pool with the given number of
// workers (<= 0 selects DefaultWorkers).
func NewGlobalQueue(workers int) Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	p := &gqPool{q: newQuiescence(), nw: workers}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.run(i)
	}
	return p
}

// SetTracer implements Pool.
func (p *gqPool) SetTracer(tr *obs.Tracer) { p.tracer.Store(tr) }

// runTask executes t inside a sched.run span.
func (p *gqPool) runTask(ctx *Ctx, t Task) {
	sp := p.tracer.Load().Start(obs.KindSchedRun, uint64(ctx.worker))
	t(ctx)
	sp.End(int64(ctx.worker))
	p.q.dec()
}

func (p *gqPool) Workers() int { return p.nw }

func (p *gqPool) Submit(t Task) {
	p.q.inc()
	p.mu.Lock()
	p.queue = append(p.queue, t)
	p.cond.Signal()
	p.mu.Unlock()
}

func (p *gqPool) spawnFrom(_ int, t Task) { p.Submit(t) }

func (p *gqPool) Wait() { p.q.wait() }

func (p *gqPool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// pop removes the next task under p.mu, compacting the backing slice lazily.
func (p *gqPool) popLocked() (Task, bool) {
	if p.head >= len(p.queue) {
		return nil, false
	}
	t := p.queue[p.head]
	p.queue[p.head] = nil
	p.head++
	if p.head > 64 && p.head*2 >= len(p.queue) {
		n := copy(p.queue, p.queue[p.head:])
		for i := n; i < len(p.queue); i++ {
			p.queue[i] = nil
		}
		p.queue = p.queue[:n]
		p.head = 0
	}
	return t, true
}

func (p *gqPool) run(w int) {
	defer p.wg.Done()
	ctx := &Ctx{pool: p, worker: w}
	for {
		p.mu.Lock()
		for {
			if t, ok := p.popLocked(); ok {
				p.mu.Unlock()
				p.runTask(ctx, t)
				break
			}
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
		}
	}
}
