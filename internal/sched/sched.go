// Package sched is the computing layer substrate of the MRTS: task
// schedulers that execute message-handler work over a fixed set of workers
// (PEs). The paper's implementation wraps Intel TBB or Apple GCD; this
// package provides two structurally analogous schedulers behind one
// interface:
//
//   - WorkStealing: per-worker LIFO deques with FIFO stealing, the TBB model;
//   - GlobalQueue: a single shared FIFO feeding a thread pool, the GCD model.
//
// Both support nested parallelism: a task may spawn subtasks through its
// *Ctx.
package sched

import (
	"runtime"
	"sync"

	"mrts/internal/obs"
)

// Task is a unit of work executed by a pool worker. Tasks are expected to
// run to completion without blocking (the paper's recommendation for message
// handler tasks); use Ctx.Spawn for nested parallelism.
type Task func(*Ctx)

// Ctx is the execution context handed to every task.
type Ctx struct {
	pool   Pool
	worker int
}

// Worker returns the index of the worker executing the task, in [0,
// Workers()).
func (c *Ctx) Worker() int { return c.worker }

// Pool returns the pool executing the task.
func (c *Ctx) Pool() Pool { return c.pool }

// Spawn schedules a subtask. On a work-stealing pool the subtask goes to the
// current worker's local deque (LIFO); on a global-queue pool it is appended
// to the shared queue.
func (c *Ctx) Spawn(t Task) { c.pool.spawnFrom(c.worker, t) }

// Pool schedules tasks over a fixed set of workers.
type Pool interface {
	// Submit schedules a task from outside the pool.
	Submit(t Task)
	// Wait blocks until every submitted task (including nested spawns) has
	// completed. The pool remains usable afterwards.
	Wait()
	// Close shuts down the workers. The pool must be quiescent.
	Close()
	// Workers returns the number of worker goroutines.
	Workers() int
	// Name identifies the scheduler flavor ("workstealing" or "globalqueue").
	Name() string
	// SetTracer installs a structured event tracer: task executions are
	// recorded as sched.run spans and successful steals as sched.steal
	// instants. A nil tracer (the default) disables recording.
	SetTracer(tr *obs.Tracer)

	// spawnFrom schedules a task from worker w.
	spawnFrom(w int, t Task)
}

// DefaultWorkers returns the worker count used when a non-positive count is
// requested.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// quiescence tracks outstanding-task counts shared by both pool flavors.
type quiescence struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending int
}

func newQuiescence() *quiescence {
	q := &quiescence{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *quiescence) inc() {
	q.mu.Lock()
	q.pending++
	q.mu.Unlock()
}

func (q *quiescence) dec() {
	q.mu.Lock()
	q.pending--
	if q.pending == 0 {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

func (q *quiescence) wait() {
	q.mu.Lock()
	for q.pending != 0 {
		q.cond.Wait()
	}
	q.mu.Unlock()
}
