package meshstore

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Ordered is the parallel half of every full-store reader: it runs work(k)
// for k in [0, n) on up to GOMAXPROCS goroutines and use(k, v) on the
// caller's goroutine in index order. At most 2 × GOMAXPROCS results are
// dispatched ahead of the one being used, so at most that many finished
// results wait. The first error in index order — work(k)'s, or use(k, ·)'s
// — stops the map: use runs for no index at or after it, and it is the
// error returned. Every worker has finished when Ordered returns.
func Ordered[V any](n int, work func(k int) (V, error), use func(k int, v V) error) error {
	if n <= 0 {
		return nil
	}
	procs := runtime.GOMAXPROCS(0)
	window := 2 * procs
	type result struct {
		v   V
		err error
	}
	// Slot k%window holds index k's result. Index k+window is dispatched
	// only after k was used, so a slot never holds two results.
	slots := make([]chan result, min(window, n))
	for i := range slots {
		slots[i] = make(chan result, 1)
	}
	// Sized to the window, so dispatching never blocks the caller.
	jobs := make(chan int, len(slots))
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(procs, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				var r result
				if !stopped.Load() {
					r.v, r.err = work(k)
				}
				slots[k%len(slots)] <- r
			}
		}()
	}

	next := 0
	var err error
	for k := 0; k < n && err == nil; k++ {
		for ; next < n && next < k+len(slots); next++ {
			jobs <- next
		}
		r := <-slots[k%len(slots)]
		if err = r.err; err == nil {
			err = use(k, r.v)
		}
	}
	stopped.Store(err != nil)
	close(jobs)
	wg.Wait()
	return err
}
