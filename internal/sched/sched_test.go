package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

func pools(workers int) map[string]func() Pool {
	return map[string]func() Pool{
		"workstealing": func() Pool { return NewWorkStealing(workers) },
		"globalqueue":  func() Pool { return NewGlobalQueue(workers) },
	}
}

func TestSubmitAndWait(t *testing.T) {
	for name, mk := range pools(4) {
		t.Run(name, func(t *testing.T) {
			p := mk()
			defer p.Close()
			var n atomic.Int64
			for i := 0; i < 1000; i++ {
				p.Submit(func(*Ctx) { n.Add(1) })
			}
			p.Wait()
			if got := n.Load(); got != 1000 {
				t.Fatalf("ran %d tasks, want 1000", got)
			}
		})
	}
}

func TestNestedSpawn(t *testing.T) {
	for name, mk := range pools(4) {
		t.Run(name, func(t *testing.T) {
			p := mk()
			defer p.Close()
			var n atomic.Int64
			// Binary fan-out: 1 task spawns 2, down to depth 10 → 2^11-1.
			var spawn func(c *Ctx, depth int)
			spawn = func(c *Ctx, depth int) {
				n.Add(1)
				if depth == 0 {
					return
				}
				for k := 0; k < 2; k++ {
					d := depth - 1
					c.Spawn(func(c2 *Ctx) { spawn(c2, d) })
				}
			}
			p.Submit(func(c *Ctx) { spawn(c, 10) })
			p.Wait()
			if got, want := n.Load(), int64(1<<11-1); got != want {
				t.Fatalf("ran %d tasks, want %d", got, want)
			}
		})
	}
}

func TestWaitReusable(t *testing.T) {
	for name, mk := range pools(2) {
		t.Run(name, func(t *testing.T) {
			p := mk()
			defer p.Close()
			var n atomic.Int64
			for phase := 0; phase < 5; phase++ {
				for i := 0; i < 100; i++ {
					p.Submit(func(*Ctx) { n.Add(1) })
				}
				p.Wait()
				if got, want := n.Load(), int64((phase+1)*100); got != want {
					t.Fatalf("phase %d: %d tasks, want %d", phase, got, want)
				}
			}
		})
	}
}

func TestWorkerIndexInRange(t *testing.T) {
	for name, mk := range pools(3) {
		t.Run(name, func(t *testing.T) {
			p := mk()
			defer p.Close()
			if p.Workers() != 3 {
				t.Fatalf("Workers = %d", p.Workers())
			}
			var bad atomic.Int64
			for i := 0; i < 200; i++ {
				p.Submit(func(c *Ctx) {
					if c.worker < 0 || c.worker >= 3 {
						bad.Add(1)
					}
					if c.pool != p {
						bad.Add(1)
					}
				})
			}
			p.Wait()
			if bad.Load() != 0 {
				t.Fatalf("%d tasks saw bad context", bad.Load())
			}
		})
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
	p := NewWorkStealing(0)
	defer p.Close()
	if p.Workers() != DefaultWorkers() {
		t.Fatalf("Workers = %d, want %d", p.Workers(), DefaultWorkers())
	}
	p2 := NewGlobalQueue(-5)
	defer p2.Close()
	if p2.Workers() != DefaultWorkers() {
		t.Fatalf("Workers = %d, want %d", p2.Workers(), DefaultWorkers())
	}
}

func TestManyConcurrentSubmitters(t *testing.T) {
	for name, mk := range pools(4) {
		t.Run(name, func(t *testing.T) {
			p := mk()
			defer p.Close()
			var n atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 250; i++ {
						p.Submit(func(*Ctx) { n.Add(1) })
					}
				}()
			}
			wg.Wait()
			p.Wait()
			if n.Load() != 2000 {
				t.Fatalf("ran %d, want 2000", n.Load())
			}
		})
	}
}

func BenchmarkSpawnWorkStealing(b *testing.B) {
	p := NewWorkStealing(4)
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(func(*Ctx) {})
	}
	p.Wait()
}

func BenchmarkSpawnGlobalQueue(b *testing.B) {
	p := NewGlobalQueue(4)
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(func(*Ctx) {})
	}
	p.Wait()
}
