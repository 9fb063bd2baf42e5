package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Gauge("g", func() float64 { return 1 }) // no panic
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry produced a snapshot")
	}
}

func TestRegistrySnapshotReadsGauges(t *testing.T) {
	r := NewRegistry()
	used := 7.0
	r.Gauge("mem.used", func() float64 { return used })
	if s := r.Snapshot(); s["mem.used"] != 7 {
		t.Fatalf("snapshot = %v, want mem.used 7", s)
	}
	used = 11
	if s := r.Snapshot(); s["mem.used"] != 11 {
		t.Fatalf("snapshot = %v, want the gauge read again (11)", s)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := float64(i)
				r.Gauge(fmt.Sprintf("g%d", g), func() float64 { return v })
				_ = r.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	if len(s) != 8 {
		t.Fatalf("snapshot has %d gauges, want 8", len(s))
	}
	for g := 0; g < 8; g++ {
		if got := s[fmt.Sprintf("g%d", g)]; got != 199 {
			t.Fatalf("g%d = %v, want the last registration's 199", g, got)
		}
	}
}
