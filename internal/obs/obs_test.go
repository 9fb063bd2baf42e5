package obs

import (
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.Emit(KindSwapRetry, 1, 2)
	tr.Start(KindSwapLoad, 3).End(4)
	tr.Timed(KindHandler, 3).End(4)
	tr.Add(KindCommSend, time.Second)
	if tr.Total(KindHandler) != 0 || tr.Report(2) != (Report{}) {
		t.Fatal("nil tracer keeps an account")
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer holds state")
	}
	// A nil sink hands out a tracer that keeps the totals and no events.
	var sink *TraceSink
	got := sink.NewTracer("x", nil)
	got.Emit(KindSwapRetry, 1, 2)
	got.Start(KindSwapLoad, 3).End(4)
	got.Timed(KindHandler, 3).End(4)
	if got.Len() != 0 {
		t.Fatalf("tracer of a nil sink recorded %d events", got.Len())
	}
	if sink.Tracers() != nil {
		t.Fatal("nil sink lists tracers")
	}
}

func TestTracerRecordsAndSorts(t *testing.T) {
	tr := NewTraceSink(16).NewTracer("node0", nil)
	sp := tr.Start(KindSwapLoad, 7)
	tr.Emit(KindSwapRetry, 7, 1)
	time.Sleep(time.Millisecond)
	sp.End(1024)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// The load span started before the retry instant, so sorting by TS
	// must put it first even though it was recorded last.
	if evs[0].Kind != KindSwapLoad {
		t.Fatalf("events not sorted by start time: %v", evs)
	}
	if evs[0].Dur <= 0 || evs[0].Arg != 1024 || evs[0].ID != 7 {
		t.Fatalf("span fields wrong: %+v", evs[0])
	}
	if evs[1].Dur != 0 || evs[1].Arg != 1 {
		t.Fatalf("instant fields wrong: %+v", evs[1])
	}
	if got := countByKind(tr)[KindSwapRetry]; got != 1 {
		t.Fatalf("retry events = %d, want 1", got)
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTraceSink(8).NewTracer("node0", nil)
	for i := 0; i < 20; i++ {
		tr.Emit(KindCommSend, uint64(i), 0)
	}
	if tr.Len() != 8 {
		t.Fatalf("ring holds %d, want 8", tr.Len())
	}
	if tr.Dropped() != 12 {
		t.Fatalf("dropped %d, want 12", tr.Dropped())
	}
	// The survivors must be the newest 12..19.
	for _, ev := range tr.Events() {
		if ev.ID < 12 {
			t.Fatalf("old event %d survived the wrap", ev.ID)
		}
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTraceSink(1024).NewTracer("node0", nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Emit(KindSchedSteal, uint64(i), int64(i))
				tr.Start(KindSchedRun, uint64(i)).End(0)
			}
		}()
	}
	wg.Wait()
	if got := tr.Len() + int(tr.Dropped()); got != 8*500*2 {
		t.Fatalf("held+dropped = %d, want %d", got, 8*500*2)
	}
}

func TestSinkAssignsDistinctPids(t *testing.T) {
	s := NewTraceSink(0)
	a := s.NewTracer("node0", nil)
	b := s.NewTracer("node1", nil)
	if a.pid == b.pid {
		t.Fatalf("sink reused pid %d", a.pid)
	}
	if len(s.Tracers()) != 2 {
		t.Fatalf("sink lists %d tracers", len(s.Tracers()))
	}
	if a.label != "node0" {
		t.Fatalf("label = %q", a.label)
	}
}

func TestKindStringsAndTracks(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Fatalf("kind %d has no name: %q", k, s)
		}
		if k.Track() == "" {
			t.Fatalf("kind %d has no track", k)
		}
	}
}

// countByKind tallies tr's recorded events per kind.
func countByKind(tr *Tracer) map[Kind]int {
	out := make(map[Kind]int)
	for _, ev := range tr.Events() {
		out[ev.Kind]++
	}
	return out
}
