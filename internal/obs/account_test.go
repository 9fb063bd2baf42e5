package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"mrts/internal/clock"
)

func TestAddAndReport(t *testing.T) {
	tr := NewTracer("n", nil)
	tr.Add(KindHandler, 100*time.Millisecond)
	tr.Add(KindCommSend, 50*time.Millisecond)
	tr.Add(KindSwapBusy, 25*time.Millisecond)
	tr.Add(KindHandler, -time.Second) // negative durations ignored
	time.Sleep(time.Millisecond)
	r := tr.Report(1)
	if r.Comp != 100*time.Millisecond || r.Comm != 50*time.Millisecond || r.Disk != 25*time.Millisecond {
		t.Fatalf("report %+v", r)
	}
	if r.Total <= 0 {
		t.Fatal("total should be positive")
	}
	if r4 := tr.Report(4); r4.Total < 4*r.Total {
		t.Fatalf("Total over 4 PEs = %v, want at least 4 × %v", r4.Total, r.Total)
	}
}

// TestTimedSpan: a timed span adds its duration to its kind's total whether
// or not events are recorded, a plain span never does, and without a ring a
// plain span is inert.
func TestTimedSpan(t *testing.T) {
	for _, tr := range []*Tracer{NewTracer("totals", nil), NewTraceSink(16).NewTracer("ring", nil)} {
		sp := tr.Timed(KindHandler, 1)
		time.Sleep(20 * time.Millisecond)
		if d := sp.End(0); d < 15*time.Millisecond || tr.Total(KindHandler) != d {
			t.Errorf("%s: timed span returned %v, total %v", tr.Label(), d, tr.Total(KindHandler))
		}
		sp = tr.Start(KindSwapLoad, 1)
		time.Sleep(time.Millisecond)
		d := sp.End(0)
		if tr.Total(KindSwapLoad) != 0 {
			t.Errorf("%s: a plain span was added to the total", tr.Label())
		}
		if want := 2; tr.ring && (tr.Len() != want || d <= 0) {
			t.Errorf("%s: %d events (want %d), plain span %v", tr.Label(), tr.Len(), want, d)
		}
		if !tr.ring && (tr.Len() != 0 || d != 0) {
			t.Errorf("%s: a tracer without a ring recorded %d events, plain span %v", tr.Label(), tr.Len(), d)
		}
	}
}

// TestAccountOnInjectedClock: every timestamp of a tracer comes from its
// clock, so on a virtual clock spans, event times and the report's Total are
// virtual durations, exact and independent of how long the test really took.
func TestAccountOnInjectedClock(t *testing.T) {
	vclk := clock.NewVirtual()
	defer vclk.Stop()
	sink := NewTraceSink(16)
	vclk.Advance(time.Hour) // the sink's epoch on a clock is its first sight of it
	tr := sink.NewTracer("n", vclk)
	sp := tr.Timed(KindSwapBusy, 0)
	time.Sleep(2 * time.Millisecond) // real time: must not show anywhere
	vclk.Advance(3 * time.Second)
	if d := sp.End(0); d != 3*time.Second {
		t.Fatalf("span = %v, want 3s of virtual time", d)
	}
	// An activity that is still going on is accounted lap by lap: the total
	// is what the closed laps add up to, and the open one starts where the
	// last one ended.
	sp = tr.Timed(KindHandler, 0)
	vclk.Advance(400 * time.Millisecond)
	sp.Lap(0)
	vclk.Advance(600 * time.Millisecond)
	if got := tr.Total(KindHandler); got != 400*time.Millisecond {
		t.Fatalf("total with a lap open = %v, want the closed lap's 400ms", got)
	}
	want := Report{Comp: 400 * time.Millisecond, Disk: 3 * time.Second, Total: 2 * 4 * time.Second}
	if r := tr.Report(2); r != want {
		t.Fatalf("report %+v, want %+v", r, want)
	}
	if sp.End(0); tr.Total(KindHandler) != time.Second {
		t.Fatalf("laps sum to %v, want the whole second", tr.Total(KindHandler))
	}
	if ev := tr.Events()[0]; ev.TS != 0 || ev.Dur != int64(3*time.Second) {
		t.Fatalf("event %+v, want TS 0 and 3s", ev)
	}
	// A second tracer of the sink on the same clock shares the epoch; its
	// account starts at its own creation.
	late := sink.NewTracer("late", vclk)
	late.Emit(KindNodeJoin, 0, 0)
	if ev := late.Events()[0]; ev.TS != int64(4*time.Second) {
		t.Fatalf("second tracer's event at %v, want 4s after the shared epoch", time.Duration(ev.TS))
	}
	if r := late.Report(1); r.Total != 0 {
		t.Fatalf("second tracer's Total = %v, want 0", r.Total)
	}
}

func TestPercent(t *testing.T) {
	r := Report{Comp: 50, Comm: 25, Disk: 25, Total: 100}
	if got := r.Percent(r.Comp); got != 50 {
		t.Errorf("Percent(Comp) = %v", got)
	}
	if got := r.Percent(r.Comm); got != 25 {
		t.Errorf("Percent(Comm) = %v", got)
	}
	zero := Report{Comp: 50}
	if zero.Percent(zero.Comp) != 0 {
		t.Error("a report without Total should be all zero")
	}
}

func TestOverlap(t *testing.T) {
	// Sum = 150, total = 100 → overlap = 50%.
	r := Report{Comp: 80, Comm: 40, Disk: 30, Total: 100}
	if got := r.Overlap(); math.Abs(got-50) > 1e-9 {
		t.Errorf("Overlap = %v, want 50", got)
	}
	// Sum < total → clamped to 0.
	r2 := Report{Comp: 30, Comm: 10, Disk: 10, Total: 100}
	if got := r2.Overlap(); got != 0 {
		t.Errorf("Overlap = %v, want 0", got)
	}
	var zero Report
	if zero.Overlap() != 0 {
		t.Error("zero total should be 0 overlap")
	}
}

func TestOverlapConcurrentActivities(t *testing.T) {
	// One PE computing while the disk layer is busy must produce positive
	// overlap.
	tr := NewTracer("n", nil)
	var wg sync.WaitGroup
	for _, k := range []Kind{KindHandler, KindSwapBusy} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.Timed(k, 0)
			time.Sleep(60 * time.Millisecond)
			sp.End(0)
		}()
	}
	wg.Wait()
	if r := tr.Report(1); r.Overlap() < 20 {
		t.Errorf("expected substantial overlap, got %.1f%% (%+v)", r.Overlap(), r)
	}
}

func TestMerge(t *testing.T) {
	// Two nodes of 2 PEs each over a wall time of 100: each node's Total is
	// wall × its PEs, the merged one wall × all PEs.
	a := Report{Comp: 60, Comm: 20, Disk: 10, Total: 200}
	b := Report{Comp: 40, Comm: 30, Disk: 20, Total: 200}
	m := Merge(a, b)
	if m.Comp != 100 || m.Comm != 50 || m.Disk != 30 {
		t.Fatalf("merge %+v", m)
	}
	if m.Total != 100*4 {
		t.Fatalf("merge total %v, want wall × PEs", m.Total)
	}
	if got := m.Percent(m.Comp); got != 25 {
		t.Errorf("merged Percent(Comp) = %v", got)
	}
}

func TestSpeed(t *testing.T) {
	if got := Speed(1000, time.Second, 4); got != 250 {
		t.Errorf("Speed = %v, want 250", got)
	}
	if got := Speed(1000, 0, 4); got != 0 {
		t.Error("zero time should be 0")
	}
	if got := Speed(1000, time.Second, 0); got != 0 {
		t.Error("zero PEs should be 0")
	}
}

func TestReportString(t *testing.T) {
	r := Report{Comp: 50, Comm: 25, Disk: 25, Total: 100}
	s := r.String()
	for _, want := range []string{"comp", "comm", "disk", "overlap"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestConcurrentAdds(t *testing.T) {
	tr := NewTracer("n", nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Add(KindHandler, time.Microsecond)
				tr.Add(KindCommSend, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	r := tr.Report(1)
	if r.Comp != 8000*time.Microsecond || r.Comm != 8000*time.Microsecond {
		t.Fatalf("concurrent adds lost: %+v", r)
	}
}
