package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mrts/internal/obs"
)

// span is one of the benchmark's own spans, recorded around its calls into
// the program under test.
type span struct {
	ID     int
	Name   string
	Parent int // 0 for a root span
	Start  time.Duration
	End    time.Duration
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// spanLog keeps the benchmark's spans of one process in memory; they are
// written out with the runtime's own events when the run ends. It is used
// from the child's main goroutine only.
type spanLog struct {
	t0    time.Time
	runID string
	spans []span
}

func newSpanLog(runID string) *spanLog { return &spanLog{t0: time.Now(), runID: runID} }

// begin opens a span under parent (0 for none) and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Name: name, Parent: parent, Start: time.Since(l.t0)})
	return id
}

// end closes the span and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	s := &l.spans[id-1]
	s.End = time.Since(l.t0)
	return s.End - s.Start
}

// interval returns the time a closed span covered.
func (l *spanLog) interval(id int) interval { return l.spans[id-1].interval() }

// self is the span's duration minus what its direct children cover.
func (l *spanLog) self(s span) time.Duration {
	var children []interval
	for _, c := range l.spans {
		if c.Parent == s.ID {
			children = append(children, c.interval())
		}
	}
	return selfTime(s.interval(), children)
}

// traceMetrics sums the runtime's events that started inside the window
// into the per-layer span metrics. pes is the number of pool workers the
// window's wall time is multiplied by for the idle share.
func traceMetrics(into map[string]float64, sink *obs.TraceSink, window interval, pes int) {
	var sum [256]time.Duration
	var count [256]int
	var handlerMS, loadMS, waitMS []float64
	var events, dropped float64
	for _, tr := range sink.Tracers() {
		events += float64(tr.Len())
		dropped += float64(tr.Dropped())
		for _, ev := range tr.Events() {
			ts := time.Duration(ev.TS)
			if ts < window.start || ts >= window.end {
				continue
			}
			sum[ev.Kind] += time.Duration(ev.Dur)
			count[ev.Kind]++
			ms := float64(ev.Dur) / 1e6
			switch ev.Kind {
			case obs.KindHandler:
				handlerMS = append(handlerMS, ms)
			case obs.KindSwapLoad:
				loadMS = append(loadMS, ms)
			case obs.KindSwapWait:
				waitMS = append(waitMS, ms)
			}
		}
	}
	p99 := func(samples []float64) float64 {
		v, _ := tailValue(samples, 99)
		return v
	}
	handler := sum[obs.KindHandler].Seconds()
	run := sum[obs.KindSchedRun].Seconds()
	into["core.handler_busy_s"] = handler
	into["core.handler_count"] = float64(count[obs.KindHandler])
	into["core.handler_p99_ms"] = p99(handlerMS)
	into["core.swap_load_s"] = sum[obs.KindSwapLoad].Seconds()
	into["core.swap_evict_s"] = sum[obs.KindSwapEvict].Seconds()
	into["core.swap_load_p99_ms"] = p99(loadMS)
	into["swapio.demand_wait_s"] = sum[obs.KindSwapWait].Seconds()
	into["swapio.demand_wait_p99_ms"] = p99(waitMS)
	into["comm.deliver_busy_s"] = sum[obs.KindCommDeliver].Seconds()
	into["comm.sends"] = float64(count[obs.KindCommSend])
	into["sched.run_busy_s"] = run
	// Handlers run inside pool tasks, so what a task's span does not spend
	// in a handler is the scheduler's and the runtime's own dispatch.
	into["sched.self_s"] = run - handler
	into["sched.steals"] = float64(count[obs.KindSchedSteal])
	into["sched.idle_pct"] = 100 * (1 - ratio(run, (window.end-window.start).Seconds()*float64(pes)))
	into["obs.events"] = events
	into["obs.dropped"] = dropped
}

// writeTrace writes the runtime's events and the benchmark's own spans as
// one Chrome trace-event file that Perfetto loads.
func writeTrace(e env, log *spanLog, sink *obs.TraceSink) error {
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, sink.Tracers()...); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	// The exporter's document ends with "]}\n": reopen its event array and
	// append the benchmark's spans as one more process.
	const tail = "]}\n"
	if !bytes.HasSuffix(buf.Bytes(), []byte(tail)) {
		return fmt.Errorf("trace: exporter output does not end with %q", tail)
	}
	buf.Truncate(buf.Len() - len(tail))
	const benchPID = 1000
	enc := json.NewEncoder(&buf)
	emit := func(ev map[string]any) error {
		if buf.Bytes()[buf.Len()-1] != '[' {
			buf.WriteByte(',')
		}
		return enc.Encode(ev)
	}
	if err := emit(map[string]any{"name": "process_name", "ph": "M", "pid": benchPID,
		"args": map[string]any{"name": "benchmark " + log.runID}}); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for _, s := range log.spans {
		err := emit(map[string]any{
			"name": s.Name, "ph": "X", "pid": benchPID, "tid": 0,
			"ts": float64(s.Start) / 1e3, "dur": float64(s.End-s.Start) / 1e3,
			"args": map[string]any{"id": s.ID, "parent": s.Parent, "run": log.runID,
				"self_ms": float64(log.self(s)) / 1e6},
		})
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	buf.WriteString(tail)
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(e.out, "trace-"+e.workload+".json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
