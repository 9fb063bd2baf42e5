package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// This file exports recorded events as Chrome trace-event JSON (the
// "JSON Array Format" with object wrapper), the format Perfetto and
// chrome://tracing load directly. Mapping:
//
//   - every tracer (one per node per cluster) becomes a process (pid),
//     named by its label via a process_name metadata event;
//   - every track (Kind.Track) becomes a named thread (tid) inside that
//     process;
//   - duration events use ph "X" (complete events), instants use ph "i"
//     with thread scope; timestamps are microseconds with fractional
//     nanosecond precision.

// trackOrder lists every track Kind.Track returns; its order fixes the tid
// assignment so the rendered rows are stable.
var trackOrder = []string{"swap", "comm", "sched", "app", "tier", "cluster", "mesh"}

func trackTID(track string) int {
	for i, t := range trackOrder {
		if t == track {
			return i
		}
	}
	return len(trackOrder)
}

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func argName(k Kind) string {
	switch k {
	case KindSwapEvict, KindSwapLoad, KindCommSend, KindCommDeliver:
		return "bytes"
	case KindSwapRetry:
		return "attempt"
	case KindSwapLost:
		return "dropped"
	case KindSchedRun:
		return "worker"
	case KindSchedSteal:
		return "victim"
	case KindHandler:
		return "handler"
	case KindNodeJoin, KindNodeLeave:
		return "active"
	case KindDirRebalance:
		return "dest"
	default:
		return "arg"
	}
}

func toChrome(pid int, ev Event) chromeEvent {
	ce := chromeEvent{
		Name: ev.Kind.String(),
		PID:  pid,
		TID:  trackTID(ev.Kind.Track()),
		TS:   float64(ev.TS) / 1e3,
		Args: map[string]any{"id": ev.ID, argName(ev.Kind): ev.Arg},
	}
	if ev.Dur > 0 {
		ce.Ph = "X"
		ce.Dur = float64(ev.Dur) / 1e3
	} else {
		ce.Ph = "i"
		ce.Scope = "t"
	}
	return ce
}

// WriteChromeTrace writes the tracers' events as Chrome trace-event JSON.
// Tracers must come from one TraceSink (or be a single standalone tracer)
// so their timestamps share an epoch.
func WriteChromeTrace(w io.Writer, tracers ...*Tracer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	first := true
	emit := func(ce chromeEvent) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		// Encoder writes a trailing newline, which is valid inside the
		// array and keeps the file diffable.
		return enc.Encode(ce)
	}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		label := t.label
		if label == "" {
			label = fmt.Sprintf("pid%d", t.pid)
		}
		if err := emit(chromeEvent{Name: "process_name", Ph: "M", PID: t.pid,
			Args: map[string]any{"name": label}}); err != nil {
			return err
		}
		for tid, track := range trackOrder {
			if err := emit(chromeEvent{Name: "thread_name", Ph: "M", PID: t.pid, TID: tid,
				Args: map[string]any{"name": track}}); err != nil {
				return err
			}
		}
		for _, ev := range t.Events() {
			if err := emit(toChrome(t.pid, ev)); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
