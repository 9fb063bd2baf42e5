package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// chromeDoc mirrors the JSON object format for decoding in tests.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTraceIsValidAndComplete(t *testing.T) {
	sink := NewTraceSink(64)
	n0 := sink.NewTracer("node0", nil)
	n1 := sink.NewTracer("node1", nil)
	n0.Start(KindSwapLoad, 11).End(2048)
	n0.Emit(KindSwapRetry, 11, 1)
	n1.Emit(KindCommSend, 0, 64)
	n1.Start(KindSchedRun, 0).End(3)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sink.Tracers()...); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("exporter produced invalid JSON:\n%s", buf.String())
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}

	var procNames []string
	tracks := map[int]map[string]bool{} // pid -> named threads
	kinds := map[string]string{}        // event name -> ph
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			procNames = append(procNames, ev.Args["name"].(string))
		case ev.Ph == "M" && ev.Name == "thread_name":
			if tracks[ev.PID] == nil {
				tracks[ev.PID] = map[string]bool{}
			}
			tracks[ev.PID][ev.Args["name"].(string)] = true
		default:
			kinds[ev.Name] = ev.Ph
			if ev.Ph != "X" && ev.Ph != "i" {
				t.Fatalf("unexpected phase %q for %s", ev.Ph, ev.Name)
			}
			if ev.Ph == "X" && ev.Dur <= 0 {
				t.Fatalf("complete event %s has dur %v", ev.Name, ev.Dur)
			}
		}
	}
	if len(procNames) != 2 {
		t.Fatalf("process names %v, want node0+node1", procNames)
	}
	for pid := 0; pid < 2; pid++ {
		for _, track := range []string{"swap", "comm", "sched"} {
			if !tracks[pid][track] {
				t.Fatalf("pid %d missing %s track (have %v)", pid, track, tracks[pid])
			}
		}
	}
	if kinds["swap.load"] != "X" {
		t.Fatalf("swap.load rendered as %q, want X", kinds["swap.load"])
	}
	if kinds["swap.retry"] != "i" || kinds["comm.send"] != "i" {
		t.Fatalf("instants rendered wrong: %v", kinds)
	}
}

func TestWriteChromeTraceSkipsNilTracers(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, NewTraceSink(4).NewTracer("solo", nil)); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON: %s", buf.String())
	}
}

// TestWriteChromeTraceNamesEveryTrack: with one event of every kind, each
// track gets a tid of its own, and every tid an event lands on has a
// thread_name — no two tracks share an unnamed row.
func TestWriteChromeTraceNamesEveryTrack(t *testing.T) {
	tr := NewTraceSink(int(numKinds)).NewTracer("node0", nil)
	kindOf := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		tr.Emit(k, 0, 0)
		kindOf[k.String()] = k
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	named := map[int]string{} // tid -> thread_name
	tidOf := map[string]int{} // track -> tid its events used
	events := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			if ev.Name == "thread_name" {
				named[ev.TID] = ev.Args["name"].(string)
			}
			continue
		}
		events++
		k, ok := kindOf[ev.Name]
		if !ok {
			t.Fatalf("event %q names no kind", ev.Name)
		}
		track := k.Track()
		if tid, ok := tidOf[track]; ok && tid != ev.TID {
			t.Fatalf("track %s on tids %d and %d", track, tid, ev.TID)
		}
		tidOf[track] = ev.TID
	}
	if events != int(numKinds) {
		t.Fatalf("%d events rendered, want %d", events, numKinds)
	}
	owner := map[int]string{}
	for track, tid := range tidOf {
		if other, ok := owner[tid]; ok {
			t.Fatalf("tracks %s and %s share tid %d", other, track, tid)
		}
		owner[tid] = track
		if named[tid] != track {
			t.Fatalf("tid %d carries track %s but is named %q", tid, track, named[tid])
		}
	}
}
