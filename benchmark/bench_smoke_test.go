package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The smoke test runs every workload and the probes at quick sizes inside
// the test process (runChild is the child's own entry point, so nothing is
// spawned) and checks what is emitted, not how fast.

func smokeEnv(t *testing.T, workload string) env {
	dir := t.TempDir()
	return env{workload: workload, seed: 1, quick: true, spool: filepath.Join(dir, "spool"), out: dir}
}

// TestEmittedNamesMatchCatalogue: on every workload, the traced protocol
// plus the probes emit exactly the per-layer metrics the catalogue lists for
// that workload, each once, and every end-to-end metric with a value.
func TestEmittedNamesMatchCatalogue(t *testing.T) {
	probeValues, err := runProbes(smokeEnv(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range probeValues {
		if v <= 0 {
			t.Errorf("probe %s = %v, want a positive measurement", name, v)
		}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			e := smokeEnv(t, name)
			w, err := runWorkload(runChild, e, plan{reps: 1, traced: true})
			if err != nil {
				t.Fatal(err)
			}
			if w.Failed > 0 {
				// OPCDM out of core is intermittently non-conforming (a
				// known defect the benchmark reports as failed runs).
				if name == wOPCDM {
					t.Logf("known intermittent failure: %v", w.Failures)
				} else {
					t.Errorf("%d of %d failed: %v", w.Failed, w.Attempted, w.Failures)
				}
			}
			for _, m := range endToEnd {
				if s := w.EndToEnd[m.Name]; s.N < 1 || s.Value <= 0 {
					t.Errorf("end-to-end %s = %+v, want a positive value", m.Name, s)
				}
			}
			emitted := map[string]bool{}
			for k := range w.PerLayer {
				emitted[k] = true
				if _, dup := probeValues[k]; dup {
					t.Errorf("%s is emitted by the workload and by the probes", k)
				}
			}
			for k := range probeValues {
				emitted[k] = true
			}
			for _, m := range perLayer {
				switch {
				case m.measuredOn(name) && !emitted[m.Name]:
					t.Errorf("%s is listed for %s but was not emitted", m.Name, name)
				case !m.measuredOn(name) && emitted[m.Name]:
					t.Errorf("%s was emitted on %s, which the catalogue does not list for it", m.Name, name)
				}
				delete(emitted, m.Name)
			}
			for k := range emitted {
				t.Errorf("%s was emitted but is not in the catalogue", k)
			}
			if d := w.PerLayer["obs.dropped"]; d != 0 {
				t.Errorf("traced run dropped %v events", d)
			}
			if _, err := os.Stat(filepath.Join(e.out, "trace-"+name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}

			// The bypass predictions, which make "no change here" a claim a
			// change on another layer can be held to.
			switch name {
			case wONUPDR:
				if ev, ld := w.PerLayer["ooc.evictions"], w.PerLayer["ooc.loads"]; ev != 0 || ld != 0 {
					t.Errorf("in-core workload swapped: %v evictions, %v loads", ev, ld)
				}
			case wChurn:
				// Busy time is summed over the PEs, so it is held against
				// the PE-time of the traced run.
				busy := w.PerLayer["core.handler_busy_s"]
				tracedWall := w.EndToEnd["wall_s"].Value * (1 + w.PerLayer["obs.trace_overhead_pct"]/100)
				if peTime := tracedWall * churnNodes; busy >= 0.1*peTime {
					t.Errorf("handlers are busy %.4fs of %.4fs of PE-time: the handler is not trivial", busy, peTime)
				}
				if w.PerLayer["ooc.loads"] == 0 {
					t.Error("swap-churn never loaded an object")
				}
			}
		})
	}
}

// TestChurnReportsCorruptBlob is the negative control: damaging one spooled
// blob must surface as failed touches, not as a pass and not as a panic.
func TestChurnReportsCorruptBlob(t *testing.T) {
	e := smokeEnv(t, wChurn)
	clean, err := runChurnOn(e, newSpanLog("clean"), nil, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failed != 0 {
		t.Fatalf("clean file-spool run failed %d touches: %v", clean.Failed, clean.Failures)
	}
	corrupted := ""
	r, err := runChurnOn(e, newSpanLog("corrupt"), nil, true, func(rig *churnRig, spool string) error {
		// Pick an object that is out of core now, so that its blob on disk
		// is the only copy, and flip one byte in the middle of the payload.
		for _, p := range rig.ptrs {
			if rig.cl.RT(int(p.Home)).InCore(p) {
				continue
			}
			path := filepath.Join(spool, fmt.Sprintf("node%d", p.Home), fmt.Sprintf("obj-%d-%d.obj", p.Home, p.Seq))
			b, err := os.ReadFile(path)
			if err != nil {
				return fmt.Errorf("spooled blob of %v: %w", p, err)
			}
			b[len(b)/2] ^= 0xFF
			corrupted = path
			return os.WriteFile(path, b, 0o644)
		}
		return fmt.Errorf("no object is out of core after warm-up")
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed == 0 {
		t.Fatalf("corrupting %s went unnoticed: 0 of %d touches failed", corrupted, r.Attempted)
	}
	t.Logf("corrupt blob reported as %d failed of %d: %v", r.Failed, r.Attempted, r.Failures)
}
