package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mrts/internal/obs"
)

// A child is one fresh process doing one piece of a workload's protocol, so
// that peak RSS, heap state and GC history belong to that piece alone. The
// parent re-executes its own binary with -child and reads one JSON object
// from the child's standard output.
const (
	childMeasure   = "measure"   // set-up + one untraced measured run
	childTraced    = "traced"    // set-up + one traced run + the reference phase
	childReference = "reference" // the reference phase alone
	childProbes    = "probes"    // the layer probes
)

// env is what a child is told on its command line.
type env struct {
	workload string
	seed     int64
	quick    bool
	spool    string // parent directory for spool and store directories
	out      string // where the traced child writes trace-<workload>.json
}

func (e env) sizes() sizes {
	if e.quick {
		return quickSizes
	}
	return fullSizes
}

// perturb moves a configured target size by up to ±3 % as the seed decides,
// so every seed is a different input of the same regime.
func (e env) perturb(target int) int {
	u := rand.New(rand.NewSource(e.seed)).Float64()*2 - 1
	return int(float64(target) * (1 + 0.03*u))
}

// runResult is what one measured run reports.
type runResult struct {
	SetupS float64 `json:"setup_s"`
	// WallS is the duration of the whole measured unit. Walls are the run's
	// samples of the wall_s metric: WallS itself for a mesh run, one per
	// segment of swap-churn's loop, one per cycle of export-restore.
	WallS     float64   `json:"wall_s"`
	Walls     []float64 `json:"walls"`
	Items     float64   `json:"items"` // work items done: elements, or touches
	PeakRSSMB float64   `json:"peak_rss_mb"`
	// Attempted and Failed count the operations checked: one per run for
	// the mesh workloads, one per touch for swap-churn.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// MeshHash and Elements are compared with the reference by the parent.
	MeshHash string `json:"mesh_hash,omitempty"`
	Elements int    `json:"elements,omitempty"`
	// Layer holds the per-layer metrics the run measured.
	Layer map[string]float64 `json:"layer"`
}

// fail records one failed operation with its reason.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// refResult is what the reference phase reports.
type refResult struct {
	MeshHash    string  `json:"mesh_hash,omitempty"`
	Elements    int     `json:"elements"`
	IncoreWallS float64 `json:"incore_wall_s"`
}

// childOut is the child's whole answer.
type childOut struct {
	Run    *runResult         `json:"run,omitempty"`
	Ref    *refResult         `json:"ref,omitempty"`
	Probes map[string]float64 `json:"probes,omitempty"`
}

// runChild executes one child kind.
func runChild(kind string, e env) (childOut, error) {
	if kind == childProbes {
		probes, err := runProbes(e)
		return childOut{Probes: probes}, err
	}
	w, ok := workloads[e.workload]
	if !ok {
		return childOut{}, fmt.Errorf("unknown workload %q", e.workload)
	}
	var out childOut
	// The sink exists from the first instant so its epoch and the span
	// log's agree to within microseconds.
	var sink *obs.TraceSink
	if kind == childTraced {
		sink = obs.NewTraceSink(e.sizes().traceCap)
	}
	log := newSpanLog(fmt.Sprintf("%s/seed%d/pid%d", e.workload, e.seed, os.Getpid()))
	if kind == childMeasure || kind == childTraced {
		run, err := w.run(e, log, sink)
		if err != nil {
			return out, err
		}
		out.Run = run
	}
	if (kind == childReference || kind == childTraced) && w.reference != nil {
		id := log.begin("reference", 0)
		ref, err := w.reference(e)
		log.end(id)
		if err != nil {
			return out, err
		}
		out.Ref = ref
	}
	if kind == childTraced {
		if err := writeTrace(e, log, sink); err != nil {
			return out, err
		}
	}
	return out, nil
}

// procSnapshot is the Go process's resource use at one instant.
type procSnapshot struct {
	cpu     time.Duration
	alloc   uint64
	gc      uint32
	gcPause uint64
}

func takeProcSnapshot() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSnapshot{cpu: cpu, alloc: ms.TotalAlloc, gc: ms.NumGC, gcPause: ms.PauseTotalNs}
}

// procDelta reports what the process used between two snapshots.
func procDelta(into map[string]float64, before, after procSnapshot) {
	into["proc.cpu_s"] = (after.cpu - before.cpu).Seconds()
	into["proc.alloc_mb"] = mb(after.alloc - before.alloc)
	into["proc.gc_cycles"] = float64(after.gc - before.gc)
	into["proc.gc_pause_ms"] = float64(after.gcPause-before.gcPause) / 1e6
}

// peakRSSMB reads the process's high-water resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

func mb[T uint64 | int64](bytes T) float64 { return float64(bytes) / (1 << 20) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
