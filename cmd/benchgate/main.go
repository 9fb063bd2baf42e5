// Command benchgate compares two mrtsbench -json documents and exits
// non-zero when the current run regressed past the tolerances — the CI
// benchmark-regression gate.
//
// Usage:
//
//	benchgate -baseline ci/bench-baseline.json -current BENCH_ci.json
//	benchgate -baseline a.json -current b.json -speed-tol 0.5 -time-tol 2.5
//
// The gate checks speed metrics against a relative lower bound, overlap
// percentages against an absolute drop in points, and wall times against a
// relative upper bound; see bench.GateConfig. A run-shape mismatch (different
// -scale or -pes) fails loudly rather than comparing incomparable runs.
package main

import (
	"flag"
	"fmt"
	"os"

	"mrts/internal/bench"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "", "baseline bench.Doc JSON (required)")
		currentPath  = flag.String("current", "", "current bench.Doc JSON (required)")
		speedTol     = flag.Float64("speed-tol", 0, "relative speed floor (0 = default 0.6)")
		overlapTol   = flag.Float64("overlap-tol", 0, "allowed overlap drop in points (0 = default 25)")
		timeTol      = flag.Float64("time-tol", 0, "relative time ceiling (0 = default 1.8)")
		waitTol      = flag.Float64("wait-tol", 0, "relative demand-wait ceiling (0 = default 5)")
		hitTol       = flag.Float64("hit-tol", 0, "allowed hit-ratio drop in points (0 = default 25)")
		allocTol     = flag.Float64("alloc-tol", 0, "relative allocs/op ceiling (0 = default 2)")
		bytesTol     = flag.Float64("bytes-tol", 0, "relative bytes-moved ceiling (0 = default 1.5)")
		forwardTol   = flag.Float64("forward-tol", 0, "relative forwarded-per-message ceiling (0 = default 2)")
		hopsTol      = flag.Float64("hops-tol", 0, "relative mean-hop-count ceiling (0 = default 1.5)")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline and -current are required")
		flag.Usage()
		os.Exit(2)
	}
	baseline, err := bench.ReadDoc(*baselinePath)
	if err != nil {
		fatalf("%v", err)
	}
	current, err := bench.ReadDoc(*currentPath)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := bench.GateConfig{
		SpeedTol: *speedTol, OverlapTol: *overlapTol, TimeTol: *timeTol,
		WaitTol: *waitTol, HitTol: *hitTol, AllocTol: *allocTol, BytesTol: *bytesTol,
		ForwardTol: *forwardTol, HopsTol: *hopsTol,
	}
	violations := bench.Compare(baseline, current, cfg)
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s) vs %s:\n", len(violations), *baselinePath)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	gated := 0
	for _, id := range baseline.ExperimentIDs() {
		gated += len(baseline.Experiments[id])
	}
	fmt.Printf("benchgate: ok — %d experiments, %d baseline metrics within tolerance\n",
		len(baseline.Experiments), gated)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
