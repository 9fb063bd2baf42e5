// Command benchgate compares two mrtsbench -json documents and exits
// non-zero when the current run regressed past the gate's bounds — the CI
// benchmark-regression gate.
//
// Usage:
//
//	benchgate -baseline ci/bench-baseline.json -current BENCH_ci.json
//
// Each gated metric is checked against a relative factor of its baseline
// plus or minus an absolute slack, one table row per kind of metric (speed,
// overlap, time, wait, hit ratio, allocs, bytes, forwards, hops); see
// bench.Compare. A run-shape mismatch (different -scale or -pes) fails loudly
// rather than comparing incomparable runs.
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
	violations := bench.Compare(baseline, current)
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s) vs %s:\n", len(violations), *baselinePath)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	gated := 0
	for _, metrics := range baseline.Experiments {
		for name := range metrics {
			if bench.Gated(name) {
				gated++
			}
		}
	}
	fmt.Printf("benchgate: ok — %d experiments, %d gated baseline metrics within bounds\n",
		len(baseline.Experiments), gated)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
