// Command mrtsbench regenerates the figures and tables of the paper's
// evaluation section.
//
// Usage:
//
//	mrtsbench -exp fig5                    # one experiment
//	mrtsbench -exp all -scale 0.25         # the whole evaluation, smaller sizes
//	mrtsbench -exp tab4 -trace out.json    # + Perfetto-loadable event trace
//	mrtsbench -exp all -json BENCH.json    # + machine-readable metrics
//	mrtsbench -pprof localhost:6060 ...    # + live pprof/expvar endpoints
//	mrtsbench -list                        # show experiment IDs
//
// The -trace file is Chrome trace-event JSON: open it at https://ui.perfetto.dev
// (or chrome://tracing) to see per-node swap/comm/sched/app/tier/cluster/mesh
// tracks.
// The -json file is a bench.Doc consumed by cmd/benchgate and the CI
// benchmark-regression gate.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"strings"
	"time"

	"mrts/internal/bench"
	"mrts/internal/obs"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment ID(s), comma-separated (see -list), or 'all'")
		scale     = flag.Float64("scale", 0.25, "problem size multiplier")
		pes       = flag.Int("pes", 4, "processing elements / cluster nodes")
		list      = flag.Bool("list", false, "list experiment IDs and exit")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto)")
		jsonPath  = flag.String("json", "", "write machine-readable metrics (bench.Doc JSON)")
		pprofAddr = flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address while running")
		seed      = flag.Int64("seed", 0, "perturb every seeded random stream in the experiments (0 = legacy fixed seeds)")
		dir       = flag.String("dir", "", "restrict the routing experiment to one locator (placed, lazy, eager, home)")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.Experiments() {
			fmt.Println(id)
		}
		return
	}
	ids := bench.Experiments()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	opts := bench.Options{Scale: *scale, PEs: *pes, Seed: *seed, Dir: *dir}
	var sink *obs.TraceSink
	if *tracePath != "" {
		sink = obs.NewTraceSink(obs.DefaultCapacity)
		opts.Trace = sink
	}
	doc := bench.NewDoc(opts)
	if *pprofAddr != "" {
		// Expose the metrics gathered so far next to the stock expvar
		// counters: `curl host:port/debug/vars | jq .bench`.
		expvar.Publish("bench", expvar.Func(func() any { return doc }))
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "mrtsbench: pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof/expvar listening on http://%s/debug/pprof\n\n", *pprofAddr)
	}
	for _, id := range ids {
		start := time.Now()
		tbl, err := bench.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrtsbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		tbl.Fprint(os.Stdout)
		doc.Add(tbl)
		fmt.Printf("(%s took %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *jsonPath != "" {
		if err := doc.WriteFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "mrtsbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote metrics to %s\n", *jsonPath)
	}
	if sink != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrtsbench: %v\n", err)
			os.Exit(1)
		}
		if err := obs.WriteChromeTrace(f, sink.Tracers()...); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "mrtsbench: trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "mrtsbench: trace: %v\n", err)
			os.Exit(1)
		}
		var events, dropped int
		for _, tr := range sink.Tracers() {
			events += tr.Len()
			dropped += int(tr.Dropped())
		}
		fmt.Printf("wrote %d trace events to %s (open at https://ui.perfetto.dev)", events, *tracePath)
		if dropped > 0 {
			fmt.Printf(" [%d oldest events overwritten by the ring buffer]", dropped)
		}
		fmt.Println()
	}
}
