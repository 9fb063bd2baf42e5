// Command benchmark is the MRTS benchmark: five workloads, four end-to-end
// metrics measured on each, per-layer counters, a traced run and direct
// probes of every layer. See README.md for the protocol and the metric
// dictionary, and ../BENCHMARK.json for the names other changes are held to.
//
// Three ways to run it (through run.sh, which builds it first):
//
//	run.sh --workload NAME --seed N --seconds S --trace 0|1
//	    one workload for about S seconds; the last line of standard output
//	    is one JSON object with the end-to-end (trace 0) or per-layer
//	    (trace 1) metrics.
//	run.sh [-workloads a,b] [-reps 5] [-seed 1] [-spool DIR] [-out DIR] [-quick]
//	    the suite: every workload, reps untraced runs then one traced run
//	    each, the probes once; prints every metric and writes results.json.
//	run.sh -compare A/results.json B/results.json
//	    holds B against A by every end-to-end metric's bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadFlag  = flag.String("workload", "", "run this one workload and print the result as one JSON line")
		seed          = flag.Int64("seed", 1, "seed of everything random in the inputs")
		seconds       = flag.Float64("seconds", 0, "with -workload: keep starting measured runs for this long (0 = use -reps)")
		trace         = flag.Int("trace", 0, "with -workload: 1 adds the traced run and the probes and reports the per-layer metrics")
		workloadsFlag = flag.String("workloads", strings.Join(workloadNames, ","), "suite: comma-separated workloads to run")
		reps          = flag.Int("reps", 5, "untraced measured runs per workload")
		out           = flag.String("out", filepath.Join("benchmark", "out"), "directory for results.json and trace-<workload>.json")
		spool         = flag.String("spool", "", "parent directory of the spool and store directories (default <out>/spool)")
		quick         = flag.Bool("quick", false, "tiny sizes: a smoke run whose numbers mean nothing")
		compare       = flag.Bool("compare", false, "compare two results.json files given as arguments")
		child         = flag.String("child", "", "internal: run one child kind in this process")
	)
	flag.Parse()
	if *spool == "" {
		*spool = filepath.Join(*out, "spool")
	}
	e := env{workload: *workloadFlag, seed: *seed, quick: *quick, spool: *spool, out: *out}

	switch {
	case *child != "":
		res, err := runChild(*child, e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s child: %v\n", *child, err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two results.json files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *workloadFlag != "":
		if _, ok := workloads[*workloadFlag]; !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (known: %v)\n", *workloadFlag, workloadNames)
			return 2
		}
		p := plan{reps: *reps, traced: *trace == 1}
		if *seconds > 0 {
			p.budget = time.Duration(*seconds * float64(time.Second))
		}
		return runContract(e, p)
	default:
		names := strings.Split(*workloadsFlag, ",")
		for _, n := range names {
			if _, ok := workloads[n]; !ok {
				fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (known: %v)\n", n, workloadNames)
				return 2
			}
		}
		return runSuite(e, names, *reps)
	}
}

// childRunner runs one child kind; the program spawns a process, the smoke
// test calls runChild in its own.
type childRunner func(kind string, e env) (childOut, error)

// spawnChild re-executes this binary as a child and decodes its answer.
func spawnChild(kind string, e env) (childOut, error) {
	var res childOut
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{"-child", kind, "-workload", e.workload, "-seed", strconv.FormatInt(e.seed, 10),
		"-spool", e.spool, "-out", e.out}
	if e.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s child of %s: %w", kind, e.workload, err)
	}
	if err := json.Unmarshal(stdout, &res); err != nil {
		return res, fmt.Errorf("%s child of %s: decoding its answer: %w", kind, e.workload, err)
	}
	return res, nil
}

// plan says how much of a workload's protocol to run.
type plan struct {
	// reps is the number of untraced measured runs when budget is zero.
	reps int
	// budget, when positive, replaces reps: measured runs keep being
	// started until this much time has passed (half of it on a traced
	// plan, whose traced run, reference and probes need the rest).
	budget time.Duration
	// traced adds the traced run.
	traced bool
}

// minReps is the fewest measured runs a time budget is allowed to yield.
const minReps = 3

// samples are one end-to-end metric's samples from all measured runs of an
// invocation.
type samples struct {
	Unit string `json:"unit"`
	// Value is what the invocation reports: the best tenth of a timing's
	// samples, the median of any other metric's.
	Value   float64   `json:"value"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// workloadResult is everything one workload's protocol produced.
type workloadResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]samples `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// runWorkload runs the workload's protocol: the untraced measured runs, then
// either the traced run with the reference phase or the reference alone, and
// folds them into one result.
func runWorkload(run childRunner, e env, p plan) (*workloadResult, error) {
	var runs []*runResult
	start := time.Now()
	budget, least := p.budget, minReps
	if p.traced {
		budget, least = budget/2, 2
	}
	for i := 0; ; i++ {
		if p.budget == 0 && i >= p.reps {
			break
		}
		if p.budget > 0 && i >= least && time.Since(start) >= budget {
			break
		}
		res, err := run(childMeasure, e)
		if err != nil {
			return nil, err
		}
		runs = append(runs, res.Run)
	}

	var traced *runResult
	var ref *refResult
	switch {
	case p.traced:
		res, err := run(childTraced, e)
		if err != nil {
			return nil, err
		}
		traced, ref = res.Run, res.Ref
	case workloads[e.workload].reference != nil:
		res, err := run(childReference, e)
		if err != nil {
			return nil, err
		}
		ref = res.Ref
	}
	w := foldRuns(runs, traced, ref)
	return w, checkListed(w.PerLayer)
}

// checkAgainstReference fails a run whose mesh is not the reference's: by
// hash where the method reports one, else by element count within 1 %.
func checkAgainstReference(r *runResult, ref *refResult) {
	if ref == nil || r.Failed > 0 {
		return
	}
	if ref.MeshHash != "" {
		if r.MeshHash != ref.MeshHash {
			r.fail("mesh hash %s != no-swap reference %s", r.MeshHash, ref.MeshHash)
		}
		return
	}
	if math.Abs(float64(r.Elements-ref.Elements)) > 0.01*float64(ref.Elements) {
		r.fail("%d elements, in-core reference has %d", r.Elements, ref.Elements)
	}
}

// foldRuns turns the runs of one workload into its result: end-to-end
// metrics are taken from the pooled samples of the untraced runs (the best
// tenth of a timing's, the median of another's), counters are medians over
// those runs, span metrics come from the traced run, the reference supplies
// the in-core time.
func foldRuns(runs []*runResult, traced *runResult, ref *refResult) *workloadResult {
	w := &workloadResult{EndToEnd: map[string]samples{}, PerLayer: map[string]float64{}}
	e2e := map[string][]float64{}
	layer := map[string][]float64{}
	all := runs
	if traced != nil {
		all = append(append([]*runResult(nil), runs...), traced)
	}
	for _, r := range all {
		checkAgainstReference(r, ref)
		w.Attempted += r.Attempted
		w.Failed += r.Failed
		w.Failures = append(w.Failures, r.Failures...)
	}
	for _, r := range runs {
		e2e["setup_s"] = append(e2e["setup_s"], r.SetupS)
		for _, wall := range r.Walls {
			e2e["wall_s"] = append(e2e["wall_s"], wall)
			e2e["work_per_s"] = append(e2e["work_per_s"], ratio(r.Items, wall))
		}
		e2e["peak_rss_mb"] = append(e2e["peak_rss_mb"], r.PeakRSSMB)
		for name, v := range r.Layer {
			layer[name] = append(layer[name], v)
		}
	}
	for _, m := range endToEnd {
		xs := e2e[m.Name]
		q1, q3 := quartiles(xs)
		value := median(xs)
		if m.Timing {
			value = bestTenth(xs, m.Better)
		}
		w.EndToEnd[m.Name] = samples{Unit: m.Unit, Value: value, Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Samples: xs}
	}
	for name, xs := range layer {
		w.PerLayer[name] = median(xs)
	}
	wall := w.EndToEnd["wall_s"].Value
	if traced != nil {
		for name, v := range traced.Layer {
			if _, counted := w.PerLayer[name]; !counted {
				w.PerLayer[name] = v
			}
		}
		w.PerLayer["obs.trace_overhead_pct"] = 100 * (ratio(bestTenth(traced.Walls, "lower"), wall) - 1)
	}
	if ref != nil {
		w.PerLayer["meshgen.incore_wall_s"] = ref.IncoreWallS
		w.PerLayer["meshgen.ooc_slowdown"] = ratio(wall, ref.IncoreWallS)
	}
	return w
}

// printWorkload prints every metric of a result as "workload metric value
// unit", timings with their quartiles and sample count.
func printWorkload(name string, w *workloadResult) {
	for _, m := range endToEnd {
		s := w.EndToEnd[m.Name]
		fmt.Printf("%s %s %.6g %s (median %.6g, q1 %.6g, q3 %.6g, n %d)\n", name, m.Name, s.Value, s.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	fmt.Printf("%s failed_pct %.6g %% (%d of %d)\n", name, 100*ratio(float64(w.Failed), float64(w.Attempted)), w.Failed, w.Attempted)
	printLayer(name, w.PerLayer)
	for _, f := range w.Failures {
		fmt.Printf("%s FAILED: %s\n", name, f)
	}
}

// printLayer prints per-layer values in catalogue order.
func printLayer(prefix string, values map[string]float64) {
	for _, m := range perLayer {
		v, ok := values[m.Name]
		if !ok {
			continue
		}
		note := ""
		if m.Name == "core.overlap_pct" && v > 100 {
			note = " suspect"
		}
		fmt.Printf("%s %s %.6g %s%s\n", prefix, m.Name, v, m.Unit, note)
	}
}

// checkListed reports measured names the catalogue does not know, which
// would be a bug in the benchmark.
func checkListed(values map[string]float64) error {
	var bad []string
	for name := range values {
		if _, ok := lookupMetric(name); !ok {
			bad = append(bad, name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("measured metrics missing from the catalogue: %v", bad)
}

// contractLine is the object the acceptance driver reads from the last line
// of standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract runs one workload and prints the driver's JSON line: the
// end-to-end metrics of an untraced plan, every per-layer metric of a traced
// one (0 where the workload does not exercise the layer).
func runContract(e env, p plan) int {
	warnHost()
	w, err := runWorkload(spawnChild, e, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if p.traced {
		pe := e
		pe.workload = ""
		res, err := spawnChild(childProbes, pe)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		if err := checkListed(res.Probes); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		for name, v := range res.Probes {
			w.PerLayer[name] = v
		}
	}
	printWorkload(e.workload, w)
	line := contractLine{Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]contractValue{}}
	if p.traced {
		for _, m := range perLayer {
			line.Metrics[m.Name] = contractValue{Value: w.PerLayer[m.Name], Unit: m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.Name] = contractValue{Value: w.EndToEnd[m.Name].Value, Unit: m.Unit}
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}
