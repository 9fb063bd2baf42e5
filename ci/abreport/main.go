// Command abreport turns the raw pairs ci/e2e-ab.sh collected into the
// A/B record: per workload and end-to-end metric, each side's median and
// quartiles, the change at the median and the pairs in which the change did
// better, with every raw pair beside them. It prints the summary as a table
// that pastes into CHANGES.md.
//
// The raw file has one run a line, tab-separated: workload, seed, side
// (parent or change), the side that ran first in its pair, and the
// benchmark's result line (JSON).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// result is the benchmark's result line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

type pair struct {
	Seed   int64   `json:"seed"`
	First  string  `json:"first"`
	Parent *result `json:"parent"`
	Change *result `json:"change"`
}

type summary struct {
	ParentMedian float64 `json:"parent_median"`
	ParentQ1     float64 `json:"parent_q1"`
	ParentQ3     float64 `json:"parent_q3"`
	ChangeMedian float64 `json:"change_median"`
	ChangeQ1     float64 `json:"change_q1"`
	ChangeQ3     float64 `json:"change_q3"`
	DeltaPct     float64 `json:"delta_pct"`
	Better       int     `json:"change_better_pairs"`
	Pairs        int     `json:"pairs"`
	// Clear says the medians are further apart than the parent's
	// interquartile range.
	Clear bool `json:"gap_exceeds_parent_iqr"`
}

type host struct {
	Nproc string `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
}

type record struct {
	How             string                        `json:"how"`
	Host            host                          `json:"host"`
	ParentCommit    string                        `json:"parent_commit"`
	ChangeCommit    string                        `json:"change_commit"`
	ChangeDirty     bool                          `json:"change_is_working_tree_with_changes"`
	ChangeTree      string                        `json:"change_tree"`
	TestFilesDiffer []string                      `json:"test_files_differ"`
	AllCorrect      bool                          `json:"all_correct"`
	PairSummaries   map[string]map[string]summary `json:"pair_summaries"`
	Pairs           map[string][]pair             `json:"pairs"`
}

func main() {
	var (
		raw   = flag.String("raw", "", "raw pairs (tab-separated)")
		tests = flag.String("tests", "", "file listing the test files that differ, one a line")
		bench = flag.String("bench", "BENCHMARK.json", "the benchmark's declaration, for the end-to-end metrics")
		out   = flag.String("out", "BENCH_ab.json", "record to write")
		rec   record
	)
	flag.StringVar(&rec.How, "how", "", "how the pairs were made")
	flag.StringVar(&rec.ParentCommit, "base", "", "parent commit")
	flag.StringVar(&rec.ChangeCommit, "head", "", "change commit (HEAD of the working tree)")
	flag.BoolVar(&rec.ChangeDirty, "dirty", false, "the working tree differs from HEAD")
	flag.StringVar(&rec.ChangeTree, "tree", "", "git tree hash of the measured working tree (equals the tree of the commit that records it unchanged)")
	flag.StringVar(&rec.Host.Nproc, "nproc", "", "host processors")
	flag.StringVar(&rec.Host.CPU, "cpu", "", "host CPU model")
	flag.StringVar(&rec.Host.Go, "go", "", "go version")
	flag.Parse()
	if err := run(&rec, *raw, *tests, *bench, *out); err != nil {
		fmt.Fprintln(os.Stderr, "abreport:", err)
		os.Exit(1)
	}
}

func run(rec *record, raw, tests, bench, out string) error {
	metrics, err := endToEnd(bench)
	if err != nil {
		return err
	}
	order, err := readPairs(rec, raw)
	if err != nil {
		return err
	}
	if tests != "" {
		data, err := os.ReadFile(tests)
		if err != nil {
			return err
		}
		rec.TestFilesDiffer = strings.Fields(string(data))
	}
	rec.AllCorrect = true
	rec.PairSummaries = map[string]map[string]summary{}
	fmt.Printf("%-15s %-12s %12s %12s %8s %7s %s\n", "workload", "metric", "parent", "change", "delta", "better", "gap > parent IQR")
	for _, w := range order {
		rec.PairSummaries[w] = map[string]summary{}
		for _, p := range rec.Pairs[w] {
			rec.AllCorrect = rec.AllCorrect && p.Parent.Correct && p.Change.Correct && p.Parent.Failed == 0 && p.Change.Failed == 0
		}
		for _, m := range metrics {
			s, ok := summarize(rec.Pairs[w], m.Name, m.Better == "lower")
			if !ok {
				continue
			}
			rec.PairSummaries[w][m.Name] = s
			fmt.Printf("%-15s %-12s %12.6g %12.6g %+7.2f%% %4d/%-2d %v\n", w, m.Name,
				s.ParentMedian, s.ChangeMedian, s.DeltaPct, s.Better, s.Pairs, s.Clear)
		}
	}
	fmt.Printf("every run correct: %v\n", rec.AllCorrect)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// endToEnd reads the end-to-end metrics the benchmark declares.
func endToEnd(path string) ([]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return decl.EndToEnd, nil
}

// readPairs fills rec.Pairs from the raw file and returns the workloads in
// the order they ran.
func readPairs(rec *record, path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rec.Pairs = map[string][]pair{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.SplitN(sc.Text(), "\t", 5)
		if len(fields) != 5 {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		w, side, first := fields[0], fields[2], fields[3]
		seed, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: seed: %w", path, err)
		}
		r := &result{}
		if err := json.Unmarshal([]byte(fields[4]), r); err != nil {
			return nil, fmt.Errorf("%s: %s seed %d %s: result %q: %w", path, w, seed, side, fields[4], err)
		}
		if _, ok := rec.Pairs[w]; !ok {
			order = append(order, w)
		}
		ps := rec.Pairs[w]
		if len(ps) == 0 || ps[len(ps)-1].Seed != seed {
			ps = append(ps, pair{Seed: seed, First: first})
		}
		p := &ps[len(ps)-1]
		switch side {
		case "parent":
			p.Parent = r
		case "change":
			p.Change = r
		default:
			return nil, fmt.Errorf("%s: side %q", path, side)
		}
		rec.Pairs[w] = ps
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for w, ps := range rec.Pairs {
		for _, p := range ps {
			if p.Parent == nil || p.Change == nil {
				return nil, fmt.Errorf("%s: %s seed %d has one side only", path, w, p.Seed)
			}
		}
	}
	return order, nil
}

// summarize compares one metric over a workload's pairs; ok is false when
// no pair reports it.
func summarize(ps []pair, name string, lowerBetter bool) (s summary, ok bool) {
	var a, b []float64
	for _, p := range ps {
		x, okA := p.Parent.Metrics[name]
		y, okB := p.Change.Metrics[name]
		if !okA || !okB {
			continue
		}
		a, b = append(a, x.Value), append(b, y.Value)
		if lowerBetter && y.Value < x.Value || !lowerBetter && y.Value > x.Value {
			s.Better++
		}
	}
	if len(a) == 0 {
		return s, false
	}
	s.Pairs = len(a)
	slices.Sort(a)
	slices.Sort(b)
	s.ParentQ1, s.ParentMedian, s.ParentQ3 = quantile(a, 0.25), quantile(a, 0.5), quantile(a, 0.75)
	s.ChangeQ1, s.ChangeMedian, s.ChangeQ3 = quantile(b, 0.25), quantile(b, 0.5), quantile(b, 0.75)
	if s.ParentMedian != 0 {
		s.DeltaPct = math.Round(10000*(s.ChangeMedian-s.ParentMedian)/s.ParentMedian) / 100
	}
	s.Clear = math.Abs(s.ChangeMedian-s.ParentMedian) > s.ParentQ3-s.ParentQ1
	return s, true
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}
