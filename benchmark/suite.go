package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// hostInfo fingerprints where a set of results was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	SpoolFS    string `json:"spool_fs"`
}

// fsNames names the filesystem magic numbers a spool is likely to sit on.
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext2/3/4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
}

func readHost(spool string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	h.SpoolFS = filesystemOf(spool)
	return h
}

// filesystemOf names the filesystem dir is on.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%X", int64(st.Type))
}

// warnHost says so when the host cannot run the 2-PE load in parallel.
func warnHost() {
	if n := runtime.NumCPU(); n < 2 {
		fmt.Fprintf(os.Stderr, "benchmark: warning: %d CPU; the load is sized for 2 and timings will be serialized\n", n)
	}
}

// resultsDoc is results.json.
type resultsDoc struct {
	Host      hostInfo                   `json:"host"`
	Seed      int64                      `json:"seed"`
	Reps      int                        `json:"reps"`
	Quick     bool                       `json:"quick"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Probes    map[string]float64         `json:"probes"`
}

// runSuite runs the named workloads with reps untraced runs and one traced
// run each, then the probes once, prints every metric and writes
// results.json. It returns non-zero when any correctness check failed.
func runSuite(e env, names []string, reps int) int {
	warnHost()
	if err := os.MkdirAll(e.spool, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	doc := resultsDoc{Host: readHost(e.spool), Seed: e.seed, Reps: reps, Quick: e.quick,
		Workloads: map[string]*workloadResult{}}
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s kernel=%s spool_fs=%s\n",
		doc.Host.NProc, doc.Host.GOMAXPROCS, doc.Host.GoVersion, doc.Host.Kernel, doc.Host.SpoolFS)
	failed := false
	for _, name := range names {
		we := e
		we.workload = name
		w, err := runWorkload(spawnChild, we, plan{reps: reps, traced: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		printWorkload(name, w)
		doc.Workloads[name] = w
		failed = failed || w.Failed > 0
	}
	res, err := spawnChild(childProbes, e)
	if err == nil {
		err = checkListed(res.Probes)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	doc.Probes = res.Probes
	printLayer("probes", doc.Probes)

	if err := writeJSON(filepath.Join(e.out, "results.json"), doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultsDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// Verdicts of comparing one end-to-end metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge holds the new samples against the baseline's by the metric's bound.
// A spread wider than the bound on either side cannot resolve a difference
// of the bound's size, so the pair is unresolved, not unchanged.
func judge(m metricDef, base, cur samples) string {
	switch {
	case regressed(m, base.Value, cur.Value):
		return verdictRegressed
	case spread(base.Samples) > m.Bound || spread(cur.Samples) > m.Bound:
		return verdictUnresolved
	default:
		return verdictOK
	}
}

// compareFiles prints, per workload and end-to-end metric, both reported
// values with their samples' quartiles, the relative difference, the bound and the verdict. It
// returns non-zero when any metric regressed.
func compareFiles(out io.Writer, basePath, curPath string) int {
	var docs [2]*resultsDoc
	for i, path := range []string{basePath, curPath} {
		doc, err := readResults(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		docs[i] = doc
	}
	return compareDocs(out, docs[0], docs[1])
}

func compareDocs(out io.Writer, base, cur *resultsDoc) int {
	if base.Host != cur.Host {
		fmt.Fprintf(out, "note: hosts differ: %+v vs %+v\n", base.Host, cur.Host)
	}
	code := 0
	fmt.Fprintf(out, "%-15s %-12s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "base", "[q1, q3]", "new", "[q1, q3]", "worse", "bound", "verdict")
	for _, name := range workloadNames {
		b, c := base.Workloads[name], cur.Workloads[name]
		if b == nil || c == nil {
			continue
		}
		for _, m := range endToEnd {
			bs, cs := b.EndToEnd[m.Name], c.EndToEnd[m.Name]
			verdict := judge(m, bs, cs)
			if verdict == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(out, "%-15s %-12s %12.6g %25s %12.6g %25s %+7.1f%% %5.0f%%  %s\n",
				name, m.Name, bs.Value, fmt.Sprintf("[%.6g, %.6g]", bs.Q1, bs.Q3),
				cs.Value, fmt.Sprintf("[%.6g, %.6g]", cs.Q1, cs.Q3),
				100*worsening(m, bs.Value, cs.Value), 100*m.Bound, verdict)
		}
		if c.Failed > 0 {
			fmt.Fprintf(out, "%-15s failed %d of %d\n", name, c.Failed, c.Attempted)
			code = 1
		}
	}
	return code
}
