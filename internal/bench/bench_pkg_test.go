package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTableFprint(t *testing.T) {
	tbl := &Table{
		ID:      "t",
		Title:   "demo",
		Headers: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("1", "22")
	tbl.AddRow("333", "4")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a note", "333", "22"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := fmtDur(1500 * time.Millisecond); got != "1.50s" {
		t.Errorf("fmtDur = %q", got)
	}
	if got := fmtDur(25 * time.Millisecond); got != "25ms" {
		t.Errorf("fmtDur = %q", got)
	}
	if got := fmtDur(200 * time.Microsecond); got != "200µs" {
		t.Errorf("fmtDur = %q", got)
	}
	if got := fmtPct(12.34); got != "12.3%" {
		t.Errorf("fmtPct = %q", got)
	}
	if got := fmtK(42000); got != "42k" {
		t.Errorf("fmtK = %q", got)
	}
	if got := fmtK(999); got != "999" {
		t.Errorf("fmtK = %q", got)
	}
}

// TestRunUnknownExperiment: an ID that names no experiment is an error,
// the retired dirpolicies (folded into routing) included.
func TestRunUnknownExperiment(t *testing.T) {
	for _, id := range []string{"bogus", "dirpolicies"} {
		if _, err := Run(id, Options{}); err == nil {
			t.Fatalf("unknown experiment %q should fail", id)
		}
	}
}

// TestRunRejectsUnknownDir: a -dir value that names no directory policy is
// an error for every experiment, listing the three it accepts, instead of an
// empty routing table; a valid one runs that policy's two rows. Without a
// filter the sweep runs all six rows even on one PE: it floors the node
// count at three.
func TestRunRejectsUnknownDir(t *testing.T) {
	for _, dir := range []string{"placed", "Lazy", "bogus"} {
		for _, id := range []string{"routing", "tab1"} {
			_, err := Run(id, Options{Scale: 0.05, PEs: 2, Dir: dir})
			if err == nil {
				t.Fatalf("-exp %s -dir %s ran", id, dir)
			}
			for _, want := range []string{"lazy", "eager", "home"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("-dir %s error %q does not list %q", dir, err, want)
				}
			}
		}
	}
	tbl, err := Run("routing", Options{Scale: 0.05, PEs: 2, Dir: "eager"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 || tbl.Rows[0][0] != "eager" || tbl.Rows[1][0] != "eager" {
		t.Fatalf("-dir eager rows = %v, want eager's settled and drift", tbl.Rows)
	}
	tbl, err = Run("routing", Options{Scale: 0.05, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("-pes 1 rows = %v, want three policies by two regimes", tbl.Rows)
	}
}

func TestExperimentsListed(t *testing.T) {
	ids := Experiments()
	if len(ids) != 23 {
		t.Fatalf("expected 23 experiments, got %d", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestFigure1Small(t *testing.T) {
	tbl, err := Figure1(Options{Scale: 0.2, PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 3 {
		t.Fatalf("too few rows: %d", len(tbl.Rows))
	}
}

func TestFigure5Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := Options{Scale: 0.05, PEs: 2}.withDefaults()
	tbl, err := methodPair("fig5", "tiny", "UPDR", []int{opts.size(20000), opts.size(40000)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestPoliciesTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tbl, err := Policies(Options{Scale: 0.08, PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("expected 10 rows (5 policies x 2 workloads), got %d", len(tbl.Rows))
	}
}

func TestAllocSmoke(t *testing.T) {
	tbl, err := Alloc(Options{Scale: 0.05, PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"steady/store_allocs_per_op", "steady/load_allocs_per_op",
		"steady/bytes_moved", "steady/pool_hit_pct",
	} {
		if _, ok := tbl.Metrics[key]; !ok {
			t.Fatalf("missing metric %s: %v", key, tbl.Metrics)
		}
	}
	// The pooled path keeps per-op allocations at a small bookkeeping
	// constant; double digits means a pooled buffer path came unhooked.
	if a := tbl.Metrics["steady/store_allocs_per_op"]; a > 10 {
		t.Fatalf("store allocs/op = %.2f, want bookkeeping-only", a)
	}
	if a := tbl.Metrics["steady/load_allocs_per_op"]; a > 10 {
		t.Fatalf("load allocs/op = %.2f, want bookkeeping-only", a)
	}
	if tbl.Metrics["steady/bytes_moved"] == 0 {
		t.Fatal("bytes_moved = 0; the probe moved no payload")
	}
}

func TestCompressTiny(t *testing.T) {
	tbl, err := Compress(Options{Scale: 0.02, PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	size := int(60000 * 0.02)
	off := tbl.Metrics[fmt.Sprintf("sz%d/off/bytes_moved", size)]
	on := tbl.Metrics[fmt.Sprintf("sz%d/on/bytes_moved", size)]
	if off == 0 || on == 0 {
		t.Fatalf("bytes_moved missing: off=%v on=%v (%v)", off, on, tbl.Metrics)
	}
	ratio := tbl.Metrics[fmt.Sprintf("sz%d/on/compress_ratio", size)]
	if ratio <= 0 {
		t.Fatalf("compress_ratio = %v, want > 0", ratio)
	}
	// The layer exists to shrink media traffic; allow slack for framing
	// overhead on tiny incompressible blobs but never a blow-up.
	if on > off*1.1 {
		t.Fatalf("compression increased media bytes: on=%v off=%v", on, off)
	}
}
