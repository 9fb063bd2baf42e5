package mrts_test

// One benchmark per figure and table of the paper's evaluation section.
// Each runs the corresponding experiment from internal/bench and logs the
// reproduced table (visible with -v). Scale the problem sizes with
// MRTS_BENCH_SCALE (default 0.15: a laptop-friendly series; 1.0 is the
// repository's full series, the paper's absolute sizes need a cluster).
//
//	go test -bench=. -benchmem            # everything
//	go test -bench=BenchmarkTable7 -v     # one experiment, with its table
//	MRTS_BENCH_SCALE=0.5 go test -bench=BenchmarkFigure8

import (
	"bytes"
	"os"
	"strconv"
	"testing"

	"mrts/internal/bench"
)

func benchScale() float64 {
	if s := os.Getenv("MRTS_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.15
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	opts := bench.Options{Scale: benchScale(), PEs: 4}
	for i := 0; i < b.N; i++ {
		tbl, err := bench.Run(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			tbl.Fprint(&buf)
			b.Log("\n" + buf.String())
		}
	}
}

// Figures.

func BenchmarkFigure1(b *testing.B)  { runExperiment(b, "fig1") }
func BenchmarkFigure5(b *testing.B)  { runExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)  { runExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { runExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { runExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)  { runExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { runExperiment(b, "fig10") }

// Tables.

func BenchmarkTable1(b *testing.B) { runExperiment(b, "tab1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "tab2") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "tab3") }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "tab4") }
func BenchmarkTable5(b *testing.B) { runExperiment(b, "tab5") }
func BenchmarkTable6(b *testing.B) { runExperiment(b, "tab6") }
func BenchmarkTable7(b *testing.B) { runExperiment(b, "tab7") }

// Ablations: the eviction-policy comparison of §II-E, the directory
// location-management comparison of [27], and the conclusion's
// remote-memory configuration.

func BenchmarkAblationPolicies(b *testing.B)    { runExperiment(b, "policies") }
func BenchmarkAblationDirPolicies(b *testing.B) { runExperiment(b, "dirpolicies") }
func BenchmarkAblationRemoteMem(b *testing.B)   { runExperiment(b, "remotemem") }
