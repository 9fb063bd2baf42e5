package bench

import (
	"fmt"
	"os"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/comm"
	"mrts/internal/meshgen"
	"mrts/internal/ooc"
	"mrts/internal/storage"
	"mrts/internal/swapio"
)

// Pipeline sweeps the swap I/O scheduler's two knobs — worker count and
// prefetch depth — over an out-of-core OUPDR run. It is the experiment
// behind the scheduler's design claims: more I/O workers pipeline
// serialization against disk service time, and deeper prefetch raises
// comp/disk overlap, while the priority classes keep demand-load latency
// flat no matter how many prefetches are queued behind it. The gated
// metrics are wall time, overlap%% and mean demand-load wait.
func Pipeline(opts Options) (*Table, error) {
	t := &Table{
		ID:      "pipeline",
		Title:   "swap I/O scheduler: workers × prefetch depth on OUPDR",
		Headers: []string{"io workers", "prefetch", "time", "overlap%", "demand wait", "coalesced", "cancelled"},
		Notes: []string{
			"demand wait = mean time a demand load sat queued before an I/O worker picked it up",
			"expectation: more workers/deeper prefetch raise overlap; demand wait stays flat (priority classes)",
		},
	}
	size := opts.size(60000)
	for _, workers := range []int{1, 4} {
		for _, depth := range []int{2, 8} {
			res, st, err := pipelineRun(opts, size, workers, depth)
			if err != nil {
				return nil, err
			}
			wait := st.DemandWaitMean()
			t.AddRow(fmtInt(workers), fmtInt(depth), fmtDur(res.Elapsed),
				fmtPct(res.Report.Overlap()), wait.Round(time.Microsecond).String(),
				fmtInt(int(st.Coalesced)), fmtInt(int(st.Cancelled)))
			key := fmt.Sprintf("sz%d/w%dd%d", size, workers, depth)
			t.SetMetric(key+"/time_sec", res.Elapsed.Seconds())
			t.SetMetric(key+"/overlap_pct", res.Report.Overlap())
			t.SetMetric(key+"/demand_wait_ms", float64(wait.Microseconds())/1000)
		}
	}
	return t, nil
}

// pipelineRun builds a cluster with the given scheduler knobs, runs OUPDR
// out-of-core, and snapshots the aggregated I/O stats before teardown
// (Close cancels queued prefetches, which would distort the counters).
func pipelineRun(opts Options, size, workers, depth int) (meshgen.Result, swapio.Stats, error) {
	dir, err := os.MkdirTemp("", "mrts-bench-")
	if err != nil {
		return meshgen.Result{}, swapio.Stats{}, err
	}
	defer os.RemoveAll(dir)
	cl, err := cluster.New(cluster.Config{
		Nodes:          opts.PEs,
		WorkersPerNode: 1,
		MemBudget:      int64(size / 3 * bytesPerElement / opts.PEs),
		Policy:         ooc.LRU,
		SpoolDir:       dir,
		Factory:        meshgen.Factory,
		IOWorkers:      workers,
		PrefetchDepth:  depth,
		Trace:          opts.Trace,
		TraceLabel:     fmt.Sprintf("pipeline/w%dd%d/", workers, depth),
		// Same regime-matched models as oocCluster.
		Network: comm.LatencyModel{Latency: 200 * time.Microsecond, BytesPerSec: 100 << 20},
		Disk:    storage.DiskModel{Seek: 600 * time.Microsecond, BytesPerSec: 150 << 20},
	})
	if err != nil {
		return meshgen.Result{}, swapio.Stats{}, err
	}
	defer cl.Close()
	res, err := meshgen.RunOUPDR(cl, meshgen.UPDRConfig{Blocks: 8, TargetElements: size})
	if err != nil {
		return meshgen.Result{}, swapio.Stats{}, err
	}
	return res, cl.IOStats(), nil
}
