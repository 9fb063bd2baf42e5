package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mrts/internal/bufpool"
	"mrts/internal/cluster"
	"mrts/internal/comm"
	"mrts/internal/meshstore"
	"mrts/internal/obs"
	"mrts/internal/storage"
)

// sizes fixes how much work each workload does. Load is sized for 2 cores
// and does not scale with the host: every cluster has 2 PEs (export-restore
// restores onto 3 single-worker nodes) and every closed loop has 2 clients.
type sizes struct {
	oupdrTarget, oupdrBlocks   int
	onupdrTarget               int
	opcdmTarget, opcdmGrid     int
	exportTarget, exportBlocks int
	exportCycles               int // verify+restore+export cycles per run
	// warmTarget is the size of the warm-up pass each mesh workload's
	// set-up runs through a throwaway cluster before the measured run.
	warmTarget int

	churnObjects       int
	churnMinB          int // payload sizes are drawn from [churnMinB, churnMaxB)
	churnMaxB          int
	churnWarm          int // untimed touches before the measured ones
	churnOps           int // measured touches, a multiple of churnClient*churnSegments
	churnSegments      int // separately timed parts of the measured touches
	probeBudget        time.Duration
	probeRefineElems   int
	probeVictimObjects int
	// traceCap is each tracer's ring capacity on a traced run, sized so no
	// event is dropped.
	traceCap int
}

var fullSizes = sizes{
	oupdrTarget: 1_500_000, oupdrBlocks: 16,
	onupdrTarget: 1_800_000,
	opcdmTarget:  2_000_000, opcdmGrid: 8,
	exportTarget: 1_000_000, exportBlocks: 16, exportCycles: 3,
	warmTarget:   60_000,
	churnObjects: 1024, churnMinB: 32 << 10, churnMaxB: 96 << 10,
	churnWarm: 30_000, churnOps: 120_000, churnSegments: 12,
	probeBudget: 150 * time.Millisecond, probeRefineElems: 200_000, probeVictimObjects: 4096,
	traceCap: 1 << 20,
}

// quickSizes run every workload and probe in a few seconds for the smoke
// test; their numbers mean nothing.
var quickSizes = sizes{
	oupdrTarget: 60_000, oupdrBlocks: 8,
	onupdrTarget: 60_000,
	opcdmTarget:  120_000, opcdmGrid: 4,
	exportTarget: 60_000, exportBlocks: 8, exportCycles: 2,
	warmTarget:   10_000,
	churnObjects: 128, churnMinB: 4 << 10, churnMaxB: 12 << 10,
	churnWarm: 500, churnOps: 3_000, churnSegments: 3,
	probeBudget: 10 * time.Millisecond, probeRefineElems: 20_000, probeVictimObjects: 1024,
	traceCap: 1 << 17,
}

// bytesPerElement is the serialized footprint of one mesh element that the
// memory budgets are expressed in (the figure internal/bench uses).
const bytesPerElement = 22

// The modeled media of the mesh workloads: disk cost comes from the repo's
// own service-time model, not from the sandbox's block device.
var (
	modelNetwork = comm.LatencyModel{Latency: 200 * time.Microsecond, BytesPerSec: 100 << 20}
	modelDisk    = storage.DiskModel{Seek: 600 * time.Microsecond, BytesPerSec: 150 << 20}
)

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	// run sets up and executes one measured run. A non-nil sink makes it a
	// traced run. An error means the benchmark itself could not run; a run
	// the program under test got wrong is reported in the result instead.
	run func(e env, log *spanLog, sink *obs.TraceSink) (*runResult, error)
	// reference computes what the measured runs are checked against, nil
	// when the run checks itself.
	reference func(e env) (*refResult, error)
}

var workloads = map[string]workloadDef{
	wOUPDR:  {run: oupdrCase.run, reference: oupdrCase.reference},
	wONUPDR: {run: onupdrCase.run, reference: onupdrCase.reference},
	wOPCDM:  {run: opcdmCase.run, reference: opcdmCase.reference},
	wChurn:  {run: runChurn},
	wExport: {run: runExport},
}

// spoolDir decides the spool medium of every cluster the benchmark builds
// and returns its SpoolDir: a fresh directory when the spool parent is on a
// tmpfs (or the caller insists on files), "" for the cluster's memory store
// (under the same modeled latency) otherwise. A file spool on a block
// device measures the host. On the ext4 volume this was written on,
// file-per-blob write-then-rename costs 0.2 ms and drifts with the journal's
// and the device's state: the same 16 000 swap-churn touches took between
// 1.2 s and 2.6 s in back-to-back runs (0.48-0.52 s on tmpfs), and oupdr-ooc
// crept from 2.8 s to 3.7 s over ten invocations while onupdr-incore, which
// never spools, stayed flat. No repetition inside one run averages that out.
func spoolDir(e env, forceFiles bool) (dir string, cleanup func(), err error) {
	if err := os.MkdirAll(e.spool, 0o755); err != nil {
		return "", nil, err
	}
	if fs := filesystemOf(e.spool); fs != "tmpfs" && !forceFiles {
		fmt.Fprintf(os.Stderr, "benchmark: spool directory is on %s, not tmpfs: spooling to the memory store\n", fs)
		return "", func() {}, nil
	}
	return scratchDir(e, "spool-")
}

// under names a subdirectory of a spool directory; the memory store ("") has
// none.
func under(spool, name string) string {
	if spool == "" {
		return ""
	}
	return filepath.Join(spool, name)
}

// scratchDir makes a fresh directory under the spool parent and returns it
// with its removal.
func scratchDir(e env, prefix string) (string, func(), error) {
	if err := os.MkdirAll(e.spool, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(e.spool, prefix)
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// bufpoolDelta reports the buffer arena's hit ratio between two readings of
// its process-wide counters.
func bufpoolDelta(into map[string]float64, before, after bufpool.Stats) {
	hits := float64(after.Hits - before.Hits)
	misses := float64(after.Misses - before.Misses)
	into["bufpool.hit_ratio"] = ratio(hits, hits+misses)
}

// meshstoreDelta reports the mesh store's traffic between two readings of
// its process-wide counters.
func meshstoreDelta(into map[string]float64, before, after meshstore.Stats) {
	written := after.BytesWritten - before.BytesWritten
	raw := after.RawBytes - before.RawBytes
	into["meshstore.bytes_written_mb"] = mb(written)
	into["meshstore.raw_mb"] = mb(raw)
	into["meshstore.compress_ratio"] = ratio(float64(raw), float64(written))
	into["meshstore.blocks_read"] = float64(after.BlocksRead - before.BlocksRead)
}

// clusterCounters reads every public counter of a cluster after a run.
func clusterCounters(into map[string]float64, cl *cluster.Cluster) {
	rep := cl.Report()
	into["core.comp_s"] = rep.Comp.Seconds()
	into["core.comm_s"] = rep.Comm.Seconds()
	into["core.disk_s"] = rep.Disk.Seconds()
	into["core.overlap_pct"] = rep.Overlap()

	reg := cl.Metrics()
	var msgsSent, evictStalls, commMsgs, commBytes float64
	for i := 0; i < cl.Nodes(); i++ {
		node := fmt.Sprintf("node%d.", i)
		msgsSent += reg[node+"msg.sent"]
		evictStalls += reg[node+"swap.evict_stalls"]
		commMsgs += reg[node+"comm.msgs_sent"]
		commBytes += reg[node+"comm.bytes_sent"]
	}
	swap := cl.SwapStats()
	into["core.msgs_sent"] = msgsSent
	into["core.evict_stalls"] = evictStalls
	into["core.objects_lost"] = float64(swap.ObjectsLost)
	into["core.swap_retries"] = float64(swap.Retries)

	mem := cl.MemStats()
	into["ooc.evictions"] = float64(mem.Evictions)
	into["ooc.loads"] = float64(mem.Loads)
	into["ooc.peak_mem_mb"] = mb(mem.PeakMemUsed)
	into["ooc.reload_ratio"] = ratio(float64(mem.Loads), float64(mem.Evictions))

	io := cl.IOStats()
	into["swapio.demand_loads"] = float64(io.DemandLoads)
	into["swapio.prefetches"] = float64(io.Prefetches)
	into["swapio.prefetch_share"] = ratio(float64(io.CompletedPrefetch), float64(io.CompletedPrefetch+io.CompletedDemand))
	into["swapio.cancelled"] = float64(io.Cancelled)
	into["swapio.rejected"] = float64(io.Rejected)
	into["swapio.coalesced"] = float64(io.Coalesced)
	into["swapio.demand_wait_mean_ms"] = float64(io.DemandWaitMean()) / 1e6
	into["swapio.demand_wait_max_ms"] = float64(io.DemandWaitMax) / 1e6
	into["swapio.max_queue_depth"] = float64(io.MaxQueueDepth)
	into["swapio.bytes_read_mb"] = mb(io.BytesRead)
	into["swapio.bytes_written_mb"] = mb(io.BytesWritten)

	disk := cl.DiskStats()
	into["storage.puts"] = float64(disk.Puts)
	into["storage.gets"] = float64(disk.Gets)
	into["storage.bytes_written_mb"] = mb(disk.BytesWritten)
	into["storage.bytes_read_mb"] = mb(disk.BytesRead)

	if len(cl.Tiers()) > 0 {
		ts := cl.TierStats()
		into["tier.hit_pct"] = 100 * ts.HitRatio()
		into["tier.spills"] = float64(ts.Spills)
		into["tier.demotions"] = float64(ts.Demotions)
		into["tier.promotions"] = float64(ts.Promotions)
		cs, _ := cl.CompressStats()
		into["tier.compress_ratio"] = cs.Ratio()
		into["tier.cache_hit_pct"] = 100 * cs.CacheHitRatio()
		into["tier.codec_s"] = float64(cs.EncodeNanos+cs.DecodeNanos) / 1e9
	}
	if srv := cl.MemoryServer(); srv != nil {
		st := srv.Stats()
		into["remotemem.puts"] = float64(st.Puts)
		into["remotemem.gets"] = float64(st.Gets)
		into["remotemem.rejected_puts"] = float64(st.RejectedPuts)
	}

	route := cl.RouteStats()
	into["comm.msgs"] = commMsgs
	into["comm.bytes_mb"] = commBytes / (1 << 20)
	into["comm.forwards_per_msg"] = ratio(float64(route.Forwarded), msgsSent)
	into["comm.hops_mean"] = route.HopsMean
}

// measure runs the measured unit inside a "run" span (handed to unit as the
// parent of any spans of its own) and records the span's duration as the
// run's wall time, what the process used meanwhile and its peak RSS after.
func measure(r *runResult, log *spanLog, unit func(runSpan int)) (runSpan int, err error) {
	pool, proc := bufpool.Snapshot(), takeProcSnapshot()
	runSpan = log.begin("run", 0)
	unit(runSpan)
	r.WallS = log.end(runSpan).Seconds()
	procDelta(r.Layer, proc, takeProcSnapshot())
	bufpoolDelta(r.Layer, pool, bufpool.Snapshot())
	r.PeakRSSMB, err = peakRSSMB()
	return runSpan, err
}

// finishCluster reads the cluster's counters after a run, the span metrics
// too when the run was traced, and closes the cluster, timing that.
func finishCluster(r *runResult, cl *cluster.Cluster, log *spanLog, sink *obs.TraceSink, runSpan int) {
	clusterCounters(r.Layer, cl)
	if sink != nil {
		traceMetrics(r.Layer, sink, log.interval(runSpan), cl.PEs())
	}
	t := time.Now()
	cl.Close()
	r.Layer["cluster.close_s"] = time.Since(t).Seconds()
}
