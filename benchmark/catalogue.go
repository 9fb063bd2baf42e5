package main

// The metric catalogue: every name the benchmark emits, fixed so later
// changes can refer to them verbatim. BENCHMARK.json lists the same names
// (catalogue_test.go holds the two together); README.md explains each.

// Workload names.
const (
	wOUPDR  = "oupdr-ooc"
	wONUPDR = "onupdr-incore"
	wOPCDM  = "opcdm-tiered"
	wChurn  = "swap-churn"
	wExport = "export-restore"
)

// workloadNames lists the workloads in run order.
var workloadNames = []string{wOUPDR, wONUPDR, wOPCDM, wChurn, wExport}

// workloadWhy records why each workload was chosen (one line each; the same
// text is in BENCHMARK.json).
var workloadWhy = map[string]string{
	wOUPDR:  "OUPDR on 2 nodes with a quarter of the mesh in memory over a modeled disk: the paper's out-of-core regime, where prefetch, eviction, mesh encode/decode and overlap decide the time",
	wONUPDR: "ONUPDR on 1 node x 2 workers with memory to spare: kernel, message dispatch and work stealing do all the work and the swap path none, so a swap-path change must show no change here",
	wOPCDM:  "OPCDM on 2 nodes over remote memory + tier + compression: asynchronous small messages and the whole placement stack that oupdr-ooc never touches",
	wChurn:  "closed loop of 2 clients touching 1024 synthetic objects (Zipf 1.1) with an eighth of them in memory and a trivial handler: the swap state machine, swapio, the blob store and bufpool do the work",
	wExport: "verify, restore onto 3 nodes and re-export a stored mesh: sequential appends and indexed reads of mesh frames through meshstore and flate, with refinement out of the loop",
}

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median an end-to-end metric may
	// worsen by before it counts as a regression; zero for per-layer metrics.
	Bound float64
	// On lists the workloads the metric is measured on; nil means all. A
	// per-layer metric reads 0 on the others.
	On []string
	// Timing marks an end-to-end metric the host disturbs one way only: a
	// run reports the best tenth of its samples, and of any other their
	// median.
	Timing bool
}

func (m metricDef) measuredOn(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd are the metrics a user of the system sees, each measured on every
// workload from untraced runs. The work item of work_per_s is a mesh element
// on the four mesh workloads and a touch on swap-churn. The bounds are as wide
// as the host demands: over three ten-seed sweeps within two hours the medians
// of wall_s moved by up to 17 % on oupdr-ooc and 28 % on export-restore with
// no change to the code, and the spread over seeds reached 15 % on
// opcdm-tiered.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Timing: true},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Timing: true},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Timing: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

var (
	meshWorkloads = []string{wOUPDR, wONUPDR, wOPCDM}
	onChurn       = []string{wChurn}
	onExport      = []string{wExport}
	onTiered      = []string{wOPCDM}
)

// perLayer are the metrics of single layers, prefixed by the module under
// internal/ they describe. They carry no bound.
var perLayer = []metricDef{
	// User-level numbers that exist on one workload only; the contract wants
	// every end-to-end metric on every workload, so they are reported here.
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", On: onChurn},
	{Name: "op_p99_ms", Unit: "ms", Better: "lower", On: onChurn},
	{Name: "verify_mb_s", Unit: "MB/s", Better: "higher", On: onExport},
	{Name: "restore_mb_s", Unit: "MB/s", Better: "higher", On: onExport},
	{Name: "export_mb_s", Unit: "MB/s", Better: "higher", On: onExport},

	// Counters read after every measured run (median over the runs).
	{Name: "core.comp_s", Unit: "s", Better: "lower"},
	{Name: "core.comm_s", Unit: "s", Better: "lower"},
	{Name: "core.disk_s", Unit: "s", Better: "lower"},
	{Name: "core.overlap_pct", Unit: "%", Better: "higher"},
	{Name: "core.msgs_sent", Unit: "count", Better: "lower"},
	{Name: "core.evict_stalls", Unit: "count", Better: "lower"},
	{Name: "core.objects_lost", Unit: "count", Better: "lower"},
	{Name: "core.swap_retries", Unit: "count", Better: "lower"},
	{Name: "ooc.evictions", Unit: "count", Better: "lower"},
	{Name: "ooc.loads", Unit: "count", Better: "lower"},
	{Name: "ooc.peak_mem_mb", Unit: "MB", Better: "lower"},
	{Name: "ooc.reload_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ooc.hit_ratio", Unit: "ratio", Better: "higher", On: onChurn},
	{Name: "swapio.demand_loads", Unit: "count", Better: "lower"},
	{Name: "swapio.prefetches", Unit: "count", Better: "higher"},
	{Name: "swapio.prefetch_share", Unit: "ratio", Better: "higher"},
	{Name: "swapio.cancelled", Unit: "count", Better: "lower"},
	{Name: "swapio.rejected", Unit: "count", Better: "lower"},
	{Name: "swapio.coalesced", Unit: "count", Better: "higher"},
	{Name: "swapio.demand_wait_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "swapio.demand_wait_max_ms", Unit: "ms", Better: "lower"},
	{Name: "swapio.max_queue_depth", Unit: "count", Better: "lower"},
	{Name: "swapio.bytes_read_mb", Unit: "MB", Better: "lower"},
	{Name: "swapio.bytes_written_mb", Unit: "MB", Better: "lower"},
	{Name: "storage.puts", Unit: "count", Better: "lower"},
	{Name: "storage.gets", Unit: "count", Better: "lower"},
	{Name: "storage.bytes_written_mb", Unit: "MB", Better: "lower"},
	{Name: "storage.bytes_read_mb", Unit: "MB", Better: "lower"},
	{Name: "storage.bytes_per_element", Unit: "B", Better: "lower", On: meshWorkloads},
	{Name: "tier.hit_pct", Unit: "%", Better: "higher", On: onTiered},
	{Name: "tier.spills", Unit: "count", Better: "lower", On: onTiered},
	{Name: "tier.demotions", Unit: "count", Better: "lower", On: onTiered},
	{Name: "tier.promotions", Unit: "count", Better: "higher", On: onTiered},
	{Name: "tier.compress_ratio", Unit: "ratio", Better: "higher", On: onTiered},
	{Name: "tier.cache_hit_pct", Unit: "%", Better: "higher", On: onTiered},
	{Name: "tier.codec_s", Unit: "s", Better: "lower", On: onTiered},
	{Name: "remotemem.puts", Unit: "count", Better: "lower", On: onTiered},
	{Name: "remotemem.gets", Unit: "count", Better: "lower", On: onTiered},
	{Name: "remotemem.rejected_puts", Unit: "count", Better: "lower", On: onTiered},
	{Name: "comm.msgs", Unit: "count", Better: "lower"},
	{Name: "comm.bytes_mb", Unit: "MB", Better: "lower"},
	{Name: "comm.forwards_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "comm.hops_mean", Unit: "count", Better: "lower"},
	{Name: "bufpool.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "meshstore.bytes_written_mb", Unit: "MB", Better: "lower", On: onExport},
	{Name: "meshstore.raw_mb", Unit: "MB", Better: "lower", On: onExport},
	{Name: "meshstore.compress_ratio", Unit: "ratio", Better: "higher", On: onExport},
	{Name: "meshstore.blocks_read", Unit: "count", Better: "lower", On: onExport},
	{Name: "meshgen.elements", Unit: "count", Better: "higher", On: []string{wOUPDR, wONUPDR, wOPCDM, wExport}},
	{Name: "meshgen.subdomains", Unit: "count", Better: "higher", On: []string{wOUPDR, wONUPDR, wOPCDM, wExport}},
	{Name: "cluster.new_s", Unit: "s", Better: "lower"},
	{Name: "cluster.close_s", Unit: "s", Better: "lower"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},

	// The traced run: durations summed per obs.Kind inside the run span.
	{Name: "core.handler_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.handler_count", Unit: "count", Better: "lower"},
	{Name: "core.handler_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "core.swap_load_s", Unit: "s", Better: "lower"},
	{Name: "core.swap_evict_s", Unit: "s", Better: "lower"},
	{Name: "core.swap_load_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "swapio.demand_wait_s", Unit: "s", Better: "lower"},
	{Name: "swapio.demand_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "comm.deliver_busy_s", Unit: "s", Better: "lower"},
	{Name: "comm.sends", Unit: "count", Better: "lower"},
	{Name: "sched.run_busy_s", Unit: "s", Better: "lower"},
	{Name: "sched.self_s", Unit: "s", Better: "lower"},
	{Name: "sched.steals", Unit: "count", Better: "higher"},
	{Name: "sched.idle_pct", Unit: "%", Better: "lower"},
	{Name: "obs.events", Unit: "count", Better: "lower"},
	{Name: "obs.dropped", Unit: "count", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},

	// The reference phase: the in-core build of the same input on 2 PEs.
	{Name: "meshgen.incore_wall_s", Unit: "s", Better: "lower", On: meshWorkloads},
	{Name: "meshgen.ooc_slowdown", Unit: "ratio", Better: "lower", On: meshWorkloads},

	// Layer probes: each layer's exported API driven directly.
	{Name: "mesh.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "mesh.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "mesh.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "mesh.encoded_bytes_per_elem", Unit: "B", Better: "lower"},
	{Name: "delaunay.refine_elems_per_s", Unit: "1/s", Better: "higher"},
	{Name: "delaunay.allocs_per_elem", Unit: "count", Better: "lower"},
	{Name: "storage.file_put_us", Unit: "us", Better: "lower"},
	{Name: "storage.file_get_us", Unit: "us", Better: "lower"},
	{Name: "storage.file_getbuf_us", Unit: "us", Better: "lower"},
	{Name: "storage.mapped_getbuf_us", Unit: "us", Better: "lower"},
	{Name: "storage.mem_put_us", Unit: "us", Better: "lower"},
	{Name: "storage.file_put_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "swapio.store_us", Unit: "us", Better: "lower"},
	{Name: "swapio.load_us", Unit: "us", Better: "lower"},
	{Name: "swapio.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "tier.put_us", Unit: "us", Better: "lower"},
	{Name: "tier.get_fast_us", Unit: "us", Better: "lower"},
	{Name: "tier.get_slow_us", Unit: "us", Better: "lower"},
	{Name: "tier.compress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "tier.decompress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "remotemem.put_us", Unit: "us", Better: "lower"},
	{Name: "remotemem.get_us", Unit: "us", Better: "lower"},
	{Name: "comm.inproc_rtt_us", Unit: "us", Better: "lower"},
	{Name: "comm.inproc_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "comm.tcp_rtt_us", Unit: "us", Better: "lower"},
	{Name: "comm.tcp_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.post_local_ns", Unit: "ns", Better: "lower"},
	{Name: "core.post_remote_us", Unit: "us", Better: "lower"},
	{Name: "sched.ws_spawn_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.gq_spawn_ns", Unit: "ns", Better: "lower"},
	{Name: "ooc.pick_victims_us", Unit: "us", Better: "lower"},
	{Name: "ooc.touch_ns", Unit: "ns", Better: "lower"},
	{Name: "bufpool.getput_ns", Unit: "ns", Better: "lower"},
	{Name: "meshstore.append_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "meshstore.payload_mb_s", Unit: "MB/s", Better: "higher"},
}

// lookupMetric finds a metric of either kind by name.
func lookupMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
