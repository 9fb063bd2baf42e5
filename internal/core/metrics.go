package core

import (
	"fmt"

	"mrts/internal/obs"
)

// PublishMetrics registers this runtime's observable state into reg under
// the given prefix (e.g. "node0."). It puts the time account (Report),
// ooc.Stats (residency and swap counts) and SwapStats (failure/retry
// counters), plus the transport and directory counters, behind the
// registry's uniform snapshot/delta semantics. Gauges read live state, so
// one registration covers the whole run.
func (rt *Runtime) PublishMetrics(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	// The time account: category times in seconds plus the derived overlap.
	reg.Gauge(prefix+"time.comp_sec", func() float64 { return rt.Report().Comp.Seconds() })
	reg.Gauge(prefix+"time.comm_sec", func() float64 { return rt.Report().Comm.Seconds() })
	reg.Gauge(prefix+"time.disk_sec", func() float64 { return rt.Report().Disk.Seconds() })
	reg.Gauge(prefix+"time.total_sec", func() float64 { return rt.Report().Total.Seconds() })
	reg.Gauge(prefix+"time.overlap_pct", func() float64 { return rt.Report().Overlap() })
	// ooc.Stats via the residency manager.
	mem := rt.mem
	reg.Gauge(prefix+"ooc.evictions", func() float64 { return float64(mem.Snapshot().Evictions) })
	reg.Gauge(prefix+"ooc.loads", func() float64 { return float64(mem.Snapshot().Loads) })
	reg.Gauge(prefix+"ooc.in_core", func() float64 { return float64(mem.Snapshot().InCore) })
	reg.Gauge(prefix+"ooc.out_of_core", func() float64 { return float64(mem.Snapshot().OutOfCore) })
	reg.Gauge(prefix+"ooc.mem_used", func() float64 { return float64(mem.MemUsed()) })
	reg.Gauge(prefix+"ooc.mem_budget", func() float64 { return float64(mem.Budget()) })
	reg.Gauge(prefix+"ooc.mem_peak", func() float64 { return float64(mem.Snapshot().PeakMemUsed) })
	// SwapStats: the hardened swap path's failure surface.
	reg.Gauge(prefix+"swap.retries", func() float64 { return float64(rt.SwapStats().Retries) })
	reg.Gauge(prefix+"swap.load_failures", func() float64 { return float64(rt.SwapStats().LoadFailures) })
	reg.Gauge(prefix+"swap.store_failures", func() float64 { return float64(rt.SwapStats().StoreFailures) })
	reg.Gauge(prefix+"swap.objects_lost", func() float64 { return float64(rt.SwapStats().ObjectsLost) })
	reg.Gauge(prefix+"swap.evict_stalls", func() float64 { return float64(rt.EvictStalls()) })
	// What the pipeline saved and what it still holds: evictions that wrote
	// nothing, demand loads that waited for admission, and the bytes
	// committed to eviction but not yet on the medium (now, and at most).
	reg.Gauge(prefix+"swap.clean_drops", func() float64 { return float64(rt.cleanDrops.Load()) })
	reg.Gauge(prefix+"swap.deferred_loads", func() float64 { return float64(rt.adm.deferred.Load()) })
	reg.Gauge(prefix+"swap.writeback_bytes", func() float64 { return float64(rt.writeback.Load()) })
	reg.Gauge(prefix+"swap.writeback_peak_bytes", func() float64 { return float64(rt.writebackPeak.Load()) })
	// The swap I/O scheduler: queue shape and pipeline behaviour.
	reg.Gauge(prefix+"swapio.queue_depth", func() float64 { return float64(rt.IOStats().QueueDepth) })
	reg.Gauge(prefix+"swapio.coalesced", func() float64 { return float64(rt.IOStats().Coalesced) })
	reg.Gauge(prefix+"swapio.cancelled", func() float64 { return float64(rt.IOStats().Cancelled) })
	reg.Gauge(prefix+"swapio.rejected", func() float64 { return float64(rt.IOStats().Rejected) })
	reg.Gauge(prefix+"swapio.demand_wait_ms", func() float64 {
		return float64(rt.IOStats().DemandWaitMean().Microseconds()) / 1000
	})
	// Control-layer message accounting and directory behaviour.
	reg.Gauge(prefix+"msg.work", func() float64 { return float64(rt.Work()) })
	reg.Gauge(prefix+"msg.sent", func() float64 { return float64(rt.SentCount()) })
	reg.Gauge(prefix+"msg.recv", func() float64 { return float64(rt.RecvCount()) })
	reg.Gauge(prefix+"core.migrate_parked", func() float64 { return float64(rt.movesParked.Load()) })
	reg.Gauge(prefix+"dir.forwarded", func() float64 { return float64(rt.ForwardedCount()) })
	reg.Gauge(prefix+"dir.updates_sent", func() float64 { return float64(rt.DirUpdatesSent()) })
	// Routing surface: drops at the hop bound and the delivered-message hop
	// histogram.
	reg.Gauge(prefix+"route.dropped", func() float64 { return float64(rt.RouteDropped()) })
	reg.Gauge(prefix+"route.hops_mean", func() float64 { return rt.RouteHopsMean() })
	for b := 1; b <= hopBuckets; b++ {
		b := b
		name := fmt.Sprintf("route.hops_%d", b)
		if b == hopBuckets {
			name = fmt.Sprintf("route.hops_%dplus", b)
		}
		reg.Gauge(prefix+name, func() float64 { return float64(rt.RouteHopHistogram()[b-1]) })
	}
	// Transport counters.
	ep := rt.ep
	reg.Gauge(prefix+"comm.msgs_sent", func() float64 { return float64(ep.Stats().MsgsSent) })
	reg.Gauge(prefix+"comm.msgs_received", func() float64 { return float64(ep.Stats().MsgsReceived) })
	reg.Gauge(prefix+"comm.bytes_sent", func() float64 { return float64(ep.Stats().BytesSent) })
	reg.Gauge(prefix+"comm.bytes_received", func() float64 { return float64(ep.Stats().BytesReceived) })
}
