// Package cluster assembles simulated clusters: N MRTS nodes inside one
// process, each with its own memory budget, task pool (PEs), spool store and
// tracer, wired by an in-process one-sided transport with a
// configurable network model. It also hosts the batch-queue simulator used
// to reproduce Figure 1 of the paper.
package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"mrts/internal/clock"
	"mrts/internal/comm"
	"mrts/internal/core"
	"mrts/internal/obs"
	"mrts/internal/ooc"
	"mrts/internal/remotemem"
	"mrts/internal/sched"
	"mrts/internal/storage"
	"mrts/internal/swapio"
	"mrts/internal/tier"
)

// SchedulerKind selects the computing layer implementation (Table VII).
type SchedulerKind string

// Available computing-layer schedulers.
const (
	WorkStealing SchedulerKind = "workstealing" // TBB-like
	GlobalQueue  SchedulerKind = "globalqueue"  // GCD-like
)

// Config describes a simulated cluster.
type Config struct {
	// Nodes is the number of simulated nodes.
	Nodes int
	// WorkersPerNode is the PE count per node (pool workers). <= 0 means 1.
	WorkersPerNode int
	// MemBudget is the per-node memory budget in bytes for mobile objects.
	MemBudget int64
	// Policy is the eviction policy (default LRU).
	Policy ooc.Policy
	// Network is the latency model of the inter-node transport.
	Network comm.LatencyModel
	// Disk, when non-zero, injects a service-time model into each node's
	// store (one simulated spindle per node).
	Disk storage.DiskModel
	// SpoolDir, when non-empty, uses real files under
	// SpoolDir/node<i>/ as the storage backend; otherwise memory-backed
	// stores are used.
	SpoolDir string
	// RemoteMemory, when true, implements the paper's "memory of remote
	// nodes as out-of-core media" configuration: one extra node joins the
	// transport as a dedicated memory server, and every compute node's
	// storage layer reaches it over one-sided messages as tier 0 in front
	// of its ordinary SpoolDir/Disk store.
	RemoteMemory bool
	// Tier shapes the hierarchy RemoteMemory builds (internal/tier): remote
	// memory is a leased fast tier over the local disk store, which keeps
	// its full LatencyClock/FaultStore stack. Nil means an unbounded lease,
	// so nothing reaches the disk. Ignored without RemoteMemory.
	Tier *TierSpec
	// Scheduler selects the task scheduler flavor (default WorkStealing).
	Scheduler SchedulerKind
	// Directory selects the paper's location-management policy on every
	// node; the zero value is DirLazy, the paper's choice.
	Directory core.DirectoryPolicy
	// Factory constructs application objects on reload/migration.
	Factory core.Factory
	// IOWorkers per node (<= 0 means 2).
	IOWorkers int
	// PrefetchDepth bounds how many speculative loads each node keeps in
	// flight (<= 0 means 2).
	PrefetchDepth int
	// Retry is each node's storage retry policy: transient I/O faults are
	// absorbed with backoff inside the swap I/O scheduler before they can
	// reach the swap path. Zero value = single attempt.
	Retry storage.RetryPolicy
	// Fault, when non-nil, wraps every node's store in a deterministic
	// fault-injecting layer (the node index is folded into the seed so the
	// nodes draw independent but reproducible fault sequences).
	Fault *storage.FaultConfig
	// OnSwapError, when non-nil, is installed on every node and receives
	// swap-path failures that survived the retry budget.
	OnSwapError func(node int, e core.SwapError)
	// Trace, when non-nil, enables structured event tracing: every node's
	// tracer — installed on its endpoint, task pool and runtime, and always
	// there for the time account — is drawn from this sink (so timelines
	// across nodes, and across clusters sharing the sink, align) and records
	// events. Export with obs.WriteChromeTrace.
	Trace *obs.TraceSink
	// TraceLabel prefixes the per-node tracer labels (e.g. "fig8/" makes
	// "fig8/node0"), distinguishing clusters that share one sink.
	TraceLabel string
	// Clock is the shared time source of every layer in the cluster:
	// transport delivery delays, disk service times, retry backoff,
	// termination probing. Nil means the wall clock; the simulation harness
	// injects a virtual clock so modeled latencies cost no real time.
	Clock clock.Clock
	// Seed derives every node's deterministic randomness: work-stealing
	// victim selection (Seed + node*65537), retry jitter and fault injection
	// (node-folded inside their layers). Zero is a valid fixed seed; two
	// clusters built with the same Config replay the same random choices.
	Seed int64
	// NodeDisk, when non-nil, overrides Disk per node — the hook the
	// simulation harness uses to model one slow node. Nodes with a zero
	// model get no latency wrapper.
	NodeDisk func(node int) storage.DiskModel
}

// TierSpec configures the tiered storage hierarchy of a RemoteMemory
// cluster.
type TierSpec struct {
	// Capacity is each node's tier-0 byte lease: 0 disables the fast tier
	// (pure disk), < 0 means unbounded. The memory server's own cap is the
	// sum of the node leases.
	Capacity int64
	// Compress, when non-nil, enables the transparent compression layer
	// (tier 0.5) on every node: disk-bound blobs are plane-coded and a
	// byte-capped RAM cache of compressed frames fronts the disk. See
	// tier.CompressConfig.
	Compress *CompressSpec
	// Fault, when non-nil, wraps the remote-memory tier in a deterministic
	// fault injector (node-folded seed) — the knob the simulation harness
	// uses to storm tier 0 while the disk tier stays healthy.
	Fault *storage.FaultConfig
}

// CompressSpec configures each node's tier-0.5 compression layer.
type CompressSpec struct {
	// CacheBytes caps the per-node RAM cache of compressed frames
	// (0 disables the cache; compression still applies).
	CacheBytes int64
}

// Cluster is a set of wired MRTS nodes.
type Cluster struct {
	cfg     Config
	tr      *comm.InProcTransport
	pools   []sched.Pool
	tracers []*obs.Tracer
	tiers   []*tier.Store
	memsrv  *remotemem.Server
	clk     clock.Clock

	// nmu guards the per-node slots that churn operations replace or flag
	// (a restarted node gets a fresh runtime and store in the same slot)
	// against readers like the simulator's continuous invariant sweep.
	nmu      sync.RWMutex
	rts      []*core.Runtime
	bases    []storage.Store // each node's bottom-most (disk-level) store, for DiskStats
	inactive []bool          // node has left (drained) or crashed
	ckpts    []storage.Store // crash checkpoints awaiting RestartNode

	rebalanced atomic.Int64 // objects moved by churn rebalancing
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least 1 node")
	}
	if cfg.WorkersPerNode <= 0 {
		cfg.WorkersPerNode = 1
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = WorkStealing
	}
	endpoints := cfg.Nodes
	if cfg.RemoteMemory {
		endpoints++ // the memory server node
		if cfg.Tier == nil {
			cfg.Tier = &TierSpec{Capacity: -1}
		}
	}
	clk := clock.Or(cfg.Clock)
	c := &Cluster{cfg: cfg, tr: comm.NewInProcClock(endpoints, cfg.Network, clk), clk: clk}
	if cfg.RemoteMemory {
		ep := c.tr.Endpoint(comm.NodeID(cfg.Nodes))
		if cfg.Tier.Capacity > 0 {
			// The donor enforces the sum of the node leases: even a buggy
			// tier client cannot overrun the donated budget.
			c.memsrv = remotemem.NewServerCap(ep, cfg.Tier.Capacity*int64(cfg.Nodes))
		} else {
			c.memsrv = remotemem.NewServer(ep)
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		var pool sched.Pool
		switch cfg.Scheduler {
		case GlobalQueue:
			pool = sched.NewGlobalQueue(cfg.WorkersPerNode)
		default:
			pool = sched.NewWorkStealingSeeded(cfg.WorkersPerNode, cfg.Seed+int64(i)*65537)
		}
		// One tracer per node, on the cluster's clock, wired into all three
		// layers: it is the node's time account, and with a sink also its
		// event ring.
		tracer := cfg.Trace.NewTracer(fmt.Sprintf("%snode%d", cfg.TraceLabel, i), clk)
		pool.SetTracer(tracer)
		c.tr.Endpoint(comm.NodeID(i)).SetTracer(tracer)
		c.pools = append(c.pools, pool)
		c.tracers = append(c.tracers, tracer)
		// The disk (or backstop) store keeps its full latency + fault stack
		// even when remote memory fronts it — the service-time model is part
		// of the tier, not an alternative to it.
		st, raw, err := c.nodeBaseStore(i)
		if err != nil {
			c.Close()
			return nil, err
		}
		// Keep the raw bottom store before any wrappers: DiskStats reads
		// bytes at the media level, where the compression layer's savings
		// are visible.
		c.bases = append(c.bases, raw)
		if cfg.RemoteMemory {
			var fast storage.Store
			if cfg.Tier.Capacity != 0 {
				fast = remotemem.NewClient(c.tr.Endpoint(comm.NodeID(i)), comm.NodeID(cfg.Nodes))
				if cfg.Tier.Fault != nil {
					fc := *cfg.Tier.Fault
					// A different fold than the disk tier's so the two
					// fault sequences decorrelate.
					fc.Seed += int64(i)*7919 + 3571
					fast = storage.NewFault(fast, fc)
				}
			}
			var compress *tier.CompressConfig
			if cfg.Tier.Compress != nil {
				compress = &tier.CompressConfig{CacheBytes: cfg.Tier.Compress.CacheBytes}
			}
			ts, err := tier.New(tier.Config{
				Fast:     fast,
				Slow:     st,
				Capacity: cfg.Tier.Capacity,
				Compress: compress,
				Retry:    c.nodeRetry(i),
				Tracer:   tracer,
				Clock:    cfg.Clock,
			})
			if err != nil {
				c.Close()
				return nil, err
			}
			c.tiers = append(c.tiers, ts)
			st = ts
		}
		c.rts = append(c.rts, core.NewRuntime(c.nodeConfig(i, st)))
	}
	c.inactive = make([]bool, cfg.Nodes)
	c.ckpts = make([]storage.Store, cfg.Nodes)
	return c, nil
}

// nodeRetry is node i's storage retry policy: the cluster's, on the
// cluster's clock, with the node index folded into the jitter seed so
// concurrent retriers decorrelate while staying reproducible from
// Config.Seed.
func (c *Cluster) nodeRetry(i int) storage.RetryPolicy {
	retry := c.cfg.Retry
	if retry.Clock == nil {
		retry.Clock = c.cfg.Clock
	}
	retry.Seed += c.cfg.Seed + int64(i)*7919
	return retry
}

// nodeConfig assembles the runtime configuration of node i over store st,
// on the node's endpoint, pool and tracer. New and RestartNode both build
// from it, so a relaunched node is configured exactly like its old
// incarnation.
func (c *Cluster) nodeConfig(i int, st storage.Store) core.Config {
	cc := core.Config{
		Endpoint:      c.tr.Endpoint(comm.NodeID(i)),
		Pool:          c.pools[i],
		Factory:       c.cfg.Factory,
		Mem:           ooc.Config{Budget: c.cfg.MemBudget, Policy: c.cfg.Policy},
		Store:         st,
		IOWorkers:     c.cfg.IOWorkers,
		PrefetchDepth: c.cfg.PrefetchDepth,
		Retry:         c.nodeRetry(i),
		Tracer:        c.tracers[i],
		Clock:         c.cfg.Clock,
		Directory:     c.cfg.Directory,
		NumNodes:      c.cfg.Nodes,
	}
	if hook := c.cfg.OnSwapError; hook != nil {
		cc.OnSwapError = func(e core.SwapError) { hook(i, e) }
	}
	return cc
}

// nodeBaseStore builds node i's bottom-level store stack, the one under the
// tier when RemoteMemory is set: the raw media store (file under SpoolDir or
// memory), wrapped by the modeled disk latency and the deterministic fault
// layer. It returns the
// wrapped store plus the raw media store (kept for DiskStats), and is also
// how RestartNode gives a restarted node a fresh stack in the same slot.
func (c *Cluster) nodeBaseStore(i int) (wrapped, raw storage.Store, err error) {
	disk := c.cfg.Disk
	if c.cfg.NodeDisk != nil {
		disk = c.cfg.NodeDisk(i)
	}
	var base storage.Store
	if c.cfg.SpoolDir != "" {
		fs, err := storage.NewFile(filepath.Join(c.cfg.SpoolDir, fmt.Sprintf("node%d", i)))
		if err != nil {
			return nil, nil, err
		}
		base = fs
	} else {
		base = storage.NewMem()
	}
	raw = base
	if disk.Seek > 0 || disk.BytesPerSec > 0 {
		base = storage.NewLatencyClock(base, disk, c.clk)
	}
	if c.cfg.Fault != nil {
		fc := *c.cfg.Fault
		fc.Seed += int64(i) * 7919
		base = storage.NewFault(base, fc)
	}
	return base, raw, nil
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.rts) }

// PEs returns the total processing element count (nodes × workers).
func (c *Cluster) PEs() int { return len(c.rts) * c.cfg.WorkersPerNode }

// RT returns node i's runtime (the current one, if the node was restarted).
func (c *Cluster) RT(i int) *core.Runtime {
	c.nmu.RLock()
	defer c.nmu.RUnlock()
	return c.rts[i]
}

// Runtimes returns a snapshot of all runtimes. Slots of restarted nodes
// change between calls; callers iterate the snapshot, not the live slice.
func (c *Cluster) Runtimes() []*core.Runtime {
	c.nmu.RLock()
	defer c.nmu.RUnlock()
	out := make([]*core.Runtime, len(c.rts))
	copy(out, c.rts)
	return out
}

// MemoryServer returns the remote-memory server when the cluster was built
// with RemoteMemory, else nil.
func (c *Cluster) MemoryServer() *remotemem.Server { return c.memsrv }

// Tiers returns the per-node tiered stores when the cluster was built with
// RemoteMemory, else an empty slice.
func (c *Cluster) Tiers() []*tier.Store { return c.tiers }

// TierStats aggregates the tier counters across nodes (counters and gauges
// sum; HitRatio of the sum is the cluster-wide tier-0 hit ratio).
func (c *Cluster) TierStats() tier.Stats {
	var out tier.Stats
	for _, ts := range c.tiers {
		out.Add(ts.Snapshot())
	}
	return out
}

// CompressStats aggregates the tier-0.5 counters across nodes. ok is false
// when no node has a compression layer.
func (c *Cluster) CompressStats() (stats tier.CompressStats, ok bool) {
	for _, ts := range c.tiers {
		if s, has := ts.CompressStats(); has {
			stats.Add(s)
			ok = true
		}
	}
	return stats, ok
}

// DiskStats aggregates the bottom-most (media-level) store counters across
// nodes. Bytes here are what actually hit the disk store — below the
// compression layer, so tier-0.5 savings show as a drop. Nodes whose bottom
// store does not count traffic contribute zero.
func (c *Cluster) DiskStats() storage.Stats {
	var out storage.Stats
	c.nmu.RLock()
	bases := make([]storage.Store, len(c.bases))
	copy(bases, c.bases)
	c.nmu.RUnlock()
	for _, st := range bases {
		if sr, ok := st.(storage.StatsReader); ok {
			s := sr.Stats()
			out.Puts += s.Puts
			out.Gets += s.Gets
			out.Deletes += s.Deletes
			out.BytesWritten += s.BytesWritten
			out.BytesRead += s.BytesRead
		}
	}
	return out
}

// Wait blocks until the whole cluster is quiescent — the paper's
// termination condition ("no message handlers executing and no messages
// traveling").
func (c *Cluster) Wait() { core.WaitQuiescence(c.Runtimes()...) }

// Report merges the nodes' time accounts: categories sum across nodes and
// Total is wall × PEs, on the cluster's clock. A node's account belongs to
// its tracer, so it carries on across a RestartNode.
func (c *Cluster) Report() obs.Report {
	reports := make([]obs.Report, len(c.tracers))
	for i, tr := range c.tracers {
		reports[i] = tr.Report(c.cfg.WorkersPerNode)
	}
	return obs.Merge(reports...)
}

// MemStats aggregates the OOC statistics across nodes.
func (c *Cluster) MemStats() ooc.Stats {
	var out ooc.Stats
	for _, rt := range c.Runtimes() {
		s := rt.Mem().Snapshot()
		out.Evictions += s.Evictions
		out.Loads += s.Loads
		out.InCore += s.InCore
		out.OutOfCore += s.OutOfCore
		out.MemUsed += s.MemUsed
		out.MemBudget += s.MemBudget
		out.PeakMemUsed += s.PeakMemUsed
	}
	return out
}

// PublishMetrics registers every node's runtime metrics into reg under
// "node<i>." prefixes, plus cluster-level aggregates under "cluster.".
// This is the unified registry view: one snapshot covers the time
// accounts, the ooc layer and the swap-failure counters of all nodes.
func (c *Cluster) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for i, rt := range c.rts {
		rt.PublishMetrics(reg, fmt.Sprintf("node%d.", i))
	}
	reg.Gauge("cluster.nodes", func() float64 { return float64(len(c.rts)) })
	reg.Gauge("cluster.pes", func() float64 { return float64(c.PEs()) })
	reg.Gauge("cluster.evictions", func() float64 { return float64(c.MemStats().Evictions) })
	reg.Gauge("cluster.loads", func() float64 { return float64(c.MemStats().Loads) })
	reg.Gauge("cluster.retries", func() float64 { return float64(c.SwapStats().Retries) })
	reg.Gauge("cluster.objects_lost", func() float64 { return float64(c.SwapStats().ObjectsLost) })
	reg.Gauge("cluster.overlap_pct", func() float64 { return c.Report().Overlap() })
	reg.Gauge("cluster.disk_pct", func() float64 { r := c.Report(); return r.Percent(r.Disk) })
	reg.Gauge("cluster.coalesced", func() float64 { return float64(c.IOStats().Coalesced) })
	reg.Gauge("cluster.cancelled", func() float64 { return float64(c.IOStats().Cancelled) })
	reg.Gauge("cluster.demand_wait_ms", func() float64 {
		return float64(c.IOStats().DemandWaitMean().Microseconds()) / 1000
	})
	reg.Gauge("cluster.active_nodes", func() float64 { return float64(c.ActiveNodes()) })
	reg.Gauge("cluster.rebalanced_objects", func() float64 { return float64(c.rebalanced.Load()) })
	reg.Gauge("cluster.route.forwarded", func() float64 { return float64(c.RouteStats().Forwarded) })
	reg.Gauge("cluster.route.dropped", func() float64 { return float64(c.RouteStats().Dropped) })
	reg.Gauge("cluster.route.hops_mean", func() float64 { return c.RouteStats().HopsMean })
	if len(c.tiers) > 0 {
		reg.Gauge("cluster.tier0_hit_pct", func() float64 { return c.TierStats().HitRatio() * 100 })
		reg.Gauge("cluster.tier.fast_bytes", func() float64 { return float64(c.TierStats().FastBytes) })
		reg.Gauge("cluster.tier.spills", func() float64 { return float64(c.TierStats().Spills) })
		reg.Gauge("cluster.tier.demotions", func() float64 { return float64(c.TierStats().Demotions) })
		if _, ok := c.CompressStats(); ok {
			reg.Gauge("cluster.tier05.ratio", func() float64 {
				s, _ := c.CompressStats()
				return s.Ratio()
			})
			reg.Gauge("cluster.tier05.hit_pct", func() float64 {
				s, _ := c.CompressStats()
				return s.CacheHitRatio() * 100
			})
			reg.Gauge("cluster.tier05.stored_bytes", func() float64 {
				s, _ := c.CompressStats()
				return float64(s.StoredBytes)
			})
			reg.Gauge("cluster.disk.bytes_moved", func() float64 {
				d := c.DiskStats()
				return float64(d.BytesWritten + d.BytesRead)
			})
		}
		for i, ts := range c.tiers {
			ts := ts
			reg.Gauge(fmt.Sprintf("node%d.tier.fast_bytes", i), func() float64 {
				return float64(ts.Snapshot().FastBytes)
			})
		}
	}
}

// Metrics returns a one-shot unified snapshot of the cluster's metrics, a
// convenience wrapper over PublishMetrics for harness code that does not
// keep a registry around.
func (c *Cluster) Metrics() obs.Snapshot {
	reg := obs.NewRegistry()
	c.PublishMetrics(reg)
	return reg.Snapshot()
}

// IOStats aggregates the swap I/O scheduler statistics across nodes
// (counters sum; high-water marks take the per-node maximum).
func (c *Cluster) IOStats() swapio.Stats {
	var out swapio.Stats
	for _, rt := range c.Runtimes() {
		out.Add(rt.IOStats())
	}
	return out
}

// RouteStats aggregates the routing counters across nodes: forwarding
// traffic, directory updates, loud drops and the cluster-wide mean hop count
// of delivered remote messages.
type RouteStats struct {
	Forwarded  int64
	DirUpdates int64
	Dropped    int64
	HopsMean   float64
}

// RouteStats aggregates routing counters across nodes (hop means weighted by
// each node's delivered-message count).
func (c *Cluster) RouteStats() RouteStats {
	var out RouteStats
	var hopSum float64
	var hopN int64
	for _, rt := range c.Runtimes() {
		out.Forwarded += rt.ForwardedCount()
		out.DirUpdates += rt.DirUpdatesSent()
		out.Dropped += rt.RouteDropped()
		var n int64
		for _, b := range rt.RouteHopHistogram() {
			n += b
		}
		hopSum += rt.RouteHopsMean() * float64(n)
		hopN += n
	}
	if hopN > 0 {
		out.HopsMean = hopSum / float64(hopN)
	}
	return out
}

// SwapStats aggregates the swap-failure statistics across nodes.
func (c *Cluster) SwapStats() core.SwapStats {
	var out core.SwapStats
	for _, rt := range c.Runtimes() {
		s := rt.SwapStats()
		out.LoadFailures += s.LoadFailures
		out.StoreFailures += s.StoreFailures
		out.Retries += s.Retries
		out.ObjectsLost += s.ObjectsLost
	}
	return out
}

// Close shuts everything down: runtimes (waiting for swap ops), pools and
// the transport.
func (c *Cluster) Close() {
	for _, rt := range c.Runtimes() {
		if rt != nil {
			rt.Close()
		}
	}
	for _, p := range c.pools {
		if p != nil {
			p.Close()
		}
	}
	if c.tr != nil {
		c.tr.Close()
	}
}

// TempSpoolDir creates a throwaway spool directory for out-of-core runs and
// returns it with a cleanup function.
func TempSpoolDir(prefix string) (string, func(), error) {
	dir, err := os.MkdirTemp("", prefix)
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
