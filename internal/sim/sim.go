// Package sim is the deterministic simulation harness for the MRTS runtime,
// in the FoundationDB style: a whole cluster — transport latency, disk
// service times, retry backoff, termination probing — runs on one virtual
// clock whose time advances only when every simulated goroutine has
// quiesced, and every source of randomness (cluster layout, fault schedule,
// work-stealing victims, retry jitter) derives from one seed. A failing seed
// is a complete reproduction recipe:
//
//	go test ./internal/sim -run Soak -sim.seed <seed>
//
// sim.Run(seed, scenario) expands the seed into a Plan (cluster shape,
// network and disk models, a slow node, a fault schedule), executes the
// scenario under continuous invariant checking, then audits the terminated
// cluster. The Result's TraceBytes renders the plan, the scenario's
// deterministic outcome digest, and any invariant violations canonically —
// re-running a seed must reproduce it byte for byte, which the test suite
// enforces for every seed it touches.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"mrts/internal/clock"
	"mrts/internal/cluster"
	"mrts/internal/comm"
	"mrts/internal/core"
	"mrts/internal/storage"
)

// Clock is the time source abstraction the runtime layers accept; the
// harness drives them with a clock.Virtual.
type Clock = clock.Clock

// FaultKind classifies the plan's injected storage faults.
type FaultKind int

// The fault schedules a plan can draw.
const (
	FaultNone      FaultKind = iota // clean stores
	FaultTransient                  // early failures absorbed by retry
	FaultPermanent                  // unreadable blobs: loud object loss
	// FaultTierTransient runs a tiered (remote memory over disk) cluster
	// whose remote-memory tier takes transient faults: writes spill to the
	// disk tier, reads fall back or retry — never an object loss.
	FaultTierTransient
	// FaultNodeCrash draws a churn victim (Plan.ChurnNode) on clean plain
	// disk stores: the scenario takes a whole node out mid-run — gracefully
	// (leave/join with rebalancing) or by crash (checkpoint, teardown,
	// restart) — and the placement invariants must hold through every
	// membership change.
	FaultNodeCrash
	// FaultMeshRestore streams a mesh into a meshstore chunk while the
	// generating cluster takes transient swap faults, then restores the
	// store onto a differently-sized cluster whose swap stores fault too.
	// The budget is sized for mesh blocks rather than ballast counters:
	// tight enough that blocks swap during both halves, large enough to
	// hold a couple of refined blocks per node.
	FaultMeshRestore
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultTransient:
		return "transient"
	case FaultPermanent:
		return "permanent"
	case FaultTierTransient:
		return "tier-transient"
	case FaultNodeCrash:
		return "node-crash"
	case FaultMeshRestore:
		return "mesh-restore"
	default:
		return "invalid"
	}
}

// Plan is the seed-expanded shape of one simulated run. It is a pure
// function of the seed — every field is drawn before the cluster starts, so
// the plan renders identically on every replay.
type Plan struct {
	Seed       int64
	Nodes      int
	Workers    int           // PEs per node
	MemBudget  int64         // per-node byte budget, small enough to swap
	NetLatency time.Duration // transport latency (virtual time)
	DiskSeek   time.Duration // per-op disk seek (virtual time)
	SlowNode   int           // index of the node with a 4x slower disk, -1 none
	Fault      FaultKind
	FailFirst  int // transient: first N gets+puts per key fail
	GetProb    float64
	Retries    int // retry attempts budget
	Objects    int // objects the scenario should create per node
	Messages   int // messages the scenario should post per object
	// Tiered runs remote memory composed over disk (internal/tier);
	// TierCapacity is the per-node tier-0 lease (0 degenerates to pure
	// disk — a valid point the hierarchy must handle).
	Tiered       bool
	TierCapacity int64
	// ChurnNode is the node the churn scenarios take out mid-run
	// (FaultNodeCrash plans only; -1 otherwise).
	ChurnNode int
}

// expandPlan draws a Plan from the seed. All draws happen in a fixed order
// so the mapping seed -> Plan never shifts between runs of the same binary.
func expandPlan(seed int64, kind FaultKind) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{
		Seed:       seed,
		Nodes:      2 + rng.Intn(3),                                       // 2..4
		Workers:    1 + rng.Intn(2),                                       // 1..2
		MemBudget:  int64(4_000 + rng.Intn(12_000)),                       // forces swapping
		NetLatency: time.Duration(rng.Intn(500)) * time.Microsecond,       // 0..0.5ms
		DiskSeek:   time.Duration(100+rng.Intn(1_500)) * time.Microsecond, // 0.1..1.6ms
		SlowNode:   -1,
		ChurnNode:  -1,
		Fault:      kind,
		Retries:    3 + rng.Intn(3),
		Objects:    3 + rng.Intn(5), // per node
		Messages:   4 + rng.Intn(9), // per object
	}
	if rng.Intn(2) == 0 {
		p.SlowNode = rng.Intn(p.Nodes)
	}
	switch kind {
	case FaultTransient:
		p.FailFirst = 1 + rng.Intn(2)
	case FaultPermanent:
		p.GetProb = 0.5 + 0.5*rng.Float64()
	case FaultTierTransient:
		p.FailFirst = 1 + rng.Intn(2)
		p.Tiered = true
		if rng.Intn(6) == 0 {
			p.TierCapacity = 0 // degenerate point: the lease is gone entirely
		} else {
			p.TierCapacity = int64(2_000 + rng.Intn(10_000))
		}
	case FaultNodeCrash:
		p.ChurnNode = rng.Intn(p.Nodes)
	case FaultMeshRestore:
		p.FailFirst = 1 + rng.Intn(2)
		p.MemBudget = int64(60_000 + rng.Intn(60_000))
	}
	return p
}

// clusterConfig materializes the plan into a cluster.Config on clk.
func (p Plan) clusterConfig(clk Clock, factory core.Factory) cluster.Config {
	cfg := cluster.Config{
		Nodes:          p.Nodes,
		WorkersPerNode: p.Workers,
		MemBudget:      p.MemBudget,
		Network:        comm.LatencyModel{Latency: p.NetLatency, BytesPerSec: 100e6},
		Factory:        factory,
		Clock:          clk,
		Seed:           p.Seed,
		Retry: storage.RetryPolicy{
			MaxAttempts: p.Retries,
			BaseDelay:   100 * time.Microsecond,
			MaxDelay:    5 * time.Millisecond,
			Seed:        p.Seed,
			Clock:       clk,
		},
	}
	if p.DiskSeek > 0 {
		seek := p.DiskSeek
		slow := p.SlowNode
		cfg.NodeDisk = func(node int) storage.DiskModel {
			d := storage.DiskModel{Seek: seek, BytesPerSec: 50e6}
			if node == slow {
				d.Seek *= 4
				d.BytesPerSec /= 4
			}
			return d
		}
	}
	switch p.Fault {
	case FaultTransient, FaultMeshRestore:
		cfg.Fault = &storage.FaultConfig{
			Seed:          p.Seed,
			FailFirstGets: p.FailFirst,
			FailFirstPuts: p.FailFirst,
		}
	case FaultPermanent:
		cfg.Fault = &storage.FaultConfig{
			Seed:        p.Seed,
			GetFailProb: p.GetProb,
			Permanent:   true,
		}
	case FaultTierTransient:
		// The faults storm tier 0 only; the disk tier stays healthy, so
		// every blob always has a reachable home.
		cfg.RemoteMemory = true
		cfg.Tier = &cluster.TierSpec{
			Capacity: p.TierCapacity,
			Fault: &storage.FaultConfig{
				Seed:          p.Seed,
				FailFirstGets: p.FailFirst,
				FailFirstPuts: p.FailFirst,
			},
		}
	}
	return cfg
}

// render writes the plan canonically.
func (p Plan) render(w *strings.Builder) {
	fmt.Fprintf(w, "plan seed=%d nodes=%d workers=%d budget=%d", p.Seed, p.Nodes, p.Workers, p.MemBudget)
	fmt.Fprintf(w, " net=%s disk=%s slow=%d", p.NetLatency, p.DiskSeek, p.SlowNode)
	fmt.Fprintf(w, " fault=%s failfirst=%d getprob=%.3f retries=%d", p.Fault, p.FailFirst, p.GetProb, p.Retries)
	fmt.Fprintf(w, " objects=%d messages=%d tiered=%t tiercap=%d churn=%d\n",
		p.Objects, p.Messages, p.Tiered, p.TierCapacity, p.ChurnNode)
}

// Env is the execution environment handed to a scenario: the running
// cluster, the plan it was built from, and a seeded rng for the scenario's
// own deterministic choices (message targets, migration shuffles). The rng
// must be the scenario's only source of randomness.
type Env struct {
	Plan    Plan
	Cluster *cluster.Cluster
	Rng     *rand.Rand
	clk     *clock.Virtual

	digest map[string]int64
	notes  []string
}

// Record adds key=v to the run's outcome digest. Digest entries must be
// deterministic functions of the seed (confluent outcomes like final
// counter values — never interleaving-dependent counters like evictions),
// because the replay test compares rendered digests byte for byte.
func (e *Env) Record(key string, v int64) {
	e.digest[key] = v
}

// Note appends a plan-derived annotation to the trace. Like Record, notes
// must depend only on the seed.
func (e *Env) Note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// WaitTermination runs the message-based termination protocol on every node
// (SPMD) and blocks until it fires — exercising the paper's detector under
// the simulated schedule rather than the driver-level shortcut.
func (e *Env) WaitTermination() {
	done := make(chan struct{}, e.Plan.Nodes)
	for _, rt := range e.Cluster.Runtimes() {
		rt := rt
		go func() {
			rt.WaitTermination(e.Plan.Nodes)
			done <- struct{}{}
		}()
	}
	for i := 0; i < e.Plan.Nodes; i++ {
		<-done
	}
}

// Scenario is one workload the harness can drive.
type Scenario interface {
	// Name labels the scenario in traces and failure output.
	Name() string
	// Fault selects the plan's fault schedule.
	Fault() FaultKind
	// Run drives the cluster to completion. When it returns the cluster
	// must be terminated (use env.WaitTermination or Cluster.Wait).
	Run(env *Env) error
}

// Result is the outcome of one simulated run.
type Result struct {
	Seed       int64
	Scenario   string
	Plan       Plan
	Notes      []string
	Digest     map[string]int64
	Violations []string
	Err        error
}

// Failed reports whether the run violated an invariant or returned an error.
func (r *Result) Failed() bool { return r.Err != nil || len(r.Violations) > 0 }

// TraceBytes renders the run canonically: plan, notes, digest (sorted),
// violations. Re-running the same seed must reproduce these bytes exactly;
// the suite's replay test enforces it.
func (r *Result) TraceBytes() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s\n", r.Scenario)
	r.Plan.render(&b)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note %s\n", n)
	}
	keys := make([]string, 0, len(r.Digest))
	for k := range r.Digest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "digest %s=%d\n", k, r.Digest[k])
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "violation %s\n", v)
	}
	if r.Err != nil {
		fmt.Fprintf(&b, "error %v\n", r.Err)
	}
	return []byte(b.String())
}

// checkInterval is the virtual-time period of the continuous invariant
// sweep. Coarse enough not to dominate the schedule, fine enough to catch
// transient violations between workload phases.
const checkInterval = 2 * time.Millisecond

// Run executes scenario under virtual time with the fault schedule and
// cluster shape drawn from seed. Invariants are checked continuously during
// the run and exhaustively after termination; every violation carries the
// seed, so any red is replayable.
func Run(seed int64, scenario Scenario) *Result {
	plan := expandPlan(seed, scenario.Fault())
	res := &Result{Seed: seed, Scenario: scenario.Name(), Plan: plan,
		Digest: make(map[string]int64)}

	vclk := clock.NewVirtual()
	defer vclk.Stop()

	cl, err := cluster.New(plan.clusterConfig(vclk, simFactory))
	if err != nil {
		res.Err = fmt.Errorf("cluster: %w", err)
		return res
	}
	defer cl.Close()

	// Continuous checking: sweep the always-valid invariants while the
	// scenario runs. Sweeps ride the virtual clock, so they interleave with
	// every time advance the schedule makes.
	stop := make(chan struct{})
	sweepDone := make(chan []string, 1)
	go func() {
		var found []string
		for {
			select {
			case <-stop:
				sweepDone <- found
				return
			default:
			}
			for _, rt := range cl.Runtimes() {
				found = append(found, rt.CheckInvariants(false)...)
			}
			for _, ts := range cl.Tiers() {
				// Always-true tier properties: lease never exceeded,
				// accounting self-consistent.
				found = append(found, ts.CheckInvariants(false)...)
			}
			if len(found) > 8 {
				found = found[:8] // one broken invariant repeats; cap the noise
			}
			vclk.Sleep(checkInterval)
		}
	}()

	env := &Env{
		Plan:    plan,
		Cluster: cl,
		Rng:     rand.New(rand.NewSource(seed ^ 0x5eed)),
		clk:     vclk,
		digest:  res.Digest,
	}
	res.Err = scenario.Run(env)
	res.Notes = env.notes

	close(stop)
	res.Violations = append(res.Violations, <-sweepDone...)

	// Terminated-state audit: the full invariant set, plus the global
	// message balance and the swapio class-order property.
	if res.Err == nil {
		var work, sent, recv int64
		for _, rt := range cl.Runtimes() {
			res.Violations = append(res.Violations, rt.CheckInvariants(true)...)
			work += rt.Work()
			sent += rt.SentCount()
			recv += rt.RecvCount()
		}
		if work != 0 || sent != recv {
			res.Violations = append(res.Violations,
				fmt.Sprintf("termination fired with work=%d sent=%d recv=%d", work, sent, recv))
		}
		// Placement audit (a quiescent property: no migration is in flight
		// to straddle two nodes): every object hosted by exactly one active
		// node, drained nodes empty, crash checkpoints only on down nodes.
		res.Violations = append(res.Violations, cl.DirectoryInvariants()...)
		if inv := cl.IOStats().PriorityInversions; inv != 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("swapio dispatched %d prefetches past queued demand loads", inv))
		}
		// Tiered clusters: wait out in-flight demotions, then
		// audit single-tier residency and the lease exhaustively.
		for _, ts := range cl.Tiers() {
			ts.WaitIdle()
			res.Violations = append(res.Violations, ts.CheckInvariants(true)...)
		}
	}
	return res
}
