package sim

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"mrts/internal/core"
	"mrts/internal/meshgen"
)

// simObj is the harness's mobile object: a counter plus ballast that makes
// the plan's tight memory budget force swapping.
type simObj struct {
	Count   int64
	Ballast []byte
}

const simTypeID uint16 = 77

func (o *simObj) TypeID() uint16 { return simTypeID }
func (o *simObj) SizeHint() int  { return 32 + len(o.Ballast) }

func (o *simObj) EncodeTo(w io.Writer) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(o.Count))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(o.Ballast)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(o.Ballast)
	return err
}

// maxBallast bounds the decoded ballast length. The prefix arrives from
// storage and must not be trusted: one corrupted u32 could otherwise demand
// a 4 GiB allocation before the short read is ever noticed.
const maxBallast = 1 << 26

func (o *simObj) DecodeFrom(r io.Reader) error {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	o.Count = int64(binary.LittleEndian.Uint64(hdr[0:8]))
	n := binary.LittleEndian.Uint32(hdr[8:12])
	if n > maxBallast {
		return fmt.Errorf("sim: ballast length %d exceeds limit %d (corrupt blob?)", n, maxBallast)
	}
	// Reuse the existing ballast when it fits: decoding into a recycled
	// object is then allocation-free.
	if cap(o.Ballast) >= int(n) {
		o.Ballast = o.Ballast[:n]
	} else {
		o.Ballast = make([]byte, n)
	}
	_, err := io.ReadFull(r, o.Ballast)
	return err
}

func simFactory(typeID uint16) (core.Object, error) {
	if typeID == simTypeID {
		return &simObj{}, nil
	}
	// The mesh restore storm runs meshgen's OUPDR workload on the simulated
	// cluster; its blocks must decode after eviction and migration too.
	return meshgen.Factory(typeID)
}

// Handler IDs used by the scenarios.
const (
	hInc    core.HandlerID = 100
	hReport core.HandlerID = 101
	hPoke   core.HandlerID = 102
)

// counterBoard collects reported final counts across nodes.
type counterBoard struct {
	mu     sync.Mutex
	counts map[core.MobilePtr]int64
}

// registerHandlers installs the increment and report handlers on every node.
func registerHandlers(env *Env, board *counterBoard) {
	for _, rt := range env.Cluster.Runtimes() {
		registerHandlersOn(rt, board)
	}
}

// buildObjects creates the plan's objects on each node and returns them with
// the ballast sizes drawn from the environment rng (seed-derived, so the
// layout replays).
func buildObjects(env *Env) []core.MobilePtr {
	var ptrs []core.MobilePtr
	for n := 0; n < env.Plan.Nodes; n++ {
		rt := env.Cluster.RT(n)
		for j := 0; j < env.Plan.Objects; j++ {
			ballast := make([]byte, 1500+env.Rng.Intn(1500))
			ptrs = append(ptrs, rt.CreateObject(&simObj{Ballast: ballast}))
		}
	}
	return ptrs
}

// postStorm posts the plan's increments from seed-drawn sender nodes to
// seed-drawn targets and returns the expected per-object final counts. Every
// fourth increment is followed by a report to the same object — no draw, so
// the seed's targets and senders are what they were — which puts read-only
// work, and with it clean evictions, in the middle of whatever the scenario
// is storming through: faults, migrations, churn.
func postStorm(env *Env, ptrs []core.MobilePtr, posts int) map[core.MobilePtr]int64 {
	expected := make(map[core.MobilePtr]int64, len(ptrs))
	for _, p := range ptrs {
		expected[p] = 0
	}
	for i := 0; i < posts; i++ {
		target := ptrs[env.Rng.Intn(len(ptrs))]
		sender := env.Cluster.RT(env.Rng.Intn(env.Plan.Nodes))
		sender.Post(target, hInc, nil)
		expected[target]++
		if i%4 == 3 {
			sender.Post(target, hReport, nil)
		}
	}
	return expected
}

// reportPhase posts a report message to every object (a second termination
// generation) and returns the collected counts.
func reportPhase(env *Env, board *counterBoard, ptrs []core.MobilePtr) map[core.MobilePtr]int64 {
	for _, p := range ptrs {
		env.Cluster.RT(int(p.Home)).Post(p, hReport, nil)
	}
	env.WaitTermination()
	board.mu.Lock()
	defer board.mu.Unlock()
	out := make(map[core.MobilePtr]int64, len(board.counts))
	for k, v := range board.counts {
		out[k] = v
	}
	return out
}

// CounterStorm posts a seeded storm of increments at swapping objects over
// a clean (or transiently faulty) store and verifies every counter landed:
// message delivery, swap round-trips and retry must conspire to lose
// nothing, under any interleaving.
type CounterStorm struct {
	// Transient switches the plan to the transient fault schedule.
	Transient bool
}

// Name implements Scenario.
func (s CounterStorm) Name() string {
	if s.Transient {
		return "counter-storm-transient"
	}
	return "counter-storm"
}

// Fault implements Scenario.
func (s CounterStorm) Fault() FaultKind {
	if s.Transient {
		return FaultTransient
	}
	return FaultNone
}

// Run implements Scenario.
func (s CounterStorm) Run(env *Env) error {
	board := &counterBoard{counts: make(map[core.MobilePtr]int64)}
	registerHandlers(env, board)
	ptrs := buildObjects(env)
	posts := env.Plan.Nodes * env.Plan.Objects * env.Plan.Messages
	env.Note("storm of %d posts at %d objects", posts, len(ptrs))

	expected := postStorm(env, ptrs, posts)
	env.WaitTermination()
	got := reportPhase(env, board, ptrs)
	return verifyCounts(env, ptrs, got, expected)
}

// MigrationShuffle interleaves the increment storm with seed-drawn
// migrations, verifying that objects in motion — directory forwards, parked
// messages, install races — still deliver every increment exactly once. Half
// as many pokes go to a pair of objects per node, small enough for the
// plan's tight budget to hold both at once: the first one's handler
// increments the second inline if it can (hPoke). Spread over virtual time,
// they make an inline call, a drain, an eviction and a migration request want
// the same records while the storm and the shuffle are in flight. Over the
// transient fault schedule the migration requests also meet loads that fail
// and retry, and a seed-drawn node leaves the moment the shuffle has
// terminated: termination counts a request wherever it waits, so none may
// still be on its way to pull an object back onto the drained node.
type MigrationShuffle struct {
	// Transient switches the plan to the transient fault schedule.
	Transient bool
}

// Name implements Scenario.
func (s MigrationShuffle) Name() string {
	if s.Transient {
		return "migration-shuffle-transient"
	}
	return "migration-shuffle"
}

// Fault implements Scenario.
func (s MigrationShuffle) Fault() FaultKind {
	if s.Transient {
		return FaultTransient
	}
	return FaultNone
}

// Run implements Scenario.
func (s MigrationShuffle) Run(env *Env) error {
	board := &counterBoard{counts: make(map[core.MobilePtr]int64)}
	registerHandlers(env, board)
	ptrs := buildObjects(env)
	pairs := len(ptrs) // node n's pair is ptrs[pairs+2n], ptrs[pairs+2n+1]
	for n := 0; n < env.Plan.Nodes; n++ {
		for k := 0; k < 2; k++ {
			ptrs = append(ptrs, env.Cluster.RT(n).CreateObject(&simObj{Ballast: make([]byte, 64)}))
		}
	}
	posts := env.Plan.Nodes * env.Plan.Objects * env.Plan.Messages
	half := posts / 2
	moves := len(ptrs) * 2
	pokes := posts / 2
	env.Note("shuffle of %d posts, %d pokes, %d migration requests", posts, pokes, moves)

	expected := postStorm(env, ptrs, half)
	for i := 0; i < moves; i++ {
		p := ptrs[env.Rng.Intn(len(ptrs))]
		dest := core.NodeID(env.Rng.Intn(env.Plan.Nodes))
		// Fire-and-forget: the request routes to wherever the object is and
		// waits there for a busy or mid-swap object. Counts are unaffected
		// either way.
		env.Cluster.RT(int(p.Home)).RequestMigration(p, dest)
	}
	for i := 0; i < pokes; i++ {
		at := pairs + 2*env.Rng.Intn(env.Plan.Nodes)
		env.Cluster.RT(env.Rng.Intn(env.Plan.Nodes)).Post(ptrs[at], hPoke, nil)
		expected[ptrs[at+1]]++
		if i%4 == 3 {
			env.clk.Sleep(env.Plan.DiskSeek) // let loads and moves land between rounds
		}
	}
	more := postStorm(env, ptrs, posts-half)
	for p, n := range more {
		expected[p] += n
	}
	env.WaitTermination()
	if s.Transient {
		leaver := env.Rng.Intn(env.Plan.Nodes)
		if _, err := env.Cluster.LeaveNode(leaver); err != nil {
			return fmt.Errorf("leave node %d: %w", leaver, err)
		}
		if err := auditPlacement(env, "after leave"); err != nil {
			return err
		}
	}
	got := reportPhase(env, board, ptrs)
	return verifyCounts(env, ptrs, got, expected)
}

// PermanentFaultStorm runs the increment storm over stores whose reads fail
// permanently with the plan's probability: swapped-out objects are lost.
// The verified properties are the loud-loss contract — every loss surfaces
// in the counters and the SwapError log, lost objects drop their queues so
// termination still fires — not the (necessarily nondeterministic) final
// counts, which only enter the check as an upper bound.
type PermanentFaultStorm struct{}

// Name implements Scenario.
func (PermanentFaultStorm) Name() string { return "permanent-fault-storm" }

// Fault implements Scenario.
func (PermanentFaultStorm) Fault() FaultKind { return FaultPermanent }

// Run implements Scenario.
func (PermanentFaultStorm) Run(env *Env) error {
	board := &counterBoard{counts: make(map[core.MobilePtr]int64)}
	registerHandlers(env, board)
	ptrs := buildObjects(env)
	posts := env.Plan.Nodes * env.Plan.Objects * env.Plan.Messages
	env.Note("storm of %d posts under permanent faults", posts)

	expected := postStorm(env, ptrs, posts)
	env.WaitTermination()
	got := reportPhase(env, board, ptrs)

	// Survivors can only have received at most what was posted at them;
	// lost objects are absent from the report (their messages dropped).
	for p, n := range got {
		if n > expected[p] {
			return fmt.Errorf("object %v: count %d exceeds the %d posted", p, n, expected[p])
		}
	}
	// The loud-loss contract: losses and the error log must agree.
	stats := env.Cluster.SwapStats()
	var lostErrs uint64
	for _, rt := range env.Cluster.Runtimes() {
		for _, e := range rt.SwapErrors() {
			if e.Lost {
				lostErrs++
			}
		}
	}
	if stats.ObjectsLost != lostErrs {
		return fmt.Errorf("ObjectsLost=%d but %d Lost SwapErrors recorded", stats.ObjectsLost, lostErrs)
	}
	if stats.ObjectsLost > 0 && stats.LoadFailures == 0 {
		return fmt.Errorf("objects lost with zero recorded load failures")
	}
	env.Record("objects", int64(len(ptrs)))
	env.Record("posts", int64(posts))
	return nil
}

// TieredFaultStorm runs the increment storm on a tiered cluster (remote
// memory over disk) whose remote-memory tier takes transient faults: writes
// that fault on tier 0 must spill to the disk tier, reads must retry or be
// re-dispatched at the blob's surviving home — every counter lands, nothing
// is lost, and the tier invariants (single residency, lease) hold throughout
// via the harness's continuous sweep.
type TieredFaultStorm struct{}

// Name implements Scenario.
func (TieredFaultStorm) Name() string { return "tiered-fault-storm" }

// Fault implements Scenario.
func (TieredFaultStorm) Fault() FaultKind { return FaultTierTransient }

// Run implements Scenario.
func (TieredFaultStorm) Run(env *Env) error {
	board := &counterBoard{counts: make(map[core.MobilePtr]int64)}
	registerHandlers(env, board)
	ptrs := buildObjects(env)
	posts := env.Plan.Nodes * env.Plan.Objects * env.Plan.Messages
	env.Note("storm of %d posts over tier cap %d with tier-0 faults", posts, env.Plan.TierCapacity)

	expected := postStorm(env, ptrs, posts)
	env.WaitTermination()
	got := reportPhase(env, board, ptrs)

	var sum int64
	for _, p := range ptrs {
		if got[p] != expected[p] {
			return fmt.Errorf("object %v: count %d, expected %d", p, got[p], expected[p])
		}
		env.Record(fmt.Sprintf("count.%v", p), got[p])
		sum += got[p]
	}
	if lost := env.Cluster.SwapStats().ObjectsLost; lost != 0 {
		return fmt.Errorf("%d objects lost despite a healthy disk tier", lost)
	}
	ts := env.Cluster.TierStats()
	if ts.FastPuts+ts.Spills == 0 {
		return fmt.Errorf("tiered run wrote nothing through the hierarchy")
	}
	if env.Plan.TierCapacity != 0 {
		// Tier-0 faults fire on the first touch of each key, so a run that
		// has a fast tier must have absorbed at least one: a spill on a
		// faulted admission, or a retried read.
		retried := env.Cluster.SwapStats().Retries
		if ts.FastPutErrors+ts.FastReadErrors+retried == 0 {
			return fmt.Errorf("tier-0 fault schedule never fired: %+v", ts)
		}
	}
	env.Record("objects", int64(len(ptrs)))
	env.Record("sum", sum)
	return nil
}
