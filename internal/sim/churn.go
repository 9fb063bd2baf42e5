package sim

import (
	"fmt"

	"mrts/internal/core"
)

// registerHandlersOn installs the scenario handlers on one runtime — the
// re-registration a relaunched worker process performs before resuming.
func registerHandlersOn(rt *core.Runtime, board *counterBoard) {
	rt.Register(hInc, func(c *core.Ctx, arg []byte) {
		c.Object().(*simObj).Count++
	})
	// The report only reads the counter. Registered read-only, an object that
	// was loaded for it alone is dropped at its next eviction without a write,
	// and the quiescent sweep checks that its stored copy still matches.
	rt.RegisterReadOnly(hReport, func(c *core.Ctx, arg []byte) {
		n := c.Object().(*simObj).Count
		board.mu.Lock()
		board.counts[c.Self] = n
		board.mu.Unlock()
	})
	// The poke increments the object its node created next and leaves its own
	// as it was (see MigrationShuffle): inline if it can have it, else by
	// message, pulling the object over so that a later poke can.
	rt.RegisterReadOnly(hPoke, func(c *core.Ctx, arg []byte) {
		next := core.MobilePtr{Home: c.Self.Home, Seq: c.Self.Seq + 1}
		if !c.CallInline(next, hInc, nil) {
			c.Runtime().RequestMigration(next, c.Node())
			c.Post(next, hInc, nil)
		}
	})
}

// verifyCounts compares the reported counters to the expectation and records
// the confluent digest entries.
func verifyCounts(env *Env, ptrs []core.MobilePtr, got, expected map[core.MobilePtr]int64) error {
	var sum int64
	for _, p := range ptrs {
		if got[p] != expected[p] {
			return fmt.Errorf("object %v: count %d, expected %d", p, got[p], expected[p])
		}
		env.Record(fmt.Sprintf("count.%v", p), got[p])
		sum += got[p]
	}
	env.Record("objects", int64(len(ptrs)))
	env.Record("sum", sum)
	return nil
}

// auditPlacement snapshots the directory invariants at a phase boundary and
// turns any violation into a scenario error (the harness's final audit would
// catch it too, but failing at the boundary names the change that broke it).
func auditPlacement(env *Env, when string) error {
	if bad := env.Cluster.DirectoryInvariants(); len(bad) > 0 {
		return fmt.Errorf("placement %s: %v", when, bad)
	}
	return nil
}

// NodeChurnStorm interleaves the increment storm with a graceful membership
// change: one seed-drawn node leaves mid-run (its objects dealt over the live
// nodes), the storm keeps posting at the drained node's old objects while it
// is out, then the node rejoins and pulls back the objects born on it. Every
// increment must land exactly once and the placement invariants must hold at
// every membership change.
type NodeChurnStorm struct {
	// Drift races migrations to seed-drawn nodes against the storm before
	// the leave, so the drain and the rejoin find objects away from where
	// they were born and posts chase them along stale directory chains.
	Drift bool
}

// Name implements Scenario.
func (s NodeChurnStorm) Name() string {
	if s.Drift {
		return "node-churn-storm-drift"
	}
	return "node-churn-storm"
}

// Fault implements Scenario.
func (NodeChurnStorm) Fault() FaultKind { return FaultNodeCrash }

// Run implements Scenario.
func (s NodeChurnStorm) Run(env *Env) error {
	board := &counterBoard{counts: make(map[core.MobilePtr]int64)}
	registerHandlers(env, board)
	ptrs := buildObjects(env)
	churn := env.Plan.ChurnNode
	posts := env.Plan.Nodes * env.Plan.Objects * env.Plan.Messages
	third := posts / 3
	env.Note("churn storm of %d posts (drift %t); node %d leaves and rejoins", posts, s.Drift, churn)

	expected := postStorm(env, ptrs, third)
	if s.Drift {
		// Fire-and-forget like MigrationShuffle, while the first third is
		// still in flight: a busy object staying put changes no count.
		for i := 0; i < len(ptrs); i++ {
			p := ptrs[env.Rng.Intn(len(ptrs))]
			dest := core.NodeID(env.Rng.Intn(env.Plan.Nodes))
			env.Cluster.RT(int(p.Home)).RequestMigration(p, dest)
		}
	}
	env.WaitTermination()

	moved, err := env.Cluster.LeaveNode(churn)
	if err != nil {
		return fmt.Errorf("leave node %d: %w", churn, err)
	}
	if err := auditPlacement(env, "after leave"); err != nil {
		return err
	}
	// Without drift the drained node's object count is seed-determined
	// (objects stay where they were created until the drain moves them);
	// with it, where a drifted object ends depends on the schedule, and the
	// digest holds only confluent outcomes.
	if !s.Drift {
		env.Record("rebalanced.out", int64(moved))
	}

	// The storm keeps running while the node is out: posts to its old
	// objects follow the drain's directory updates, and the drained node
	// itself still forwards as a live shell.
	for p, n := range postStorm(env, ptrs, third) {
		expected[p] += n
	}
	env.WaitTermination()

	back, err := env.Cluster.JoinNode(churn)
	if err != nil {
		return fmt.Errorf("rejoin node %d: %w", churn, err)
	}
	if err := auditPlacement(env, "after join"); err != nil {
		return err
	}
	// The drain left the node empty, so the rejoin pulls back every object
	// born on it, drifted or not.
	if back != env.Plan.Objects {
		return fmt.Errorf("rejoin of node %d pulled back %d objects, want the %d born on it",
			churn, back, env.Plan.Objects)
	}
	env.Record("rebalanced.in", int64(back))

	for p, n := range postStorm(env, ptrs, posts-2*third) {
		expected[p] += n
	}
	env.WaitTermination()

	got := reportPhase(env, board, ptrs)
	return verifyCounts(env, ptrs, got, expected)
}

// NodeCrashStorm kills a seed-drawn node at a quiescent phase boundary —
// checkpoint, teardown, relaunch in the same slot with the same node ID,
// restore — and resumes the storm. The crashed node is down, not departed:
// its objects wait in its checkpoint, none may be lost through the round
// trip, and every increment posted before and after the outage must land
// exactly once.
type NodeCrashStorm struct{}

// Name implements Scenario.
func (NodeCrashStorm) Name() string { return "node-crash-storm" }

// Fault implements Scenario.
func (NodeCrashStorm) Fault() FaultKind { return FaultNodeCrash }

// Run implements Scenario.
func (NodeCrashStorm) Run(env *Env) error {
	board := &counterBoard{counts: make(map[core.MobilePtr]int64)}
	registerHandlers(env, board)
	ptrs := buildObjects(env)
	churn := env.Plan.ChurnNode
	posts := env.Plan.Nodes * env.Plan.Objects * env.Plan.Messages
	half := posts / 2
	env.Note("crash storm of %d posts; node %d crashes and restarts", posts, churn)

	expected := postStorm(env, ptrs, half)
	env.WaitTermination()

	if err := env.Cluster.CrashNode(churn); err != nil {
		return fmt.Errorf("crash node %d: %w", churn, err)
	}
	if err := auditPlacement(env, "during outage"); err != nil {
		return err
	}

	rt, err := env.Cluster.RestartNode(churn)
	if err != nil {
		return fmt.Errorf("restart node %d: %w", churn, err)
	}
	registerHandlersOn(rt, board) // the relaunched process re-registers
	if err := auditPlacement(env, "after restart"); err != nil {
		return err
	}
	restored := rt.NumLocalObjects()
	if restored != env.Plan.Objects {
		return fmt.Errorf("node %d restored %d objects from its checkpoint, want %d",
			churn, restored, env.Plan.Objects)
	}
	env.Record("restored", int64(restored))

	for p, n := range postStorm(env, ptrs, posts-half) {
		expected[p] += n
	}
	env.WaitTermination()

	got := reportPhase(env, board, ptrs)
	return verifyCounts(env, ptrs, got, expected)
}
