package sim

import (
	"fmt"

	"mrts/internal/core"
)

// McastStorm posts a seeded storm of multicast mobile messages at swapping
// counter objects over transiently faulty stores. Every multicast collects
// two or three objects onto one node — pulling the remote ones in by
// migration, forcing the swapped-out ones back in core through loads that
// fail and retry — and delivers an increment to its first member or to all
// of them. Overlapping collections, members that migrate away while another
// collection has them pinned, and the tight budget must lose no increment
// and leave no collection pending (the quiescent invariant sweep checks the
// latter). The storm is one multicast per object. A migration request that
// finds its object held waits on the object's record and is served when the
// holder lets go (core's own.go), and termination counts it wherever it is —
// so a seed-drawn node leaves the ring the moment the storm has terminated,
// and no request may still be on its way to pull an object back onto the
// drained node.
type McastStorm struct{}

// Name implements Scenario.
func (McastStorm) Name() string { return "mcast-storm" }

// Fault implements Scenario.
func (McastStorm) Fault() FaultKind { return FaultTransient }

// Run implements Scenario.
func (McastStorm) Run(env *Env) error {
	board := &counterBoard{counts: make(map[core.MobilePtr]int64)}
	registerHandlers(env, board)
	ptrs := buildObjects(env)
	env.Note("storm of %d multicasts at %d objects", len(ptrs), len(ptrs))

	expected := make(map[core.MobilePtr]int64, len(ptrs))
	for range ptrs {
		members := make([]core.MobilePtr, 2+env.Rng.Intn(2))
		for k, idx := range env.Rng.Perm(len(ptrs))[:len(members)] {
			members[k] = ptrs[idx]
		}
		deliver := 1
		if env.Rng.Intn(2) == 0 {
			deliver = len(members)
		}
		sender := env.Cluster.RT(env.Rng.Intn(env.Plan.Nodes))
		sender.PostMulticast(members, deliver, hInc, nil)
		for _, p := range members[:deliver] {
			expected[p]++
		}
	}
	env.WaitTermination()

	leaver := env.Rng.Intn(env.Plan.Nodes)
	if _, err := env.Cluster.LeaveNode(leaver); err != nil {
		return fmt.Errorf("leave node %d: %w", leaver, err)
	}
	if err := auditPlacement(env, "after leave"); err != nil {
		return err
	}

	got := reportPhase(env, board, ptrs)
	return verifyCounts(env, ptrs, got, expected)
}
