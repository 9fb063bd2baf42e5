// Node churn: graceful leave/join with object rebalancing over the
// consistent-hash directory, and whole-node crash/restart built on the
// checkpoint machinery.
//
// The rebalance drain rule: a membership change never copies the whole
// keyspace. On leave, only the departing node's objects move — each to the
// node now owning its placement key; on join, only the objects whose
// placement key the new member took over move. Both are migration requests
// (core.Runtime.RequestMigration): one that finds its object still held by
// an eviction at the phase boundary waits on the object, an out-of-core
// object comes in through the swapio demand class first, and the Wait that
// ends the operation waits for every move.
//
// All churn operations require a quiescent cluster (call Wait first): they
// reshape placement between computation phases, mirroring how the
// multi-process deployment checkpoints and rebalances only at phase
// barriers.
package cluster

import (
	"fmt"

	"mrts/internal/core"
	"mrts/internal/obs"
	"mrts/internal/storage"
)

// Directory returns the cluster's placement ring.
func (c *Cluster) Directory() *Directory { return c.dir }

// ActiveNodes counts nodes currently in service (not drained or crashed).
func (c *Cluster) ActiveNodes() int {
	c.nmu.RLock()
	defer c.nmu.RUnlock()
	n := 0
	for _, gone := range c.inactive {
		if !gone {
			n++
		}
	}
	return n
}

// LeaveNode gracefully removes node i from the placement ring and drains
// every object it holds to the object's new ring owner. The node's runtime
// stays up as a forwarding shell — in-flight references through it still
// resolve — but it owns no keys and hosts no objects until JoinNode.
// Returns the number of objects drained.
func (c *Cluster) LeaveNode(i int) (int, error) {
	c.nmu.RLock()
	bad := i < 0 || i >= len(c.rts)
	if !bad {
		bad = c.inactive[i]
	}
	c.nmu.RUnlock()
	if bad {
		return 0, fmt.Errorf("cluster: node %d absent or already inactive", i)
	}
	if c.dir.Size() <= 1 {
		return 0, fmt.Errorf("cluster: cannot drain the last ring member")
	}
	epoch := c.dir.Remove(core.NodeID(i))
	c.tracer(i).Emit(obs.KindNodeLeave, uint64(i), int64(epoch))
	moved, err := c.drainNode(i)
	c.nmu.Lock()
	c.inactive[i] = true
	c.nmu.Unlock()
	// The ring epoch moved: off-placement objects must be re-announced to
	// their new anchors, and a message parked under the old placement would
	// hold its node's work counter forever, so Wait below would hang.
	c.reAnchor()
	c.reRouteParked()
	c.Wait() // let the last installs land before the caller resumes posting
	return moved, err
}

// JoinNode returns a previously drained node to the ring and pulls over the
// objects whose placement keys it now owns. Returns the number of objects
// moved to it.
func (c *Cluster) JoinNode(i int) (int, error) {
	c.nmu.Lock()
	if i < 0 || i >= len(c.rts) || !c.inactive[i] || c.ckpts[i] != nil {
		c.nmu.Unlock()
		return 0, fmt.Errorf("cluster: node %d is not a drained member", i)
	}
	c.inactive[i] = false
	c.nmu.Unlock()
	epoch := c.dir.Add(core.NodeID(i))
	c.tracer(i).Emit(obs.KindNodeJoin, uint64(i), int64(epoch))

	moved := 0
	for j, rt := range c.Runtimes() {
		if j == i || c.isInactive(j) {
			continue
		}
		for _, ptr := range rt.LocalObjects() {
			owner, _ := c.dir.OwnerOf(ptr)
			if owner != core.NodeID(i) {
				continue
			}
			c.rebalance(rt, ptr, core.NodeID(i))
			moved++
		}
	}
	c.reAnchor()
	c.reRouteParked() // see LeaveNode: the epoch bump moved placements
	c.Wait()
	return moved, nil
}

// reAnchor repairs placed-routing anchor state after a ring epoch bump. An
// object that migrated off its placement is reachable only through the
// override its old ring owner recorded; when the epoch moves that key to a
// different owner, the override is orphaned and first hops would park at the
// new owner forever. Each live node is the ground truth for the objects it
// hosts, so it re-announces every off-placement object to the current ring
// owner's locator. No-op for the home-anchored policies (their anchor, the
// birth node, never moves).
func (c *Cluster) reAnchor() {
	c.nmu.RLock()
	placed := make([]*PlacedLocator, len(c.placed))
	copy(placed, c.placed)
	c.nmu.RUnlock()
	if len(placed) == 0 {
		return
	}
	for j, rt := range c.Runtimes() {
		if c.isInactive(j) {
			continue
		}
		for _, ptr := range rt.LocalObjects() {
			owner, _ := c.dir.OwnerOf(ptr)
			if owner == core.NodeID(j) || owner < 0 {
				continue
			}
			if l := placed[owner]; l != nil {
				l.Note(ptr, core.NodeID(j))
			}
		}
	}
}

// SettleAtOwners migrates every hosted object to its current ring owner —
// the placement a directory-driven application establishes by construction,
// and the state in which the placed locator's first hops are exact. Returns
// the number of objects moved. The cluster must be quiescent.
func (c *Cluster) SettleAtOwners() (int, error) {
	moved := 0
	for j, rt := range c.Runtimes() {
		if c.isInactive(j) {
			continue
		}
		for _, ptr := range rt.LocalObjects() {
			dest, _ := c.dir.OwnerOf(ptr)
			if dest < 0 || dest == core.NodeID(j) {
				continue
			}
			c.rebalance(rt, ptr, dest)
			moved++
		}
	}
	c.Wait()
	return moved, nil
}

// reRouteParked re-resolves parked messages on every live runtime after a
// ring epoch bump. Drained nodes are included — they stay up as forwarding
// shells and can hold parked messages too; crashed nodes are skipped (their
// runtime is closed, and a crash does not move the ring).
func (c *Cluster) reRouteParked() {
	c.nmu.RLock()
	rts := make([]*core.Runtime, 0, len(c.rts))
	for i, rt := range c.rts {
		if c.ckpts[i] != nil {
			continue
		}
		rts = append(rts, rt)
	}
	c.nmu.RUnlock()
	for _, rt := range rts {
		rt.ReRouteParked()
	}
}

// drainNode migrates every object node i holds to its ring owner.
func (c *Cluster) drainNode(i int) (int, error) {
	rt := c.RT(i)
	moved := 0
	for _, ptr := range rt.LocalObjects() {
		dest, _ := c.dir.OwnerOf(ptr)
		if dest < 0 || dest == core.NodeID(i) {
			return moved, fmt.Errorf("cluster: no ring owner for %v while draining node %d", ptr, i)
		}
		c.rebalance(rt, ptr, dest)
		moved++
	}
	return moved, nil
}

// rebalance asks rt, which hosts ptr, to move it to dest. The request waits
// on the object if an eviction still holds it right at the phase boundary;
// the Wait that ends every churn operation waits for the move.
func (c *Cluster) rebalance(rt *core.Runtime, ptr core.MobilePtr, dest core.NodeID) {
	rt.RequestMigration(ptr, dest)
	c.rebalanced.Add(1)
	rt.Tracer().Emit(obs.KindDirRebalance, packPtr(ptr), int64(dest))
}

func packPtr(p core.MobilePtr) uint64 {
	return uint64(uint32(p.Home))<<32 | uint64(p.Seq)
}

// CrashNode kills node i at a phase boundary: its state is checkpointed to
// an in-memory store (standing in for the durable checkpoint a real worker
// process writes at every barrier), and the runtime is torn down. The node
// keeps its ring membership — it is down, not departed — exactly like a
// real worker that will be relaunched with the same node ID. Only plain
// disk clusters support crash/restart; remote-memory and tiered stacks
// share state through the transport that dies with the runtime.
func (c *Cluster) CrashNode(i int) error {
	if c.cfg.RemoteMemory || c.cfg.Tier != nil {
		return fmt.Errorf("cluster: CrashNode supports plain disk clusters only")
	}
	c.nmu.RLock()
	bad := i < 0 || i >= len(c.rts) || c.inactive[i]
	var rt *core.Runtime
	if !bad {
		rt = c.rts[i]
	}
	c.nmu.RUnlock()
	if bad {
		return fmt.Errorf("cluster: node %d absent or already inactive", i)
	}
	ck := storage.NewMem()
	if err := rt.Checkpoint(ck, "crash"); err != nil {
		return fmt.Errorf("cluster: checkpoint node %d: %w", i, err)
	}
	c.nmu.Lock()
	c.ckpts[i] = ck
	c.inactive[i] = true
	c.nmu.Unlock()
	c.tracer(i).Emit(obs.KindNodeLeave, uint64(i), int64(c.dir.Epoch()))
	return rt.Close()
}

// RestartNode relaunches a crashed node in its old slot: a fresh store
// stack, a fresh runtime on the same endpoint and task pool, restored from
// the crash checkpoint. Application handlers must be re-registered on the
// returned runtime (a fresh process knows only what its binary registers).
func (c *Cluster) RestartNode(i int) (*core.Runtime, error) {
	c.nmu.RLock()
	bad := i < 0 || i >= len(c.rts) || !c.inactive[i]
	var ck storage.Store
	if !bad {
		ck = c.ckpts[i]
	}
	c.nmu.RUnlock()
	if bad || ck == nil {
		return nil, fmt.Errorf("cluster: node %d has no crash checkpoint", i)
	}

	st, raw, err := c.nodeBaseStore(i)
	if err != nil {
		return nil, err
	}
	rt := core.NewRuntime(c.nodeConfig(i, st))
	if err := rt.Restore(ck, "crash"); err != nil {
		rt.Close()
		return nil, fmt.Errorf("cluster: restore node %d: %w", i, err)
	}
	c.nmu.Lock()
	c.rts[i] = rt
	c.bases[i] = raw
	c.ckpts[i] = nil
	c.inactive[i] = false
	c.nmu.Unlock()
	c.tracer(i).Emit(obs.KindNodeJoin, uint64(i), int64(c.dir.Epoch()))
	return rt, nil
}

func (c *Cluster) isInactive(i int) bool {
	c.nmu.RLock()
	defer c.nmu.RUnlock()
	return c.inactive[i]
}

func (c *Cluster) tracer(i int) *obs.Tracer {
	if i >= 0 && i < len(c.tracers) {
		return c.tracers[i] // nil-safe: Emit on nil tracer is a no-op
	}
	return nil
}

// DirectoryInvariants audits placement after churn, on a quiescent cluster:
// the ring structure itself; every mobile object hosted by exactly one
// active node; drained nodes hosting nothing; ring membership matching node
// state (crashed-but-checkpointed nodes stay members, drained nodes do
// not). Returns human-readable violations, empty when healthy.
func (c *Cluster) DirectoryInvariants() []string {
	bad := c.dir.CheckInvariants()

	c.nmu.RLock()
	rts := make([]*core.Runtime, len(c.rts))
	copy(rts, c.rts)
	inactive := make([]bool, len(c.inactive))
	copy(inactive, c.inactive)
	crashed := make([]bool, len(c.ckpts))
	for i, ck := range c.ckpts {
		crashed[i] = ck != nil
	}
	c.nmu.RUnlock()

	hosts := make(map[core.MobilePtr]int)
	for i, rt := range rts {
		if inactive[i] {
			if crashed[i] {
				continue // its objects live in the checkpoint, not on a node
			}
			if n := rt.NumLocalObjects(); n != 0 {
				bad = append(bad, fmt.Sprintf("cluster: drained node %d still hosts %d objects", i, n))
			}
			continue
		}
		for _, ptr := range rt.LocalObjects() {
			hosts[ptr]++
		}
	}
	for ptr, n := range hosts {
		if n > 1 {
			bad = append(bad, fmt.Sprintf("cluster: object %v hosted by %d nodes", ptr, n))
		}
	}
	for i := range rts {
		inRing := c.dir.Contains(core.NodeID(i))
		wantIn := !inactive[i] || crashed[i]
		if inRing != wantIn {
			bad = append(bad, fmt.Sprintf("cluster: node %d ring membership %v, want %v (inactive=%v crashed=%v)",
				i, inRing, wantIn, inactive[i], crashed[i]))
		}
	}
	return bad
}
