// Node churn: graceful leave/join with object rebalancing, and whole-node
// crash/restart built on the checkpoint machinery.
//
// The rebalance drain rule: a membership change never copies the whole
// keyspace. On leave, only the departing node's objects move — dealt
// round-robin over the live nodes in (Home, Seq) order, the grid deal's rule;
// on join, only the objects born on the returning node move back to it,
// wherever they now live. Both are migration requests
// (core.Runtime.RequestMigration): one that finds its object still held by
// an eviction at the phase boundary waits on the object, an out-of-core
// object comes in through the swapio demand class first, and the Wait that
// ends the operation waits for every move. Routing needs no repair: each
// move tells the object's home node, as any migration does.
//
// All churn operations require a quiescent cluster (call Wait first): they
// reshape placement between computation phases, mirroring how the
// multi-process deployment checkpoints and rebalances only at phase
// barriers.
package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"mrts/internal/core"
	"mrts/internal/obs"
	"mrts/internal/storage"
)

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

// LeaveNode gracefully takes node i out of service and deals every object it
// holds round-robin over the live nodes, in (Home, Seq) order. The node's
// runtime stays up as a forwarding shell — in-flight references through it
// still resolve — but it hosts no objects until JoinNode. Returns the number
// of objects drained.
func (c *Cluster) LeaveNode(i int) (int, error) {
	c.nmu.Lock()
	if i < 0 || i >= len(c.rts) || c.inactive[i] {
		c.nmu.Unlock()
		return 0, fmt.Errorf("cluster: node %d absent or already inactive", i)
	}
	var live []core.NodeID
	for j, gone := range c.inactive {
		if !gone && j != i {
			live = append(live, core.NodeID(j))
		}
	}
	if len(live) == 0 {
		c.nmu.Unlock()
		return 0, fmt.Errorf("cluster: cannot drain the last active node")
	}
	c.inactive[i] = true
	rt := c.rts[i]
	c.nmu.Unlock()
	c.tracer(i).Emit(obs.KindNodeLeave, uint64(i), int64(len(live)))

	ptrs := rt.LocalObjects()
	slices.SortFunc(ptrs, func(a, b core.MobilePtr) int {
		return cmp.Or(cmp.Compare(a.Home, b.Home), cmp.Compare(a.Seq, b.Seq))
	})
	for k, ptr := range ptrs {
		c.rebalance(rt, ptr, live[k%len(live)])
	}
	c.Wait() // let the last installs land before the caller resumes posting
	return len(ptrs), nil
}

// JoinNode returns a drained node to service and pulls back every object
// born on it (ptr.Home == i), wherever it now lives. Returns the number of
// objects moved to it.
func (c *Cluster) JoinNode(i int) (int, error) {
	c.nmu.Lock()
	if i < 0 || i >= len(c.rts) || !c.inactive[i] || c.ckpts[i] != nil {
		c.nmu.Unlock()
		return 0, fmt.Errorf("cluster: node %d is not a drained member", i)
	}
	c.inactive[i] = false
	c.nmu.Unlock()
	c.tracer(i).Emit(obs.KindNodeJoin, uint64(i), int64(c.ActiveNodes()))

	moved := 0
	for j, rt := range c.Runtimes() {
		if j == i || c.isInactive(j) {
			continue
		}
		for _, ptr := range rt.LocalObjects() {
			if ptr.Home == core.NodeID(i) {
				c.rebalance(rt, ptr, core.NodeID(i))
				moved++
			}
		}
	}
	c.Wait()
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
// is down, not departed — exactly like a real worker that will be relaunched
// with the same node ID — so its objects stay in its checkpoint. Only plain
// disk clusters support crash/restart; remote-memory and tiered stacks share
// state through the transport that dies with the runtime.
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
	c.tracer(i).Emit(obs.KindNodeLeave, uint64(i), int64(c.ActiveNodes()))
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
	c.tracer(i).Emit(obs.KindNodeJoin, uint64(i), int64(c.ActiveNodes()))
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
// every mobile object hosted by exactly one active node, drained nodes
// hosting nothing, and a crash checkpoint held only by a node that is down.
// Returns human-readable violations, empty when healthy.
func (c *Cluster) DirectoryInvariants() []string {
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

	var bad []string
	hosts := make(map[core.MobilePtr]int)
	for i, rt := range rts {
		switch {
		case crashed[i] && !inactive[i]:
			bad = append(bad, fmt.Sprintf("cluster: node %d is in service but holds a crash checkpoint", i))
		case crashed[i]:
			continue // its objects live in the checkpoint, not on a node
		case inactive[i]:
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
	return bad
}
