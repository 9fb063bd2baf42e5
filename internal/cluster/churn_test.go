package cluster

import (
	"slices"
	"testing"

	"mrts/internal/core"
)

func newChurnCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Nodes:     nodes,
		MemBudget: 1 << 20,
		Factory:   ballastFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func registerInc(rts []*core.Runtime) {
	for _, rt := range rts {
		rt.Register(1, func(ctx *core.Ctx, arg []byte) {
			ctx.Object().(*ballastObj).N++
		})
	}
}

func postAll(c *Cluster, ptrs []core.MobilePtr) {
	for i, p := range ptrs {
		c.RT(i%c.Nodes()).Post(p, 1, nil)
	}
	c.Wait()
}

func readCounts(t *testing.T, c *Cluster, ptrs []core.MobilePtr) map[core.MobilePtr]int64 {
	t.Helper()
	got := make(map[core.MobilePtr]int64)
	for _, p := range ptrs {
		for _, rt := range c.Runtimes() {
			rt := rt
			if !rt.IsLocal(p) {
				continue
			}
			var v int64
			done := make(chan struct{})
			rt.Register(2, func(ctx *core.Ctx, arg []byte) {
				v = ctx.Object().(*ballastObj).N
				close(done)
			})
			rt.Post(p, 2, nil)
			<-done
			got[p] = v
			break
		}
	}
	return got
}

// bornOn counts, per node, the hosted objects born on node home.
func bornOn(c *Cluster, home core.NodeID) []int {
	out := make([]int, c.Nodes())
	for i, rt := range c.Runtimes() {
		for _, p := range rt.LocalObjects() {
			if p.Home == home {
				out[i]++
			}
		}
	}
	return out
}

// Graceful leave deals the node's objects round-robin over the live nodes;
// rejoin pulls back exactly the objects born on it. No object is lost, every
// post lands, and the directory invariants hold throughout.
func TestLeaveJoinRebalance(t *testing.T) {
	c := newChurnCluster(t, 4)
	registerInc(c.Runtimes())

	var ptrs []core.MobilePtr
	for i := 0; i < 32; i++ {
		ptrs = append(ptrs, c.RT(i%4).CreateObject(&ballastObj{Data: make([]byte, 64)}))
	}
	postAll(c, ptrs)

	moved, err := c.LeaveNode(2)
	if err != nil {
		t.Fatalf("LeaveNode: %v", err)
	}
	if moved != 8 {
		t.Errorf("drained %d objects off node 2, want its 8", moved)
	}
	if n := c.RT(2).NumLocalObjects(); n != 0 {
		t.Fatalf("node 2 still hosts %d objects after drain", n)
	}
	if bad := c.DirectoryInvariants(); len(bad) > 0 {
		t.Fatalf("after leave: %v", bad)
	}
	if c.ActiveNodes() != 3 {
		t.Fatalf("active=%d, want 3", c.ActiveNodes())
	}
	// Dealt in (Home, Seq) order over live nodes 0, 1 and 3.
	if got, want := bornOn(c, 2), []int{3, 3, 0, 2}; !slices.Equal(got, want) {
		t.Fatalf("node 2's objects dealt %v over the nodes, want %v", got, want)
	}

	// Posting keeps working while the node is out: messages to its old
	// objects follow the migration's directory updates.
	postAll(c, ptrs)

	back, err := c.JoinNode(2)
	if err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	if back != 8 {
		t.Errorf("rejoin pulled back %d objects, want the 8 born on node 2", back)
	}
	if got, want := bornOn(c, 2), []int{0, 0, 8, 0}; !slices.Equal(got, want) {
		t.Fatalf("objects born on node 2 hosted %v after rejoin, want %v", got, want)
	}
	if bad := c.DirectoryInvariants(); len(bad) > 0 {
		t.Fatalf("after join: %v", bad)
	}
	postAll(c, ptrs)

	total := 0
	for _, rt := range c.Runtimes() {
		total += rt.NumLocalObjects()
	}
	if total != 32 {
		t.Fatalf("object count %d after churn, want 32", total)
	}
	for p, n := range readCounts(t, c, ptrs) {
		if n != 3 {
			t.Errorf("object %v counted %d increments, want 3", p, n)
		}
	}
	if got := c.Metrics()["cluster.rebalanced_objects"]; got != float64(moved+back) {
		t.Errorf("cluster.rebalanced_objects = %v, want %d", got, moved+back)
	}
}

// TestRoutedSendsRaceChurn storms posts without waiting for delivery before
// a leave and a rejoin move the objects under them: sends routed by the
// directory's stale chains must still land exactly once, nothing may die at
// the forward-hop bound, and the placement invariants hold at each boundary.
// Under -race this is the locking story for the Locator seam's repair path
// racing real churn.
func TestRoutedSendsRaceChurn(t *testing.T) {
	c := newChurnCluster(t, 4)
	registerInc(c.Runtimes())

	var ptrs []core.MobilePtr
	for i := 0; i < 32; i++ {
		ptrs = append(ptrs, c.RT(i%4).CreateObject(&ballastObj{Data: make([]byte, 64)}))
	}

	// postBatch fires one post per object from a rotating sender and does
	// NOT wait: the batch is in flight when the caller churns.
	batches := 0
	postBatch := func() {
		for i, p := range ptrs {
			c.RT((i+batches)%4).Post(p, 1, nil)
		}
		batches++
	}

	postBatch() // racing the leave below
	if _, err := c.LeaveNode(2); err != nil {
		t.Fatalf("LeaveNode: %v", err)
	}
	if bad := c.DirectoryInvariants(); len(bad) > 0 {
		t.Fatalf("after leave: %v", bad)
	}
	postBatch() // posts while the node is out, racing the rejoin below
	if _, err := c.JoinNode(2); err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	if bad := c.DirectoryInvariants(); len(bad) > 0 {
		t.Fatalf("after join: %v", bad)
	}
	postBatch()
	c.Wait()

	for p, n := range readCounts(t, c, ptrs) {
		if n != int64(batches) {
			t.Errorf("object %v received %d of %d posts", p, n, batches)
		}
	}
	if d := c.RouteStats().Dropped; d != 0 {
		t.Fatalf("%d messages died at the forward-hop bound", d)
	}
}

// Crash + restart: the node's state survives through the checkpoint, its
// slot gets a fresh runtime, and computation resumes with nothing lost.
func TestCrashRestartNode(t *testing.T) {
	c := newChurnCluster(t, 3)
	registerInc(c.Runtimes())

	var ptrs []core.MobilePtr
	for i := 0; i < 12; i++ {
		ptrs = append(ptrs, c.RT(i%3).CreateObject(&ballastObj{Data: make([]byte, 64)}))
	}
	postAll(c, ptrs)

	if err := c.CrashNode(1); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	if bad := c.DirectoryInvariants(); len(bad) > 0 {
		t.Fatalf("during outage: %v", bad)
	}
	if _, err := c.JoinNode(1); err == nil {
		t.Fatal("a crashed node must come back by RestartNode, not JoinNode")
	}

	rt, err := c.RestartNode(1)
	if err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	if rt != c.RT(1) {
		t.Fatal("restarted runtime not installed in its slot")
	}
	registerInc([]*core.Runtime{rt}) // a fresh process re-registers handlers
	if bad := c.DirectoryInvariants(); len(bad) > 0 {
		t.Fatalf("after restart: %v", bad)
	}
	if n := rt.NumLocalObjects(); n != 4 {
		t.Fatalf("restored node hosts %d objects, want 4", n)
	}

	postAll(c, ptrs)
	for p, n := range readCounts(t, c, ptrs) {
		if n != 2 {
			t.Errorf("object %v counted %d increments, want 2", p, n)
		}
	}

	// A second crash of the same node must also work (fresh slot state).
	if err := c.CrashNode(1); err != nil {
		t.Fatalf("second CrashNode: %v", err)
	}
	if _, err := c.RestartNode(1); err != nil {
		t.Fatalf("second RestartNode: %v", err)
	}
}

func TestChurnValidation(t *testing.T) {
	c := newChurnCluster(t, 2)
	if _, err := c.LeaveNode(5); err == nil {
		t.Error("LeaveNode out of range must fail")
	}
	if _, err := c.JoinNode(0); err == nil {
		t.Error("JoinNode of an active node must fail")
	}
	if _, err := c.RestartNode(0); err == nil {
		t.Error("RestartNode without a crash must fail")
	}
	if _, err := c.LeaveNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LeaveNode(0); err == nil {
		t.Error("draining the last active node must fail")
	}
	if err := c.CrashNode(1); err == nil {
		t.Error("crashing a drained node must fail")
	}
	if _, err := c.JoinNode(1); err != nil {
		t.Fatal(err)
	}
}
