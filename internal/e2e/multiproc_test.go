package e2e

import (
	"sync"
	"testing"
	"time"

	"mrts/internal/comm"
	"mrts/internal/core"
	"mrts/internal/meshgen"
	"mrts/internal/ooc"
	"mrts/internal/sched"
	"mrts/internal/storage"
)

const (
	e2eNodes    = 3
	e2eBlocks   = 6
	e2eElements = 3000
	e2ePhases   = 3
	e2eBudget   = 48 << 10 // small enough that blocks swap
)

func distCfg(nodes, node int) meshgen.DistConfig {
	return meshgen.DistConfig{
		Blocks:         e2eBlocks,
		TargetElements: e2eElements,
		Nodes:          nodes,
		Node:           node,
		Phases:         e2ePhases,
	}
}

// worker is one node of the in-process "multi-process" cluster: its own
// transport endpoint, runtime and SPMD driver — everything a meshnode
// process owns, minus the OS process boundary.
type worker struct {
	tn *comm.TCPNode
	rt *core.Runtime
	d  *meshgen.Dist
}

func startWorker(t *testing.T, seed string, want comm.NodeID) *worker {
	t.Helper()
	// The seed refuses to reissue an ID while it still believes the old
	// incarnation is up (leave/expiry processing races the rejoin), so a
	// relaunching node retries the join until the seed lets it back in —
	// exactly what cmd/meshnode does after a crash.
	var tn *comm.TCPNode
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		tn, err = comm.StartTCPNode(comm.TCPNodeConfig{
			Listen:         "127.0.0.1:0",
			Seed:           seed,
			WantID:         want,
			HeartbeatEvery: 20 * time.Millisecond,
			ExpireAfter:    250 * time.Millisecond,
		})
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("start node: %v", err)
	}
	// Like cmd/meshnode, the runtime routes with its default lazy
	// directory: each block's pointer names the node that holds it.
	rt := core.NewRuntime(core.Config{
		Endpoint: tn,
		Pool:     sched.NewWorkStealing(2),
		Factory:  meshgen.Factory,
		Mem:      ooc.Config{Budget: e2eBudget},
		Store:    storage.NewMem(),
	})
	d, err := meshgen.NewDist(rt, distCfg(e2eNodes, int(tn.Node())))
	if err != nil {
		t.Fatalf("dist node %d: %v", tn.Node(), err)
	}
	return &worker{tn: tn, rt: rt, d: d}
}

// runPhase executes one SPMD phase barrier across all workers.
func runPhase(ws []*worker, k int) {
	var wg sync.WaitGroup
	for _, w := range ws {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.d.PostPhase(k)
			w.d.WaitPhase()
		}()
	}
	wg.Wait()
}

// singleNodeBaseline runs the same problem on one node over the in-process
// transport and returns its dump.
func singleNodeBaseline(t *testing.T) []meshgen.BlockDump {
	t.Helper()
	tr := comm.NewInProc(1, comm.LatencyModel{})
	rt := core.NewRuntime(core.Config{
		Endpoint: tr.Endpoint(0),
		Pool:     sched.NewWorkStealing(2),
		Factory:  meshgen.Factory,
		Mem:      ooc.Config{Budget: e2eBudget},
		Store:    storage.NewMem(),
	})
	defer rt.Close()
	d, err := meshgen.NewDist(rt, distCfg(1, 0))
	if err != nil {
		t.Fatalf("baseline dist: %v", err)
	}
	if err := d.CreateBlocks(); err != nil {
		t.Fatalf("baseline create: %v", err)
	}
	for k := 0; k < e2ePhases; k++ {
		d.PostPhase(k)
		d.WaitPhase()
	}
	if d.Mismatches() != 0 {
		t.Fatalf("baseline saw %d interface mismatches", d.Mismatches())
	}
	return d.Dump()
}

// TestKillRejoinMatchesSingleNode is the e2e property the multi-process
// deployment is built around: a 3-node TCP cluster that loses one node after
// the first phase — its state checkpointed at the barrier, the node torn
// down, a fresh incarnation rejoined under the same node ID at a new address
// and restored — produces a mesh byte-identical to a single-node run, with
// every block reported exactly once (zero objects lost).
func TestKillRejoinMatchesSingleNode(t *testing.T) {
	// Workers route with the runtime's default lazy directory, as
	// cmd/meshnode does.
	t.Run("lazy", killRejoin)
}

func killRejoin(t *testing.T) {
	base := singleNodeBaseline(t)
	if len(base) != e2eBlocks*e2eBlocks {
		t.Fatalf("baseline dumped %d blocks, want %d", len(base), e2eBlocks*e2eBlocks)
	}

	seed := startWorker(t, "", 0)
	w1 := startWorker(t, seed.tn.Addr(), -1)
	w2 := startWorker(t, seed.tn.Addr(), -1)
	ws := []*worker{seed, w1, w2}
	for _, w := range ws {
		if err := w.tn.WaitMembers(e2eNodes, 5*time.Second); err != nil {
			t.Fatalf("node %d membership: %v", w.tn.Node(), err)
		}
	}
	if w2.tn.Node() != 2 {
		t.Fatalf("sequential join assigned node %d, want 2", w2.tn.Node())
	}
	for _, w := range ws {
		if err := w.d.CreateBlocks(); err != nil {
			t.Fatalf("node %d create: %v", w.tn.Node(), err)
		}
	}

	runPhase(ws, 0)

	// Kill node 2 at the barrier: checkpoint (what a worker process does at
	// every phase boundary), then tear the whole node down.
	ck := storage.NewMem()
	if err := w2.rt.Checkpoint(ck, "ck"); err != nil {
		t.Fatalf("checkpoint node 2: %v", err)
	}
	if err := w2.rt.Close(); err != nil {
		t.Fatalf("close runtime 2: %v", err)
	}
	w2.tn.Close()

	// Rejoin under the same node ID at a fresh address and restore.
	w2b := startWorker(t, seed.tn.Addr(), 2)
	if w2b.tn.Node() != 2 {
		t.Fatalf("rejoin assigned node %d, want 2", w2b.tn.Node())
	}
	if err := w2b.rt.Restore(ck, "ck"); err != nil {
		t.Fatalf("restore node 2: %v", err)
	}
	// The placement deals block idx to node idx mod e2eNodes.
	if n, want := w2b.rt.NumLocalObjects(), e2eBlocks*e2eBlocks/e2eNodes; n != want {
		t.Fatalf("restored node hosts %d blocks, placement assigns %d", n, want)
	}
	ws[2] = w2b
	for _, w := range ws {
		if err := w.tn.WaitMembers(e2eNodes, 5*time.Second); err != nil {
			t.Fatalf("node %d membership after rejoin: %v", w.tn.Node(), err)
		}
	}

	for k := 1; k < e2ePhases; k++ {
		runPhase(ws, k)
	}
	for _, w := range ws {
		if w.d.Mismatches() != 0 {
			t.Errorf("node %d saw %d interface mismatches", w.tn.Node(), w.d.Mismatches())
		}
	}

	ds := make([]*meshgen.Dist, len(ws))
	for i, w := range ws {
		ds[i] = w.d
	}
	got, err := meshgen.DumpAll(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(base) {
		t.Fatalf("cluster dumped %d blocks, baseline %d (object lost or duplicated)", len(got), len(base))
	}
	seen := make(map[[2]int]meshgen.BlockDump, len(got))
	for _, b := range got {
		key := [2]int{b.J, b.I}
		if _, dup := seen[key]; dup {
			t.Fatalf("block (%d,%d) reported twice", b.I, b.J)
		}
		seen[key] = b
	}
	for _, b := range base {
		g, ok := seen[[2]int{b.J, b.I}]
		if !ok {
			t.Fatalf("block (%d,%d) missing from cluster dump", b.I, b.J)
		}
		if g != b {
			t.Fatalf("block (%d,%d) diverged: cluster %v, baseline %v", b.I, b.J, g, b)
		}
	}

	for _, w := range ws {
		w.rt.Close()
		w.tn.Close()
	}
}
