package meshgen

import (
	"fmt"
	"testing"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/core"
	"mrts/internal/storage"
)

// faultTestCluster builds a swapping 2-node cluster over memory-backed
// stores with the given fault config and retry policy.
func faultTestCluster(t *testing.T, fault *storage.FaultConfig, retry storage.RetryPolicy, onSwap func(int, core.SwapError)) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Nodes:       2,
		MemBudget:   200_000, // tiny: blocks must swap, exercising the fault paths
		Factory:     Factory,
		Fault:       fault,
		Retry:       retry,
		OnSwapError: onSwap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestOUPDRTransientFaultsProduceIdenticalMesh is the tentpole acceptance
// test: an out-of-core OUPDR run whose every store key fails twice before
// succeeding must complete with exactly the fault-free mesh — the retry
// layer absorbs the faults and nothing is lost, the blocks read back
// included.
func TestOUPDRTransientFaultsProduceIdenticalMesh(t *testing.T) {
	cfg := UPDRConfig{Blocks: 4, TargetElements: 12000}
	ref, err := RunOUPDR(newTestCluster(t, 2, 1<<30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := faultTestCluster(t, nil, storage.RetryPolicy{}, nil)
	want, err := RunOUPDR(clean, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Mem.Evictions == 0 {
		t.Fatal("fault-free run never swapped; the budget must force eviction")
	}

	cl := faultTestCluster(t,
		&storage.FaultConfig{Seed: 7, FailFirstGets: 2, FailFirstPuts: 2},
		storage.RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond},
		nil)
	got, err := RunOUPDR(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Elements != want.Elements {
		t.Errorf("transient faults changed the mesh: %d vs %d elements", got.Elements, want.Elements)
	}
	for _, r := range []Result{want, got} {
		if r.MeshHash != ref.MeshHash {
			t.Errorf("out-of-core MeshHash %s, in-core %s", r.MeshHash, ref.MeshHash)
		}
	}
	if !got.Conforming {
		t.Error("interfaces no longer conform under transient faults")
	}
	// The re-read loads every evicted block through the faulty store too.
	checkReread(t, cl, cfg.Blocks, ref.MeshHash)
	s := cl.SwapStats()
	if s.ObjectsLost != 0 || s.LoadFailures != 0 || s.StoreFailures != 0 {
		t.Errorf("transient faults leaked into SwapStats: %+v", s)
	}
	if s.Retries == 0 {
		t.Error("no retries recorded; the fault injection did not engage")
	}
}

// TestOUPDRPermanentFaultsFailLoudly: with every reload failing permanently,
// swapped-out blocks are lost — the run must surface non-zero ObjectsLost
// and SwapError callbacks, fail if it lost a block itself, and the cluster
// must still terminate.
func TestOUPDRPermanentFaultsFailLoudly(t *testing.T) {
	done := make(chan struct{}, 1)
	cl := faultTestCluster(t,
		&storage.FaultConfig{Seed: 7, GetFailProb: 1, Permanent: true},
		storage.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond},
		func(node int, e core.SwapError) {
			select {
			case done <- struct{}{}:
			default:
			}
		})

	res, err := RunOUPDR(cl, UPDRConfig{Blocks: 4, TargetElements: 12000})
	s := cl.SwapStats()
	if s.ObjectsLost > 0 && err == nil {
		t.Fatalf("the run lost %d blocks and returned no error: %v, MeshHash %s", s.ObjectsLost, res, res.MeshHash)
	}
	if s.ObjectsLost == 0 {
		// Whether the run itself revisits an evicted block depends on
		// scheduling (under -race the interface messages often land before
		// any eviction). Force the issue: reload whatever ended the run out
		// of core — with every Get failing permanently, any swapped-out
		// block must surface as lost.
		forced := false
		for _, rt := range cl.Runtimes() {
			for _, p := range rt.LocalObjects() {
				if !rt.InCore(p) {
					rt.Prefetch(p)
					forced = true
				}
			}
		}
		if !forced {
			t.Fatal("no block was ever evicted; the budget must force swapping")
		}
		cl.Wait()
		s = cl.SwapStats()
	}
	if s.ObjectsLost == 0 || s.LoadFailures == 0 {
		t.Fatalf("permanent faults were silent: %+v (err=%v)", s, err)
	}
	select {
	case <-done:
	default:
		t.Error("OnSwapError never fired for a permanent fault")
	}
	var errs []core.SwapError
	for _, rt := range cl.Runtimes() {
		errs = append(errs, rt.SwapErrors()...)
	}
	if len(errs) == 0 {
		t.Error("no SwapErrors recorded on any node")
	}
	for _, e := range errs {
		if e.Op != core.SwapLoad || !e.Lost {
			t.Errorf("unexpected swap error shape: %+v", e)
		}
	}
}

// TestOUPDRLostBlockFailsTheRun: a block lost on a failed load fails the run;
// it does not drop out of the MeshHash. On one node with room for one meshed
// block, block (0,0) — meshed first, never sent a message — is out of core
// when meshing ends, and the export must read it back from a store that
// refuses exactly its key.
func TestOUPDRLostBlockFailsTheRun(t *testing.T) {
	cfg := UPDRConfig{Blocks: 2, TargetElements: 4000}
	// Blocks are created top-right first, so (0,0) is the node's last object.
	lost := storage.Key(fmt.Sprintf("obj-0-%d", cfg.Blocks*cfg.Blocks))
	cl, err := cluster.New(cluster.Config{
		Nodes:          1,
		WorkersPerNode: 1,
		MemBudget:      30_000, // one ~20 KB meshed block
		Factory:        Factory,
		Fault:          &storage.FaultConfig{GetFailProb: 1, Permanent: true, Keys: []storage.Key{lost}},
		Retry:          storage.RetryPolicy{MaxAttempts: 2, BaseDelay: 50 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, w := exportWriter(t, cfg, false)
	cfg.Export = w
	res, err := RunOUPDR(cl, cfg)
	if err == nil {
		t.Fatalf("block (0,0) was lost and the run returned no error: %v, MeshHash %s, %d blocks framed",
			res, res.MeshHash, w.Blocks())
	}
	if s := cl.SwapStats(); s.ObjectsLost != 1 {
		t.Fatalf("%d objects lost, want block (0,0) alone: %+v", s.ObjectsLost, s)
	}
	t.Logf("run error: %v", err)
}

// TestOPCDMLostSubdomainFailsTheRun: a subdomain lost on a failed load fails
// the run, although the report its refinement before the loss recorded is
// still there and the audit may pass. On one node with room for about one
// refined subdomain, subdomain (1,0) is usually out of core when splits
// come back to it, and the store refuses exactly its key, the one its
// placement pointer names. Whether its eviction lands before those splits do is up
// to the schedule (under -race, about one run in thirty keeps it resident),
// so a run that lost nothing is repeated on a fresh cluster.
func TestOPCDMLostSubdomainFailsTheRun(t *testing.T) {
	cfg := PCDMConfig{Grid: 2, TargetElements: 4000}
	ptr := newGrid(nil, cfg.Grid*cfg.Grid, 1, 0, 1).ptrs[1] // subdomain (1,0)
	lost := storage.Key(fmt.Sprintf("obj-%d-%d", ptr.Home, ptr.Seq))
	for attempt := 1; attempt <= 5; attempt++ {
		cl, err := cluster.New(cluster.Config{
			Nodes:          1,
			WorkersPerNode: 1,
			MemBudget:      30_000,
			Factory:        Factory,
			Fault:          &storage.FaultConfig{GetFailProb: 1, Permanent: true, Keys: []storage.Key{lost}},
			Retry:          storage.RetryPolicy{MaxAttempts: 2, BaseDelay: 50 * time.Microsecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunOPCDM(cl, cfg)
		s := cl.SwapStats()
		cl.Close()
		switch {
		case s.ObjectsLost == 0 && err != nil:
			t.Fatalf("attempt %d lost nothing and failed: %v", attempt, err)
		case s.ObjectsLost == 0:
			continue
		case s.ObjectsLost != 1:
			t.Fatalf("%d objects lost, want subdomain (1,0) alone: %+v (run: %v, %v)", s.ObjectsLost, s, res, err)
		case err == nil:
			t.Fatalf("subdomain (1,0) was lost and the run returned no error: %v", res)
		}
		t.Logf("attempt %d: run error: %v", attempt, err)
		return
	}
	t.Fatal("subdomain (1,0) was never reloaded in 5 runs: the budget did not bite")
}
