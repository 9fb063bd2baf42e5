package sim

import (
	"testing"
	"time"

	"mrts/internal/clock"
	"mrts/internal/cluster"
	"mrts/internal/comm"
	"mrts/internal/meshgen"
	"mrts/internal/storage"
)

// meshPropSeeds is how many random fault schedules the mesh equality
// property explores per run. Each seed reshapes the schedule end to end:
// work-stealing victims, retry jitter, fault injection, modeled disk and
// network latency all derive from it.
const meshPropSeeds = 3

// meshPropConfig mirrors the meshgen fault suite's proven-deterministic
// workload: four blocks refined to ~12k elements on two nodes.
var meshPropConfig = meshgen.UPDRConfig{Blocks: 4, TargetElements: 12000}

// inCoreReference runs the mesh generation once with a budget so large
// nothing ever swaps: the ground truth the out-of-core runs must reproduce.
func inCoreReference(t *testing.T) meshgen.Result {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Nodes:     2,
		MemBudget: 1 << 30,
		Factory:   meshgen.Factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	res, err := meshgen.RunOUPDR(cl, meshPropConfig)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.Evictions != 0 {
		t.Fatalf("in-core reference evicted %d objects; budget too small for a true in-core run", res.Mem.Evictions)
	}
	return res
}

// checkMeshProp checks a finished out-of-core run against the in-core one:
// the same MeshHash, and the blocks read back through the faulty swap path
// digest to it too (the run's MeshHash is taken as the blocks are meshed).
func checkMeshProp(t *testing.T, seed int64, cl *cluster.Cluster, got, want meshgen.Result) {
	t.Helper()
	if got.MeshHash != want.MeshHash {
		t.Errorf("seed %d: out-of-core MeshHash %s, in-core %s", seed, got.MeshHash, want.MeshHash)
	}
	dump, err := meshgen.RereadDigests(cl, meshPropConfig.Blocks)
	if err != nil {
		t.Errorf("seed %d: re-read: %v", seed, err)
	} else if h := meshgen.MeshHashOf(dump); h != want.MeshHash {
		t.Errorf("seed %d: the blocks read back digest to %s, in-core %s", seed, h, want.MeshHash)
	}
}

// TestMeshFaultEqualityProperty is the paper's central claim as a property
// test: for every seed, an out-of-core run — tiny budget, modeled network
// and disk latency, a slow node, transient storage faults absorbed by
// seeded-backoff retry, all on virtual time — produces a mesh identical to
// the in-core run, and every block reads back from the swap path unchanged.
func TestMeshFaultEqualityProperty(t *testing.T) {
	want := inCoreReference(t)

	for seed := int64(1); seed <= meshPropSeeds; seed++ {
		vclk := clock.NewVirtual()
		cl, err := cluster.New(cluster.Config{
			Nodes:     2,
			MemBudget: 200_000, // tiny: blocks must swap under faults
			Factory:   meshgen.Factory,
			Clock:     vclk,
			Seed:      seed,
			Network:   comm.LatencyModel{Latency: time.Duration(50*(seed%5)) * time.Microsecond, BytesPerSec: 100e6},
			NodeDisk: func(node int) storage.DiskModel {
				d := storage.DiskModel{Seek: time.Duration(100+50*seed) * time.Microsecond, BytesPerSec: 50e6}
				if node == int(seed)%2 {
					d.Seek *= 4 // one slow node per schedule
				}
				return d
			},
			Fault: &storage.FaultConfig{
				Seed:          seed,
				FailFirstGets: int(1 + seed%2),
				FailFirstPuts: int(1 + seed%2),
			},
			Retry: storage.RetryPolicy{
				MaxAttempts: 5,
				BaseDelay:   50 * time.Microsecond,
				MaxDelay:    time.Millisecond,
				Seed:        seed,
				Clock:       vclk,
			},
		})
		if err != nil {
			vclk.Stop()
			t.Fatal(err)
		}
		got, err := meshgen.RunOUPDR(cl, meshPropConfig)
		if err == nil {
			checkMeshProp(t, seed, cl, got, want)
		}
		stats := cl.SwapStats()
		cl.Close()
		vclk.Stop()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Mem.Evictions == 0 {
			t.Errorf("seed %d: out-of-core run never swapped; the property was not exercised", seed)
		}
		if got.Elements != want.Elements {
			t.Errorf("seed %d: out-of-core mesh has %d elements, in-core has %d", seed, got.Elements, want.Elements)
		}
		if !got.Conforming {
			t.Errorf("seed %d: submesh interfaces no longer conform", seed)
		}
		if stats.ObjectsLost != 0 || stats.LoadFailures != 0 || stats.StoreFailures != 0 {
			t.Errorf("seed %d: transient faults leaked into SwapStats: %+v", seed, stats)
		}
		if stats.Retries == 0 {
			t.Errorf("seed %d: no retries recorded; the fault injection did not engage", seed)
		}
	}
}

// TestMeshFaultEqualityPropertyTiered repeats the equality property on the
// tiered hierarchy: remote memory with a bounded lease fronting the faulty,
// latency-modeled disk, while the remote tier takes its own transient fault
// schedule. Placement decisions (admit, spill, demote) and tier-0
// faults must be invisible to the mesh: same elements and MeshHash, blocks
// that read back unchanged, conforming interfaces, nothing lost.
func TestMeshFaultEqualityPropertyTiered(t *testing.T) {
	want := inCoreReference(t)

	for seed := int64(1); seed <= meshPropSeeds; seed++ {
		vclk := clock.NewVirtual()
		cl, err := cluster.New(cluster.Config{
			Nodes:        2,
			MemBudget:    200_000, // tiny: blocks must swap under faults
			Factory:      meshgen.Factory,
			Clock:        vclk,
			Seed:         seed,
			RemoteMemory: true,
			Tier: &cluster.TierSpec{
				Capacity: 30_000, // a fraction of the spilled bytes: forces both tiers into play
				Fault: &storage.FaultConfig{
					Seed:          seed * 31,
					FailFirstGets: 1,
					FailFirstPuts: 1,
				},
			},
			Network: comm.LatencyModel{Latency: time.Duration(50*(seed%5)) * time.Microsecond, BytesPerSec: 100e6},
			NodeDisk: func(node int) storage.DiskModel {
				d := storage.DiskModel{Seek: time.Duration(100+50*seed) * time.Microsecond, BytesPerSec: 50e6}
				if node == int(seed)%2 {
					d.Seek *= 4 // one slow node per schedule
				}
				return d
			},
			Fault: &storage.FaultConfig{
				Seed:          seed,
				FailFirstGets: int(1 + seed%2),
				FailFirstPuts: int(1 + seed%2),
			},
			Retry: storage.RetryPolicy{
				MaxAttempts: 5,
				BaseDelay:   50 * time.Microsecond,
				MaxDelay:    time.Millisecond,
				Seed:        seed,
				Clock:       vclk,
			},
		})
		if err != nil {
			vclk.Stop()
			t.Fatal(err)
		}
		got, err := meshgen.RunOUPDR(cl, meshPropConfig)
		if err == nil {
			checkMeshProp(t, seed, cl, got, want)
		}
		stats := cl.SwapStats()
		ts := cl.TierStats()
		var violations []string
		for _, s := range cl.Tiers() {
			s.WaitIdle()
			violations = append(violations, s.CheckInvariants(true)...)
		}
		cl.Close()
		vclk.Stop()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Mem.Evictions == 0 {
			t.Errorf("seed %d: out-of-core run never swapped; the property was not exercised", seed)
		}
		if got.Elements != want.Elements {
			t.Errorf("seed %d: tiered mesh has %d elements, in-core has %d", seed, got.Elements, want.Elements)
		}
		if !got.Conforming {
			t.Errorf("seed %d: submesh interfaces no longer conform", seed)
		}
		if stats.ObjectsLost != 0 || stats.LoadFailures != 0 || stats.StoreFailures != 0 {
			t.Errorf("seed %d: transient faults leaked into SwapStats: %+v", seed, stats)
		}
		if len(violations) > 0 {
			t.Errorf("seed %d: tier invariants: %v", seed, violations)
		}
		if ts.FastPuts == 0 || ts.Spills == 0 {
			t.Errorf("seed %d: both tiers were not exercised: %+v", seed, ts)
		}
		if stats.Retries+ts.FastPutErrors+ts.FastReadErrors == 0 {
			t.Errorf("seed %d: no fault was ever absorbed; the injection did not engage", seed)
		}
	}
}
