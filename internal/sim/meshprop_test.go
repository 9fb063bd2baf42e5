package sim

import (
	"encoding/json"
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

// faultConfig is the cluster of one fault schedule: a tiny budget, modeled
// network and disk latency, a slow node and transient storage faults
// absorbed by seeded-backoff retry, all on vclk.
func faultConfig(seed int64, vclk *clock.Virtual) cluster.Config {
	return cluster.Config{
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
	}
}

// TestMeshFaultEqualityProperty is the paper's central claim as a property
// test: for every seed, an out-of-core run on the seed's fault schedule
// (faultConfig) produces a mesh identical to the in-core run, and every
// block reads back from the swap path unchanged. ONUPDR on the same
// schedule makes the in-core NUPDR mesh of one PE.
func TestMeshFaultEqualityProperty(t *testing.T) {
	want := inCoreReference(t)
	one := nupdrPropConfig
	one.PEs = 1
	wantNUPDR, err := meshgen.RunNUPDR(one)
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= meshPropSeeds; seed++ {
		vclk := clock.NewVirtual()
		cl, err := cluster.New(faultConfig(seed, vclk))
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
		checkNUPDRUnderFaults(t, seed, wantNUPDR)
	}
}

// nupdrPropConfig is a graded mesh of about 10 000 elements in some twenty
// quad-tree leaves.
var nupdrPropConfig = meshgen.NUPDRConfig{TargetElements: 7000, MaxLeafElems: 500, Quality: true}

// checkNUPDRUnderFaults runs ONUPDR on seed's fault schedule and checks it
// makes want, the in-core build's mesh on one PE: the same counts and
// quality report, the method's name aside.
func checkNUPDRUnderFaults(t *testing.T, seed int64, want meshgen.Result) {
	t.Helper()
	vclk := clock.NewVirtual()
	defer vclk.Stop()
	cl, err := cluster.New(faultConfig(seed, vclk))
	if err != nil {
		t.Fatal(err)
	}
	got, err := meshgen.RunONUPDR(cl, nupdrPropConfig)
	stats := cl.SwapStats()
	cl.Close()
	if err != nil {
		t.Fatalf("seed %d: ONUPDR: %v", seed, err)
	}
	t.Logf("seed %d: %v, %d evictions, %d loads, %d retries", seed, got, got.Mem.Evictions, got.Mem.Loads, stats.Retries)
	if got.Mem.Evictions == 0 || stats.Retries == 0 {
		t.Errorf("seed %d: ONUPDR made %d evictions and %d retries; the property was not exercised", seed, got.Mem.Evictions, stats.Retries)
	}
	if got.Elements != want.Elements || got.Vertices != want.Vertices || !got.Conforming {
		t.Errorf("seed %d: ONUPDR has %d elements, %d vertices, conforming %v; 1-PE NUPDR %d, %d",
			seed, got.Elements, got.Vertices, got.Conforming, want.Elements, want.Vertices)
	}
	if reportJSON(t, got.Quality) != reportJSON(t, want.Quality) {
		t.Errorf("seed %d: ONUPDR's report differs from 1-PE NUPDR's, NUPDR | ONUPDR:\n%s",
			seed, meshgen.QualityDiff(want.Quality, got.Quality))
	}
	if stats.ObjectsLost != 0 || stats.LoadFailures != 0 || stats.StoreFailures != 0 {
		t.Errorf("seed %d: transient faults leaked into ONUPDR's SwapStats: %+v", seed, stats)
	}
}

// reportJSON is q as JSON without the method's name.
func reportJSON(t *testing.T, q *meshgen.Quality) string {
	t.Helper()
	if q == nil {
		t.Fatal("a run without a quality report")
	}
	var m map[string]any
	b, err := json.Marshal(q)
	if err == nil {
		err = json.Unmarshal(b, &m)
	}
	if err != nil {
		t.Fatal(err)
	}
	delete(m, "method")
	b, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
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
