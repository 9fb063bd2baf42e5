package main

import (
	"fmt"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/meshgen"
	"mrts/internal/obs"
)

// meshCase is one of the three mesh generation workloads: a cluster shape,
// the out-of-core method run on it, and the in-core build of the same input
// that the result is checked against.
type meshCase struct {
	name   string
	target func(sz sizes) int
	// cluster returns the configuration of the cluster that meshes target
	// elements, spooling under spool (to the memory store when empty).
	cluster func(sz sizes, target int, spool string) cluster.Config
	method  func(cl *cluster.Cluster, sz sizes, target int) (meshgen.Result, error)
	incore  func(sz sizes, target int) (meshgen.Result, error)
	// check adds the workload's own pass/fail rules to a finished run.
	check func(r *runResult)
	// hashed says the method reports a MeshHash, which the reference then
	// reproduces on a single node that never swaps.
	hashed bool
}

var oupdrCase = meshCase{
	name:   wOUPDR,
	target: func(sz sizes) int { return sz.oupdrTarget },
	cluster: func(sz sizes, target int, spool string) cluster.Config {
		const nodes = 2
		return cluster.Config{
			Nodes: nodes, WorkersPerNode: 1,
			MemBudget: int64(target) * bytesPerElement / 4 / nodes,
			SpoolDir:  spool, Network: modelNetwork, Disk: modelDisk,
		}
	},
	method: func(cl *cluster.Cluster, sz sizes, target int) (meshgen.Result, error) {
		return meshgen.RunOUPDR(cl, meshgen.UPDRConfig{Blocks: sz.oupdrBlocks, TargetElements: target})
	},
	incore: func(sz sizes, target int) (meshgen.Result, error) {
		return meshgen.RunUPDR(meshgen.UPDRConfig{Blocks: sz.oupdrBlocks, TargetElements: target, PEs: 2})
	},
	hashed: true,
}

var onupdrCase = meshCase{
	name:   wONUPDR,
	target: func(sz sizes) int { return sz.onupdrTarget },
	cluster: func(sz sizes, target int, spool string) cluster.Config {
		return cluster.Config{
			Nodes: 1, WorkersPerNode: 2,
			MemBudget: int64(target) * bytesPerElement * 6,
			SpoolDir:  spool,
		}
	},
	method: func(cl *cluster.Cluster, sz sizes, target int) (meshgen.Result, error) {
		return meshgen.RunONUPDR(cl, meshgen.NUPDRConfig{TargetElements: target, MaxLeafElems: target / 60})
	},
	incore: func(sz sizes, target int) (meshgen.Result, error) {
		return meshgen.RunNUPDR(meshgen.NUPDRConfig{TargetElements: target, MaxLeafElems: target / 60, PEs: 2})
	},
	// The bypass prediction rests on this: with memory to spare the swap
	// path must do nothing at all.
	check: func(r *runResult) {
		if ev, ld := r.Layer["ooc.evictions"], r.Layer["ooc.loads"]; ev != 0 || ld != 0 {
			r.fail("in-core run swapped: %v evictions, %v loads", ev, ld)
		}
	},
}

var opcdmCase = meshCase{
	name:   wOPCDM,
	target: func(sz sizes) int { return sz.opcdmTarget },
	cluster: func(sz sizes, target int, spool string) cluster.Config {
		const nodes = 2
		lease := int64(target) * bytesPerElement / 6 / nodes
		return cluster.Config{
			Nodes: nodes, WorkersPerNode: 1,
			MemBudget:    int64(target) * bytesPerElement / 3 / nodes,
			RemoteMemory: true,
			Tier: &cluster.TierSpec{
				Capacity: lease,
				Compress: &cluster.CompressSpec{CacheBytes: lease / 2},
			},
			SpoolDir: spool, Network: modelNetwork, Disk: modelDisk,
		}
	},
	method: func(cl *cluster.Cluster, sz sizes, target int) (meshgen.Result, error) {
		return meshgen.RunOPCDM(cl, meshgen.PCDMConfig{Grid: sz.opcdmGrid, TargetElements: target})
	},
	incore: func(sz sizes, target int) (meshgen.Result, error) {
		return meshgen.RunPCDM(meshgen.PCDMConfig{Grid: sz.opcdmGrid, TargetElements: target, PEs: 2})
	},
}

// noSwapCluster is one node with 2 workers and memory for six times the
// mesh: the MRTS with nothing to swap.
func noSwapCluster(e env, target int) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		Nodes: 1, WorkersPerNode: 2,
		MemBudget: int64(target) * bytesPerElement * 6,
		Factory:   meshgen.Factory, Seed: e.seed,
	})
}

// newCluster builds the case's cluster for target elements. sink is nil on
// an untraced run.
func (mc meshCase) newCluster(e env, target int, spool string, sink *obs.TraceSink) (*cluster.Cluster, error) {
	cfg := mc.cluster(e.sizes(), target, spool)
	cfg.Factory = meshgen.Factory
	cfg.Seed = e.seed
	cfg.Trace = sink
	return cluster.New(cfg)
}

// run is one measured run: set-up (spool directory, a warm-up pass through a
// throwaway cluster, the measured cluster), then the method, then the
// counters.
func (mc meshCase) run(e env, log *spanLog, sink *obs.TraceSink) (*runResult, error) {
	sz := e.sizes()
	target := e.perturb(mc.target(sz))
	r := &runResult{Attempted: 1, Layer: map[string]float64{}}

	setup := log.begin("setup", 0)
	spool, cleanup, err := spoolDir(e, false)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	// The warm-up fills the buffer arena and faults the heap in, so the
	// measured run does not pay a cold process's costs.
	warm, err := mc.newCluster(e, sz.warmTarget, under(spool, "warm"), nil)
	if err != nil {
		return nil, err
	}
	_, err = mc.method(warm, sz, sz.warmTarget)
	warm.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", mc.name, err)
	}
	t := time.Now()
	cl, err := mc.newCluster(e, target, under(spool, "run"), sink)
	if err != nil {
		return nil, err
	}
	r.Layer["cluster.new_s"] = time.Since(t).Seconds()
	r.SetupS = log.end(setup).Seconds()

	var res meshgen.Result
	var runErr error
	runSpan, err := measure(r, log, func(int) { res, runErr = mc.method(cl, sz, target) })
	r.Walls = []float64{r.WallS}
	finishCluster(r, cl, log, sink, runSpan)
	if err != nil {
		return nil, err
	}

	r.Items = float64(res.Elements)
	r.Elements = res.Elements
	r.MeshHash = res.MeshHash
	r.Layer["meshgen.elements"] = float64(res.Elements)
	r.Layer["meshgen.subdomains"] = float64(res.Subdomains)
	r.Layer["storage.bytes_per_element"] = ratio(r.Layer["storage.bytes_written_mb"]*(1<<20), float64(res.Elements))
	switch {
	case runErr != nil:
		r.fail("run error: %v", runErr)
	case !res.Conforming:
		r.fail("mesh not conforming")
	case r.Layer["core.objects_lost"] > 0:
		r.fail("%v objects lost", r.Layer["core.objects_lost"])
	case mc.check != nil:
		mc.check(r)
	}
	return r, nil
}

// reference builds the same input in core on 2 PEs. For a hashed method it
// also reruns the method on one node that never swaps, whose MeshHash the
// measured runs must reproduce.
func (mc meshCase) reference(e env) (*refResult, error) {
	sz := e.sizes()
	target := e.perturb(mc.target(sz))
	res, err := mc.incore(sz, target)
	if err != nil {
		return nil, fmt.Errorf("%s: in-core reference: %w", mc.name, err)
	}
	ref := &refResult{Elements: res.Elements, IncoreWallS: res.Elapsed.Seconds()}
	if mc.hashed {
		cl, err := noSwapCluster(e, target)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		res, err := mc.method(cl, sz, target)
		if err != nil {
			return nil, fmt.Errorf("%s: no-swap reference: %w", mc.name, err)
		}
		if ev := res.Mem.Evictions; ev != 0 {
			return nil, fmt.Errorf("%s: no-swap reference swapped (%d evictions)", mc.name, ev)
		}
		ref.MeshHash = res.MeshHash
	}
	return ref, nil
}
