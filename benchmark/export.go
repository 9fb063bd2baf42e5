package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/meshgen"
	"mrts/internal/meshstore"
	"mrts/internal/obs"
)

// export-restore: the storage medium used the other way round. Set-up
// generates a mesh and exports it through meshstore.Writer; the measured
// cycle verifies that store offline, restores it onto a cluster of another
// size and exports it again from there.

const restoreNodes = 3

// exportSource generates the source store: OUPDR on a cluster that never
// swaps, streaming every block into a compressed chunk.
func exportSource(e env, dir string) (*meshstore.Manifest, error) {
	sz := e.sizes()
	target := e.perturb(sz.exportTarget)
	cl, err := noSwapCluster(e, target)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	w, err := meshstore.NewWriter(meshstore.WriterConfig{
		Dir:      dir,
		Meta:     meshstore.Meta{Blocks: sz.exportBlocks, TargetElements: target},
		Compress: true,
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	res, err := meshgen.RunOUPDR(cl, meshgen.UPDRConfig{Blocks: sz.exportBlocks, TargetElements: target, Export: w})
	if err != nil {
		return nil, fmt.Errorf("export-restore: generating the source mesh: %w", err)
	}
	if _, err := w.Finalize(); err != nil {
		return nil, err
	}
	man, err := meshstore.MergeManifests(dir)
	if err != nil {
		return nil, err
	}
	if man.Partial || man.MeshHash != res.MeshHash {
		return nil, fmt.Errorf("export-restore: source store partial=%v hash %s, run hash %s", man.Partial, man.MeshHash, res.MeshHash)
	}
	return man, nil
}

// onAllNodes runs f for every node at once and returns the first error:
// Dump and Export are collective, every node must be inside them together.
func onAllNodes(n int, f func(node int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// restoreCluster is the cluster a cycle restores the source store onto.
func restoreCluster(e env, src *meshstore.Manifest, sink *obs.TraceSink) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		Nodes: restoreNodes, WorkersPerNode: 1,
		MemBudget: int64(src.Meta.TargetElements) * bytesPerElement * 6,
		Factory:   meshgen.Factory, Seed: e.seed, Trace: sink,
	})
}

func runExport(e env, log *spanLog, sink *obs.TraceSink) (*runResult, error) {
	sz := e.sizes()
	r := &runResult{Attempted: sz.exportCycles, Layer: map[string]float64{}}

	setup := log.begin("setup", 0)
	work, cleanup, err := scratchDir(e, "export-")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	srcDir, dstDir := filepath.Join(work, "src"), filepath.Join(work, "dst")
	src, err := exportSource(e, srcDir)
	if err != nil {
		return nil, err
	}
	var rawBytes int64
	elements := 0
	for _, rec := range src.Records() {
		rawBytes += int64(rec.RawLen)
		elements += int(rec.Elements)
	}
	t := time.Now()
	cl, err := restoreCluster(e, src, sink)
	if err != nil {
		return nil, err
	}
	r.Layer["cluster.new_s"] = time.Since(t).Seconds()
	r.SetupS = log.end(setup).Seconds()

	// Every cycle is one sample of wall_s. All but the last run on a cluster
	// of their own and give their time and their verdict only; the last, on
	// the cluster set-up made, is the unit whose counters and spans are read.
	for i := 1; i < sz.exportCycles; i++ {
		spare, err := restoreCluster(e, src, nil)
		if err != nil {
			cl.Close()
			return nil, err
		}
		id := log.begin("spare-cycle", 0)
		cycle, cycleErr := exportCycle(log, id, spare, srcDir, dstDir)
		log.end(id)
		if msg := cycleFailure(cycle, cycleErr, src); msg != "" {
			r.fail("%s", msg)
		}
		r.Walls = append(r.Walls, cycle.wall().Seconds())
		spare.Close()
		if err := os.RemoveAll(dstDir); err != nil {
			cl.Close()
			return nil, err
		}
		// The next cycle starts from a collected heap, so that the process's
		// peak memory is one cycle's and not a sum that GC timing decides.
		cycle = exportCycleResult{}
		runtime.GC()
	}

	store := meshstore.Snapshot()
	var cycle exportCycleResult
	var cycleErr error
	runSpan, err := measure(r, log, func(runSpan int) {
		cycle, cycleErr = exportCycle(log, runSpan, cl, srcDir, dstDir)
	})
	meshstoreDelta(r.Layer, store, meshstore.Snapshot())
	if err != nil {
		cl.Close()
		return nil, err
	}
	failure := cycleFailure(cycle, cycleErr, src)
	finishCluster(r, cl, log, sink, runSpan)

	// The cycle's time is its three phases; hashing the restored mesh for
	// the check is not part of it.
	r.WallS = cycle.wall().Seconds()
	r.Walls = append(r.Walls, r.WallS)
	r.Items = float64(elements)
	r.Elements = elements
	r.MeshHash = src.MeshHash
	rawMB := mb(rawBytes)
	r.Layer["verify_mb_s"] = ratio(rawMB, cycle.verify.Seconds())
	r.Layer["restore_mb_s"] = ratio(rawMB, cycle.restore.Seconds())
	r.Layer["export_mb_s"] = ratio(rawMB, cycle.export.Seconds())
	r.Layer["meshgen.elements"] = float64(elements)
	r.Layer["meshgen.subdomains"] = float64(src.Blocks())
	switch {
	case failure != "":
		r.fail("%s", failure)
	case r.Layer["core.objects_lost"] > 0:
		r.fail("%v objects lost", r.Layer["core.objects_lost"])
	}
	return r, nil
}

// cycleFailure says what a finished cycle got wrong, "" when nothing: the
// restored mesh and the re-exported store must both carry the source's hash.
// It runs outside the timed phases.
func cycleFailure(cycle exportCycleResult, cycleErr error, src *meshstore.Manifest) string {
	if cycleErr != nil {
		return fmt.Sprintf("cycle error: %v", cycleErr)
	}
	restored, err := dumpHash(cycle.dists, src.Blocks())
	switch {
	case err != nil:
		return fmt.Sprintf("cycle error: %v", err)
	case restored != src.MeshHash:
		return fmt.Sprintf("restored mesh hash %s != exported %s", restored, src.MeshHash)
	case cycle.reexported.Partial || cycle.reexported.MeshHash != src.MeshHash:
		return fmt.Sprintf("re-exported store partial=%v hash %s != exported %s", cycle.reexported.Partial, cycle.reexported.MeshHash, src.MeshHash)
	}
	return ""
}

// exportCycleResult is what one verify+restore+export cycle produced.
type exportCycleResult struct {
	verify, restore, export time.Duration
	dists                   []*meshgen.Dist
	reexported              *meshstore.Manifest
}

// wall is the cycle's time: its three phases.
func (c exportCycleResult) wall() time.Duration { return c.verify + c.restore + c.export }

// exportCycle is the measured unit: verify the source store offline, restore
// it onto the cluster, export it again from there into dstDir.
func exportCycle(log *spanLog, parent int, cl *cluster.Cluster, srcDir, dstDir string) (exportCycleResult, error) {
	var c exportCycleResult

	id := log.begin("verify", parent)
	rep, err := meshstore.Verify(srcDir)
	c.verify = log.end(id)
	if err != nil {
		return c, fmt.Errorf("verify: %w", err)
	}
	if !rep.OK() {
		return c, fmt.Errorf("verify: %v", rep.Problems)
	}

	id = log.begin("restore", parent)
	c.dists, err = restoreStore(cl, srcDir)
	c.restore = log.end(id)
	if err != nil {
		return c, fmt.Errorf("restore: %w", err)
	}

	id = log.begin("export", parent)
	c.reexported, err = exportStore(c.dists, dstDir)
	c.export = log.end(id)
	if err != nil {
		return c, fmt.Errorf("export: %w", err)
	}
	return c, nil
}

// exportStore writes every node's blocks into its own chunk of dir and
// merges the per-writer manifests.
func exportStore(dists []*meshgen.Dist, dir string) (*meshstore.Manifest, error) {
	// Every writer exists before any node enters the collective Export, so
	// a writer that cannot be created leaves no node waiting for the rest.
	writers := make([]*meshstore.Writer, len(dists))
	for i, d := range dists {
		w, err := meshstore.NewWriter(meshstore.WriterConfig{
			Dir: dir, Writer: i, Meta: d.StoreMeta(), Compress: true,
		})
		if err != nil {
			return nil, err
		}
		defer w.Close()
		writers[i] = w
	}
	err := onAllNodes(len(dists), func(node int) error {
		if err := dists[node].Export(writers[node]); err != nil {
			return err
		}
		_, err := writers[node].Finalize()
		return err
	})
	if err != nil {
		return nil, err
	}
	return meshstore.MergeManifests(dir)
}

// restoreStore rebuilds the stored mesh on the cluster's nodes, however many
// nodes wrote it.
func restoreStore(cl *cluster.Cluster, dir string) ([]*meshgen.Dist, error) {
	st, err := meshstore.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	meta := st.Manifest().Meta
	dists := make([]*meshgen.Dist, cl.Nodes())
	for i := range dists {
		d, err := meshgen.NewDist(cl.RT(i), meshgen.DistConfig{
			Blocks:         meta.Blocks,
			TargetElements: meta.TargetElements,
			QualityBound:   meta.QualityBound,
			Nodes:          cl.Nodes(),
			Node:           i,
		})
		if err != nil {
			return nil, err
		}
		if err := d.RestoreFromStore(st); err != nil {
			return nil, err
		}
		dists[i] = d
	}
	return dists, nil
}

// dumpHash folds every node's block digests into the mesh's canonical hash.
func dumpHash(dists []*meshgen.Dist, blocks int) (string, error) {
	dumps := make([][]meshgen.BlockDump, len(dists))
	// Dump cannot fail; onAllNodes is used for its rendezvous.
	_ = onAllNodes(len(dists), func(node int) error {
		dumps[node] = dists[node].Dump()
		return nil
	})
	var all []meshgen.BlockDump
	for _, part := range dumps {
		all = append(all, part...)
	}
	if len(all) != blocks {
		return "", fmt.Errorf("restore dumped %d blocks, want %d", len(all), blocks)
	}
	return meshgen.MeshHashOf(all), nil
}
