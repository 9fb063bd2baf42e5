package sim

import (
	"fmt"
	"os"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/meshgen"
	"mrts/internal/meshstore"
	"mrts/internal/storage"
)

// MeshRestoreStorm is the N→M restore property under the simulated schedule:
// the cluster meshes OUPDR while streaming every block into a meshstore
// chunk — with the plan's transient swap faults firing under the mesh-sized
// budget, so blocks round-trip through the faulty store mid-export — then
// the sealed store is restored onto M ≠ N nodes whose swap stores fault
// too, and the restored mesh must reproduce the run's canonical MeshHash
// exactly. Nothing in the chunk may remember N: the restore side rewrites
// every neighbor pointer against its own placement.
type MeshRestoreStorm struct{}

// Name implements Scenario.
func (MeshRestoreStorm) Name() string { return "mesh-restore-storm" }

// Fault implements Scenario.
func (MeshRestoreStorm) Fault() FaultKind { return FaultMeshRestore }

// Run implements Scenario.
func (MeshRestoreStorm) Run(env *Env) error {
	const blocks = 3
	target := 2000 + env.Rng.Intn(2000)
	// Restore onto a deliberately different cluster size: grow by one or
	// two, or shrink by one when the plan has nodes to spare. Drawn from the
	// scenario rng so the same seed always replays the same M.
	m := env.Plan.Nodes + 1 + env.Rng.Intn(2)
	if env.Rng.Intn(2) == 0 && env.Plan.Nodes > 1 {
		m = env.Plan.Nodes - 1
	}
	env.Note("mesh %d blocks to ~%d elements, exported by %d nodes, restored onto %d",
		blocks*blocks, target, env.Plan.Nodes, m)

	dir, err := os.MkdirTemp("", "sim-meshstore-")
	if err != nil {
		return fmt.Errorf("store dir: %w", err)
	}
	defer os.RemoveAll(dir)

	w, err := meshstore.NewWriter(meshstore.WriterConfig{
		Dir:    dir,
		Writer: 0,
		Meta: meshstore.Meta{
			Blocks:         blocks,
			TargetElements: target,
		},
		Compress: true,
	})
	if err != nil {
		return fmt.Errorf("writer: %w", err)
	}
	res, err := meshgen.RunOUPDR(env.Cluster, meshgen.UPDRConfig{
		Blocks:         blocks,
		TargetElements: target,
		Export:         w,
	})
	if err != nil {
		w.Close()
		return fmt.Errorf("oupdr export: %w", err)
	}
	if !res.Conforming {
		return fmt.Errorf("exported mesh interfaces do not conform")
	}
	if _, err := w.Finalize(); err != nil {
		return fmt.Errorf("finalize: %w", err)
	}
	man, err := meshstore.MergeManifests(dir)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	if man.Partial || man.MeshHash != res.MeshHash {
		return fmt.Errorf("manifest partial=%v hash %s, run hash %s",
			man.Partial, man.MeshHash, res.MeshHash)
	}
	rep, err := meshstore.Verify(dir)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if !rep.OK() {
		return fmt.Errorf("store verify: %v", rep.Problems)
	}

	got, err := restoreOnto(env, m, dir)
	if err != nil {
		return err
	}
	if got != res.MeshHash {
		return fmt.Errorf("restore onto %d nodes: MeshHash %s != exported %s", m, got, res.MeshHash)
	}
	// The chunk's byte size is deliberately absent from the digest: the
	// encoded mesh bytes are not canonical (only the sorted-triangle digest
	// is), so frame sizes vary between replays of the same seed.
	env.Record("blocks", int64(blocks*blocks))
	env.Record("elements", int64(res.Elements))
	env.Record("restore.nodes", int64(m))
	return nil
}

// restoreOnto rebuilds the store onto m fresh in-proc nodes whose swap
// stores take the plan's transient faults, dumps every block, and returns
// the restored mesh's canonical hash.
func restoreOnto(env *Env, m int, dir string) (string, error) {
	st, err := meshstore.Open(dir)
	if err != nil {
		return "", fmt.Errorf("open store: %w", err)
	}
	defer st.Close()
	cl, err := cluster.New(cluster.Config{
		Nodes:          m,
		WorkersPerNode: env.Plan.Workers,
		MemBudget:      env.Plan.MemBudget,
		Factory:        meshgen.Factory,
		Fault: &storage.FaultConfig{ // node-folded: distinct per-node streams
			Seed:          env.Plan.Seed,
			FailFirstGets: env.Plan.FailFirst,
			FailFirstPuts: env.Plan.FailFirst,
		},
		Retry: storage.RetryPolicy{
			MaxAttempts: env.Plan.Retries + 2,
			BaseDelay:   50 * time.Microsecond,
			MaxDelay:    time.Millisecond,
		},
	})
	if err != nil {
		return "", fmt.Errorf("restore cluster: %w", err)
	}
	defer cl.Close()
	ds, err := meshgen.RestoreOnto(cl.Runtimes(), st)
	if err != nil {
		return "", err
	}
	dump, err := meshgen.DumpAll(ds)
	if err != nil {
		return "", err
	}
	return meshgen.MeshHashOf(dump), nil
}
