package meshgen

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/meshstore"
)

// specTestConfig keeps the export runs small: a 3x3 grid gives 12 interior
// interfaces at a few thousand elements per run.
var specTestConfig = UPDRConfig{Blocks: 3, TargetElements: 5000}

func specTestCluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Nodes:     nodes,
		MemBudget: 1 << 30,
		Factory:   Factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// exportWriter opens a store writer for one run into a fresh temp dir and
// returns both. The meta mirrors what the run's driver would publish.
func exportWriter(t *testing.T, cfg UPDRConfig, compress bool) (string, *meshstore.Writer) {
	t.Helper()
	dir := t.TempDir()
	w, err := meshstore.NewWriter(meshstore.WriterConfig{
		Dir:    dir,
		Writer: 0,
		Meta: meshstore.Meta{
			Blocks:         cfg.Blocks,
			TargetElements: cfg.TargetElements,
			QualityBound:   cfg.QualityBound,
		},
		Compress: compress,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return dir, w
}

// checkReread reads every block of the run that finished on cl back through
// the swap path and checks that the meshes as read digest to want, the
// MeshHash the run took as it meshed them.
func checkReread(t *testing.T, cl *cluster.Cluster, blocks int, want string) {
	t.Helper()
	dump, err := RereadDigests(cl, blocks)
	if err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if got := MeshHashOf(dump); got != want {
		t.Fatalf("the blocks read back digest to %s; the run took %s as it meshed them", got, want)
	}
}

// finishExport finalizes the writer, merges manifests and deep-verifies the
// store, returning the sealed merged manifest.
func finishExport(t *testing.T, dir string, w *meshstore.Writer) *meshstore.Manifest {
	t.Helper()
	if _, err := w.Finalize(); err != nil {
		t.Fatalf("finalize: %v", err)
	}
	man, err := meshstore.MergeManifests(dir)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	rep, err := meshstore.Verify(dir)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("verify problems: %v", rep.Problems)
	}
	return man
}

// TestOUPDRStreamingExport: a bulk-sync run with an export writer attached
// frames every block at its dump point; the merged manifest must be complete
// and carry the exact run-wide MeshHash the run itself reported — the
// offline store is a faithful stand-in for the live cluster.
func TestOUPDRStreamingExport(t *testing.T) {
	cfg := specTestConfig
	dir, w := exportWriter(t, cfg, true)
	cfg.Export = w
	res, err := RunOUPDR(specTestCluster(t, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nb := cfg.Blocks
	if got := w.Blocks(); got != nb*nb {
		t.Fatalf("writer saw %d blocks, want %d", got, nb*nb)
	}
	man := finishExport(t, dir, w)
	if man.Partial {
		t.Fatal("complete export sealed as partial")
	}
	if man.MeshHash != res.MeshHash {
		t.Fatalf("manifest MeshHash %s != run %s", man.MeshHash, res.MeshHash)
	}

	// The store must answer block fetches offline, and the offline deep
	// decode must reproduce each block's canonical digest.
	st, err := meshstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload, rec, err := st.Payload(meshstore.BlockKey(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	dump, err := DecodeExportedBlock(payload, nb)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Hash != rec.Hash || dump.Elements != rec.Elements || dump.I != 0 || dump.J != 0 {
		t.Fatalf("offline decode %+v disagrees with manifest record %+v", dump, rec)
	}
}

// TestRunOUPDRExportFramesEachBlockOnce: out of core, an export reads every
// block once to frame it, and lets the reloaded ones go again without a
// write; the store carries the run's MeshHash.
func TestRunOUPDRExportFramesEachBlockOnce(t *testing.T) {
	cfg := UPDRConfig{Blocks: 4, TargetElements: 12000}
	dir, w := exportWriter(t, cfg, true)
	cfg.Export = w
	cl, err := cluster.New(cluster.Config{Nodes: 2, MemBudget: 200_000, Factory: Factory})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := RunOUPDR(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.Loads == 0 {
		t.Fatalf("the export reloaded nothing in %d evictions: the budget must force swapping", res.Mem.Evictions)
	}
	// Merging checks that every key is there exactly once; the writer's own
	// count rules out a second frame of any of them.
	nb := cfg.Blocks
	if got := w.Blocks(); got != nb*nb {
		t.Fatalf("writer framed %d blocks, want %d", got, nb*nb)
	}
	if man := finishExport(t, dir, w); man.MeshHash != res.MeshHash {
		t.Fatalf("manifest MeshHash %s != run %s", man.MeshHash, res.MeshHash)
	}
	// Quiescence does not wait for the last eviction writes to land.
	for i := 0; cl.IOStats().CompletedWrites < cl.IOStats().Writes; i++ {
		if i > 5000 {
			t.Fatal("eviction writes never drained")
		}
		time.Sleep(time.Millisecond)
	}
	var drops float64
	for k, v := range cl.Metrics() {
		if strings.HasSuffix(k, "swap.clean_drops") {
			drops += v
		}
	}
	if drops == 0 {
		t.Fatalf("no clean drops in %d evictions: the export rewrote what it only read", res.Mem.Evictions)
	}
	if puts := cl.DiskStats().Puts; puts+uint64(drops) != res.Mem.Evictions {
		t.Errorf("%d evictions = %d writes + %v clean drops does not add up", res.Mem.Evictions, puts, drops)
	}
}

// TestOUPDRExportPartialMidRunSemantics: frames appended before a crash are
// a readable prefix. Simulated by abandoning the writer (Close without
// Finalize — the SIGKILL path) and opening the directory manifest-less.
func TestOUPDRExportPartialMidRunSemantics(t *testing.T) {
	cfg := specTestConfig
	dir, w := exportWriter(t, cfg, true)
	cfg.Export = w
	if _, err := RunOUPDR(specTestCluster(t, 2), cfg); err != nil {
		t.Fatal(err)
	}
	w.Close() // crash: no manifest written

	if m, _ := filepath.Glob(filepath.Join(dir, "manifest-*.json")); len(m) != 0 {
		t.Fatalf("abandoned writer left manifests: %v", m)
	}
	st, err := meshstore.Open(dir)
	if err != nil {
		t.Fatalf("manifest-less open: %v", err)
	}
	defer st.Close()
	if !st.Partial() {
		t.Fatal("manifest-less store must report itself partial")
	}
	nb := cfg.Blocks
	if got := len(st.Manifest().Records()); got != nb*nb {
		t.Fatalf("recovered %d frames from chunk scan, want %d", got, nb*nb)
	}
	if _, _, err := st.Payload(meshstore.BlockKey(1, 1)); err != nil {
		t.Fatalf("partial store payload: %v", err)
	}
}
