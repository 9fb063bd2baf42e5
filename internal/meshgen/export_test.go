package meshgen

import (
	"path/filepath"
	"testing"

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
