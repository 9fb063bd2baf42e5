package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/meshgen"
	"mrts/internal/meshstore"
	"mrts/internal/ooc"
	"mrts/internal/workload"
)

// MeshIO measures the mesh checkpoint/serve format's data path. The
// synthetic stage streams a fixed grid of refined-block payloads through one
// chunk writer and reads every block back through the store index: write and
// read MB/s, plus the exact framed byte count on disk — the payloads and their
// order are fixed, so bytes_moved is deterministic and the CI gate bounds it
// tightly (a lost compression win or a double-write trips it regardless of
// machine speed). The integration stage runs OUPDR with streaming export on
// an out-of-core cluster and restores the sealed store onto a two-node
// cluster, verifying the canonical MeshHash end to end.
func MeshIO(opts Options) (*Table, error) {
	t := &Table{
		ID:      "meshio",
		Title:   "meshstore chunk write/read throughput and export/restore round trip",
		Headers: []string{"stage", "blocks", "payload MB", "time", "MB/s"},
		Notes: []string{
			"synthetic payloads and append order are fixed so bytes_moved is deterministic across machines",
			"restore rebuilds the exported mesh on a 2-node cluster and must reproduce the MeshHash",
		},
	}
	if err := meshIOSynthetic(t); err != nil {
		return nil, err
	}
	if err := meshIOExportRestore(t, opts); err != nil {
		return nil, err
	}
	return t, nil
}

// meshIOSynthetic streams a fixed 12x12 grid of one refined block's encoding
// (about 48 KiB) through the chunk writer and reads them all back.
func meshIOSynthetic(t *Table) error {
	const (
		grid     = 12
		elements = 2400
	)
	dir, err := os.MkdirTemp("", "mrts-meshio-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// A real block, because the frame codec is built for one: it stores
	// noise raw, so noise would time a memcpy. Refinement is deterministic —
	// the byte stream, and with it every frame length, does not drift
	// between baseline and gated run.
	block, err := workload.RefinedBlock(elements)
	if err != nil {
		return err
	}
	payloadSize := len(block)
	hash := sha256.Sum256(block)
	rawMB := float64(grid*grid*payloadSize) / (1 << 20)

	w, err := meshstore.NewWriter(meshstore.WriterConfig{
		Dir:      dir,
		Writer:   0,
		Meta:     meshstore.Meta{Blocks: grid, TargetElements: grid * grid},
		Compress: true,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	for j := 0; j < grid; j++ {
		for i := 0; i < grid; i++ {
			err := w.Append(meshstore.BlockKey(i, j), i, j, elements, hex.EncodeToString(hash[:]), block)
			if err != nil {
				return err
			}
		}
	}
	if _, err := w.Finalize(); err != nil {
		return err
	}
	writeTime := time.Since(start)
	if _, err := meshstore.MergeManifests(dir); err != nil {
		return err
	}

	st, err := meshstore.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	start = time.Now()
	var readBytes int
	for j := 0; j < grid; j++ {
		for i := 0; i < grid; i++ {
			p, _, err := st.Payload(meshstore.BlockKey(i, j))
			if err != nil {
				return err
			}
			readBytes += len(p)
		}
	}
	readTime := time.Since(start)
	if readBytes != grid*grid*payloadSize {
		return fmt.Errorf("bench: read back %d payload bytes, want %d", readBytes, grid*grid*payloadSize)
	}

	writeMBps := rawMB / writeTime.Seconds()
	readMBps := rawMB / readTime.Seconds()
	t.AddRow("synthetic write", fmtInt(grid*grid), fmt.Sprintf("%.1f", rawMB), fmtDur(writeTime), fmt.Sprintf("%.0f", writeMBps))
	t.AddRow("synthetic read", fmtInt(grid*grid), fmt.Sprintf("%.1f", rawMB), fmtDur(readTime), fmt.Sprintf("%.0f", readMBps))
	t.SetMetric("synth/speed_write_mbps", writeMBps)
	t.SetMetric("synth/speed_read_mbps", readMBps)
	t.SetMetric("synth/time_write_sec", writeTime.Seconds())
	t.SetMetric("synth/time_read_sec", readTime.Seconds())
	t.SetMetric("synth/bytes_moved", float64(w.Bytes()))
	return nil
}

// meshIOExportRestore runs OUPDR with streaming export on an out-of-core
// cluster and restores the sealed store onto a fresh 2-node cluster.
func meshIOExportRestore(t *Table, opts Options) error {
	size := opts.size(30000)
	dir, err := os.MkdirTemp("", "mrts-meshio-exp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cl, cleanup, err := oocCluster(opts.PEs, size/3, ooc.LRU, cluster.WorkStealing, 1, opts.Trace, "meshio/")
	if err != nil {
		return err
	}
	const blocks = 6
	w, err := meshstore.NewWriter(meshstore.WriterConfig{
		Dir:      dir,
		Writer:   0,
		Meta:     meshstore.Meta{Blocks: blocks, TargetElements: size},
		Compress: true,
	})
	if err != nil {
		cleanup()
		return err
	}
	start := time.Now()
	res, err := meshgen.RunOUPDR(cl, meshgen.UPDRConfig{Blocks: blocks, TargetElements: size, Export: w})
	cleanup()
	if err != nil {
		return err
	}
	if _, err := w.Finalize(); err != nil {
		return err
	}
	exportTime := time.Since(start)
	man, err := meshstore.MergeManifests(dir)
	if err != nil {
		return err
	}
	if man.Partial || man.MeshHash != res.MeshHash {
		return fmt.Errorf("bench: exported store partial=%v hash %s, run hash %s", man.Partial, man.MeshHash, res.MeshHash)
	}
	expMB := float64(w.Bytes()) / (1 << 20)

	start = time.Now()
	got, err := meshIORestore(2, dir)
	if err != nil {
		return err
	}
	restoreTime := time.Since(start)
	if got != res.MeshHash {
		return fmt.Errorf("bench: restored MeshHash %s != exported %s", got, res.MeshHash)
	}

	t.AddRow("oupdr export (run+stream)", fmtInt(blocks*blocks), fmt.Sprintf("%.1f", expMB), fmtDur(exportTime), "")
	t.AddRow("restore onto 2 nodes", fmtInt(blocks*blocks), fmt.Sprintf("%.1f", expMB), fmtDur(restoreTime),
		fmt.Sprintf("%.0f", expMB/restoreTime.Seconds()))
	t.SetMetric(fmt.Sprintf("sz%d/time_export_run_sec", size), exportTime.Seconds())
	t.SetMetric(fmt.Sprintf("sz%d/time_restore_sec", size), restoreTime.Seconds())
	return nil
}

// meshIORestore rebuilds the store onto m in-proc nodes and returns the
// restored mesh's canonical hash.
func meshIORestore(m int, dir string) (string, error) {
	st, err := meshstore.Open(dir)
	if err != nil {
		return "", err
	}
	defer st.Close()
	cl, err := cluster.New(cluster.Config{
		Nodes:          m,
		WorkersPerNode: 2,
		MemBudget:      int64(st.Manifest().Meta.TargetElements) * 30,
		Factory:        meshgen.Factory,
	})
	if err != nil {
		return "", err
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
