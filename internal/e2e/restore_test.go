package e2e

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mrts/internal/comm"
	"mrts/internal/core"
	"mrts/internal/meshgen"
	"mrts/internal/meshstore"
	"mrts/internal/ooc"
	"mrts/internal/sched"
	"mrts/internal/storage"
)

// The N→M restore property: a store written by N nodes restores onto M
// nodes — any M — with the identical canonical MeshHash. The store carries
// the generation meta, blocks are fetched by grid key, and neighbor
// pointers are rewritten against the reading run's placement; nothing in
// the format remembers N.

const (
	nmBlocks   = 4
	nmElements = 4000
)

func nmCfg(nodes, node int) meshgen.DistConfig {
	return meshgen.DistConfig{
		Blocks:         nmBlocks,
		TargetElements: nmElements,
		Nodes:          nodes,
		Node:           node,
	}
}

// nmRuntime builds one in-proc node. A non-nil fault config wraps the swap
// store so every key's first gets/puts fail transiently, with a retry
// budget sized to absorb them.
func nmRuntime(t *testing.T, tr *comm.InProcTransport, n, i int, fault *storage.FaultConfig) (*core.Runtime, *storage.FaultStore) {
	t.Helper()
	var st storage.Store = storage.NewMem()
	var retry storage.RetryPolicy
	var fs *storage.FaultStore
	if fault != nil {
		fc := *fault
		fc.Seed += int64(i) // distinct per-node fault streams
		fs = storage.NewFault(storage.NewMem(), fc)
		st = fs
		retry = storage.RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond}
	}
	rt := core.NewRuntime(core.Config{
		Endpoint: tr.Endpoint(comm.NodeID(i)),
		Pool:     sched.NewWorkStealing(2),
		Factory:  meshgen.Factory,
		Mem:      ooc.Config{Budget: e2eBudget},
		Store:    st,
		Retry:    retry,
		NumNodes: n,
	})
	t.Cleanup(func() { rt.Close() })
	return rt, fs
}

// requireInjected fails the test unless the fault stores actually injected
// faults — otherwise the under-faults property would pass vacuously.
func requireInjected(t *testing.T, what string, stores []*storage.FaultStore) {
	t.Helper()
	var inj uint64
	for _, fs := range stores {
		if fs != nil {
			s := fs.Stats()
			inj += s.InjectedGets + s.InjectedPuts
		}
	}
	if inj == 0 {
		t.Fatalf("%s: no faults were injected; the swap path never engaged", what)
	}
}

// exportInProc meshes the standard N→M problem on n in-proc nodes and
// streams it into dir, one chunk per node, then merges and returns the
// sealed manifest.
func exportInProc(t *testing.T, n int, dir string, fault *storage.FaultConfig) *meshstore.Manifest {
	t.Helper()
	tr := comm.NewInProc(n, comm.LatencyModel{})
	ds := make([]*meshgen.Dist, n)
	fss := make([]*storage.FaultStore, n)
	for i := 0; i < n; i++ {
		rt, fs := nmRuntime(t, tr, n, i, fault)
		fss[i] = fs
		d, err := meshgen.NewDist(rt, nmCfg(n, i))
		if err != nil {
			t.Fatalf("dist node %d: %v", i, err)
		}
		if err := d.CreateBlocks(); err != nil {
			t.Fatalf("create node %d: %v", i, err)
		}
		ds[i] = d
	}
	barrier := func(f func(node int, d *meshgen.Dist) error) {
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i, d := range ds {
			i, d := i, d
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = f(i, d)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("node %d: %v", i, err)
			}
		}
	}
	barrier(func(_ int, d *meshgen.Dist) error {
		d.PostPhase(0)
		d.WaitPhase()
		if m := d.Mismatches(); m != 0 {
			t.Errorf("%d interface mismatches", m)
		}
		return nil
	})

	ws := make([]*meshstore.Writer, n)
	for i, d := range ds {
		w, err := meshstore.NewWriter(meshstore.WriterConfig{
			Dir: dir, Writer: i, Meta: d.StoreMeta(), Compress: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	barrier(func(node int, d *meshgen.Dist) error { return d.Export(ws[node]) })
	for _, w := range ws {
		if _, err := w.Finalize(); err != nil {
			t.Fatal(err)
		}
	}
	man, err := meshstore.MergeManifests(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Partial || man.MeshHash == "" {
		t.Fatalf("merged %d-writer store is partial", n)
	}
	rep, err := meshstore.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("%d-writer store verify: %v", n, rep.Problems)
	}
	if fault != nil {
		requireInjected(t, "export", fss)
	}
	return man
}

// restoreInProc rebuilds the store onto m in-proc nodes, dumps, and
// verifies the canonical hash against the store's. Returns the hash.
func restoreInProc(t *testing.T, m int, dir string, fault *storage.FaultConfig) string {
	t.Helper()
	st, err := meshstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr := comm.NewInProc(m, comm.LatencyModel{})
	rts := make([]*core.Runtime, m)
	fss := make([]*storage.FaultStore, m)
	for i := range rts {
		rts[i], fss[i] = nmRuntime(t, tr, m, i, fault)
	}
	ds, err := meshgen.RestoreOnto(rts, st)
	if err != nil {
		t.Fatal(err)
	}
	all, err := meshgen.DumpAll(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != nmBlocks*nmBlocks {
		t.Fatalf("restored cluster dumped %d blocks, want %d", len(all), nmBlocks*nmBlocks)
	}
	got := meshgen.MeshHashOf(all)
	if got != st.MeshHash() {
		t.Fatalf("restore onto %d nodes: MeshHash %s != store %s", m, got, st.MeshHash())
	}
	if fault != nil {
		requireInjected(t, "restore", fss)
	}
	return got
}

// TestRestoreNtoM: 3 writers restore onto 2 nodes, 1 writer restores onto
// 4 — all four meshes byte-identical by canonical hash.
func TestRestoreNtoM(t *testing.T) {
	threeDir, oneDir := t.TempDir(), t.TempDir()
	man3 := exportInProc(t, 3, threeDir, nil)
	man1 := exportInProc(t, 1, oneDir, nil)
	if man3.MeshHash != man1.MeshHash {
		t.Fatalf("store hash depends on writer count: 3 writers %s, 1 writer %s",
			man3.MeshHash, man1.MeshHash)
	}
	h32 := restoreInProc(t, 2, threeDir, nil)
	h14 := restoreInProc(t, 4, oneDir, nil)
	if h32 != h14 {
		t.Fatalf("3→2 hash %s != 1→4 hash %s", h32, h14)
	}
}

// TestRestoreNtoMUnderTransientFaults: the same property with every swap
// key's first operations failing transiently during both the writing run
// and the restore — the retry budget absorbs the faults and the hashes
// still match.
func TestRestoreNtoMUnderTransientFaults(t *testing.T) {
	cleanDir, faultDir := t.TempDir(), t.TempDir()
	clean := exportInProc(t, 3, cleanDir, nil)
	faulty := exportInProc(t, 3, faultDir,
		&storage.FaultConfig{Seed: 11, FailFirstGets: 2, FailFirstPuts: 2})
	if faulty.MeshHash != clean.MeshHash {
		t.Fatalf("transient faults changed the exported mesh: %s vs %s",
			faulty.MeshHash, clean.MeshHash)
	}
	restoreInProc(t, 2, faultDir,
		&storage.FaultConfig{Seed: 13, FailFirstGets: 2, FailFirstPuts: 2})
}

// recodeFlate rewrites every chunk of the store in dir with codec-1 (DEFLATE)
// frames and re-indexes it: the store a writer from before the plane codec
// would have left. It is that writer's only surviving copy, kept here, and
// follows the frame layout documented in meshstore/format.go.
func recodeFlate(t *testing.T, dir string) {
	t.Helper()
	st, err := meshstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	man := st.Manifest()
	if err := os.Remove(filepath.Join(dir, meshstore.MergedManifestName)); err != nil {
		t.Fatal(err)
	}
	for _, c := range man.Chunks {
		c.Records = append([]meshstore.Record(nil), c.Records...) // the store's own index stays as it is
		var chunk bytes.Buffer
		for r := range c.Records {
			rec := &c.Records[r]
			payload, _, err := st.Payload(rec.Key)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(payload)
			var deflated bytes.Buffer
			fw, err := flate.NewWriter(&deflated, flate.BestSpeed)
			if err != nil {
				t.Fatal(err)
			}
			fw.Write(payload)
			if err := fw.Close(); err != nil {
				t.Fatal(err)
			}
			hdr := make([]byte, 60)
			copy(hdr, "MSC1")
			hdr[4] = 1
			hdr[5], hdr[6] = byte(len(rec.Key)), byte(len(rec.Hash))
			binary.LittleEndian.PutUint32(hdr[8:], uint32(rec.I))
			binary.LittleEndian.PutUint32(hdr[12:], uint32(rec.J))
			binary.LittleEndian.PutUint32(hdr[16:], uint32(rec.Elements))
			binary.LittleEndian.PutUint32(hdr[20:], uint32(len(payload)))
			binary.LittleEndian.PutUint32(hdr[24:], uint32(deflated.Len()))
			copy(hdr[28:], sum[:])
			rec.Offset = int64(chunk.Len())
			chunk.Write(hdr)
			chunk.WriteString(rec.Key)
			chunk.WriteString(rec.Hash)
			chunk.Write(deflated.Bytes())
			rec.Length = int64(chunk.Len()) - rec.Offset
		}
		c.Bytes = int64(chunk.Len())
		if err := os.WriteFile(filepath.Join(dir, c.Name), chunk.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		index, err := json.Marshal(meshstore.Manifest{Format: man.Format, Meta: man.Meta, Chunks: []meshstore.Chunk{c}})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("manifest-%03d.json", c.Writer)
		if err := os.WriteFile(filepath.Join(dir, name), index, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := meshstore.MergeManifests(dir); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreFlateStore: a store whose frames are all codec 1, as every
// store written before the plane codec is, fails loudly: Verify reports
// problems with every chunk, and the restore refuses it with an error that
// names the codec, rather than restoring any of it.
func TestRestoreFlateStore(t *testing.T) {
	dir := t.TempDir()
	man := exportInProc(t, 3, dir, nil)
	recodeFlate(t, dir)
	for _, c := range man.Chunks {
		data, err := os.ReadFile(filepath.Join(dir, c.Name))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 5 || data[4] != 1 {
			t.Fatalf("%s does not start with a codec-1 frame", c.Name)
		}
	}
	rep, err := meshstore.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range man.Chunks {
		if !slices.ContainsFunc(rep.Problems, func(p string) bool { return strings.Contains(p, c.Name) }) {
			t.Fatalf("flate store verify names no problem with %s: %v", c.Name, rep.Problems)
		}
	}
	st, err := meshstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr := comm.NewInProc(2, comm.LatencyModel{})
	rts := make([]*core.Runtime, 2)
	for i := range rts {
		rts[i], _ = nmRuntime(t, tr, 2, i, nil)
	}
	if _, err := meshgen.RestoreOnto(rts, st); err == nil || !strings.Contains(err.Error(), "codec 1") {
		t.Fatalf("flate store restore: err=%v, want a refusal naming codec 1", err)
	}
}
