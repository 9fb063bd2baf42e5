package meshgen

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/core"
	"mrts/internal/meshstore"
)

// distStore meshes specTestConfig on one node with an export attached and
// returns the sealed store's directory and manifest.
func distStore(t *testing.T) (string, *meshstore.Manifest) {
	t.Helper()
	cfg := specTestConfig
	dir, w := exportWriter(t, cfg, true)
	cfg.Export = w
	if _, err := RunOUPDR(specTestCluster(t, 1), cfg); err != nil {
		t.Fatal(err)
	}
	return dir, finishExport(t, dir, w)
}

func distCluster(t *testing.T, nodes int, budget int64) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Nodes: nodes, MemBudget: budget, Factory: Factory})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// distOn builds a Dist for every node of cl against the store's meta,
// restoring nothing.
func distOn(t *testing.T, cl *cluster.Cluster, meta meshstore.Meta) []*Dist {
	t.Helper()
	ds, err := distsOn(cl.Runtimes(), meta)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// restoreOn restores the store onto every node of cl.
func restoreOn(t *testing.T, cl *cluster.Cluster, st *meshstore.Store) []*Dist {
	t.Helper()
	ds, err := RestoreOnto(cl.Runtimes(), st)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func openStore(t *testing.T, dir string) *meshstore.Store {
	t.Helper()
	st, err := meshstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// collective runs f on every node at once, the first node delay(node) late,
// and fails the test unless every node returns within the watchdog.
func collective(t *testing.T, ds []*Dist, delay func(node int) time.Duration, f func(node int, d *Dist) error) {
	t.Helper()
	errs := make([]error, len(ds))
	var wg sync.WaitGroup
	for i, d := range ds {
		wg.Add(1)
		go func(i int, d *Dist) {
			defer wg.Done()
			time.Sleep(delay(i))
			errs[i] = f(i, d)
		}(i, d)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a node never left the collective call")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
}

// TestRestoreFromStoreOntoOneTwoThreeNodes: however many nodes restore the
// store, each mints the pointers the placement predicts (RestoreFromStore
// checks every one) and the restored mesh carries the store's MeshHash.
func TestRestoreFromStoreOntoOneTwoThreeNodes(t *testing.T) {
	dir, man := distStore(t)
	st := openStore(t, dir)
	for nodes := 1; nodes <= 3; nodes++ {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			ds := restoreOn(t, distCluster(t, nodes, 1<<30), st)
			blocks := 0
			for i, d := range ds {
				mine := 0
				for idx, ptr := range d.ptrs {
					if ptr.Home != core.NodeID(i) {
						continue
					}
					mine++
					if !d.rt.IsLocal(ptr) {
						t.Fatalf("node %d: predicted pointer %v of block %d is not local", i, ptr, idx)
					}
				}
				if got := d.rt.NumLocalObjects(); got != mine {
					t.Fatalf("node %d holds %d objects, placement gives it %d", i, got, mine)
				}
				blocks += mine
			}
			if blocks != man.Blocks() {
				t.Fatalf("restored %d blocks, store has %d", blocks, man.Blocks())
			}
			all, err := DumpAll(ds)
			if err != nil {
				t.Fatal(err)
			}
			if got := MeshHashOf(all); got != man.MeshHash {
				t.Fatalf("restored MeshHash %s, store %s", got, man.MeshHash)
			}
		})
	}
}

// TestDumpAllNamesMissingAndDuplicateBlocks: the merged report must hold
// every grid block exactly once. A node that restored nothing leaves its
// blocks missing; two clusters that each hold the whole mesh report every
// block twice. Either way DumpAll names the first offending block.
func TestDumpAllNamesMissingAndDuplicateBlocks(t *testing.T) {
	dir, man := distStore(t)
	st := openStore(t, dir)
	nb := man.Meta.Blocks

	ds := distOn(t, distCluster(t, 2, 1<<30), man.Meta)
	if err := ds[0].RestoreFromStore(st); err != nil {
		t.Fatal(err)
	}
	first := -1
	for idx, ptr := range ds[1].ptrs {
		if ptr.Home == 1 {
			first = idx
			break
		}
	}
	if first < 0 {
		t.Fatal("placement gives node 1 no block")
	}
	_, err := DumpAll(ds)
	want := fmt.Sprintf("block (%d,%d) missing", first%nb, first/nb)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("dump with node 1 empty: err = %v, want %q", err, want)
	}

	a := restoreOn(t, distCluster(t, 1, 1<<30), st)
	b := restoreOn(t, distCluster(t, 1, 1<<30), st)
	_, err = DumpAll([]*Dist{a[0], b[0]})
	if err == nil || !strings.Contains(err.Error(), "block (0,0) reported twice") {
		t.Fatalf("dump of two whole meshes: err = %v, want block (0,0) reported twice", err)
	}
}

// TestRestoreOntoRefusesPartialStore: a sealed store that lacks one block
// restores nothing.
func TestRestoreOntoRefusesPartialStore(t *testing.T) {
	dir, man := distStore(t)
	src := openStore(t, dir)
	part := t.TempDir()
	w, err := meshstore.NewWriter(meshstore.WriterConfig{Dir: part, Meta: man.Meta})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range man.Records()[1:] {
		payload, _, err := src.Payload(rec.Key)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(rec.Key, rec.I, rec.J, rec.Elements, rec.Hash, payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	if sealed, err := meshstore.MergeManifests(part); err != nil || !sealed.Partial {
		t.Fatalf("merge of a store missing a block: partial=%v, err %v", sealed != nil && sealed.Partial, err)
	}
	cl := distCluster(t, 2, 1<<30)
	_, err = RestoreOnto(cl.Runtimes(), openStore(t, part))
	if err == nil || !strings.Contains(err.Error(), "partial") {
		t.Fatalf("restore of a partial store: err = %v, want a refusal", err)
	}
	for i, rt := range cl.Runtimes() {
		if n := rt.NumLocalObjects(); n != 0 {
			t.Fatalf("node %d holds %d objects after a refused restore", i, n)
		}
	}
}

// damageFrame flips a payload byte of the store's frame for key.
func damageFrame(t *testing.T, dir string, man *meshstore.Manifest, key string) {
	t.Helper()
	for _, c := range man.Chunks {
		for _, r := range c.Records {
			if r.Key != key {
				continue
			}
			path := filepath.Join(dir, c.Name)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[r.Offset+r.Length-3] ^= 0xA5
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no frame %s", key)
}

// TestRestoreFromStoreNamesFirstBadBlock: with two damaged frames, the
// restore fails on the one that comes first in placement order, whichever
// worker finishes first, and creates no block from that one on.
func TestRestoreFromStoreNamesFirstBadBlock(t *testing.T) {
	dir, man := distStore(t)
	ds := distOn(t, distCluster(t, 1, 1<<30), man.Meta)
	d := ds[0]
	nb := man.Meta.Blocks
	// Placement positions 4 and 5: the middle of the 3×3 grid's order.
	first, second := d.local()[4], d.local()[5]
	for _, idx := range []int{second, first} {
		damageFrame(t, dir, man, meshstore.BlockKey(idx%nb, idx/nb))
	}
	err := d.RestoreFromStore(openStore(t, dir))
	if err == nil {
		t.Fatal("restore of a damaged store succeeded")
	}
	want := fmt.Sprintf("restore block (%d,%d)", first%nb, first/nb)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want the failure of %s", err, want)
	}
	if got := d.rt.NumLocalObjects(); got != 4 {
		t.Fatalf("restore created %d blocks, want the 4 before the bad one", got)
	}
}

// TestRestoreFromStoreRejectsMisplacedPayload: a store whose key for block
// (1,0) holds block (0,0)'s payload must not restore. The element count
// matches the index, but the payload's rectangle names another block, and
// creating it at (1,0)'s pointer would wire it to (1,0)'s neighbours.
func TestRestoreFromStoreRejectsMisplacedPayload(t *testing.T) {
	dir, man := distStore(t)
	src := openStore(t, dir)
	bad := t.TempDir()
	w, err := meshstore.NewWriter(meshstore.WriterConfig{Dir: bad, Meta: man.Meta})
	if err != nil {
		t.Fatal(err)
	}
	nb := man.Meta.Blocks
	for j := 0; j < nb; j++ {
		for i := 0; i < nb; i++ {
			from := meshstore.BlockKey(i, j)
			if i == 1 && j == 0 {
				from = meshstore.BlockKey(0, 0)
			}
			payload, rec, err := src.Payload(from)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(meshstore.BlockKey(i, j), i, j, rec.Elements, rec.Hash, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	ds := distOn(t, distCluster(t, 1, 1<<30), man.Meta)
	err = ds[0].RestoreFromStore(openStore(t, bad))
	if err == nil {
		t.Fatal("restored block (0,0)'s payload as block (1,0)")
	}
	if !strings.Contains(err.Error(), "restore block (1,0)") {
		t.Fatalf("err = %v, want it to name block (1,0)", err)
	}
}

// TestRestoreFromStorePeakWithinWindow: onto a node that swaps, the
// parallel restore's resident peak exceeds the sequential restore's by at
// most the ordered map's window of blocks.
func TestRestoreFromStorePeakWithinWindow(t *testing.T) {
	dir, man := distStore(t)
	st := openStore(t, dir)
	var total, largest int64
	for _, r := range man.Records() {
		total += int64(r.RawLen)
		largest = max(largest, int64(r.RawLen))
	}
	budget := total / 4
	peak := func(restore func(d *Dist) error) int64 {
		d := distOn(t, distCluster(t, 1, budget), man.Meta)[0]
		if err := restore(d); err != nil {
			t.Fatal(err)
		}
		s := d.rt.Mem().Snapshot()
		if s.Evictions == 0 {
			t.Fatalf("budget %d of %d bytes evicted nothing", budget, total)
		}
		return s.PeakMemUsed
	}
	seq := peak(func(d *Dist) error { return restoreSequential(d, st) })
	par := peak(func(d *Dist) error { return d.RestoreFromStore(st) })
	window := int64(2 * runtime.GOMAXPROCS(0))
	if par > seq+window*largest {
		t.Fatalf("parallel restore peak %d B, sequential %d B: more than %d blocks of %d B apart",
			par, seq, window, largest)
	}
}

// restoreSequential is RestoreFromStore as it was before the ordered map:
// read, decode, check and create one block at a time.
func restoreSequential(d *Dist, st *meshstore.Store) error {
	nb := d.cfg.Blocks
	for _, idx := range d.local() {
		i, j := idx%nb, idx/nb
		payload, rec, err := st.Payload(meshstore.BlockKey(i, j))
		if err != nil {
			return err
		}
		o := &blockObj{}
		if err := o.DecodeFrom(bytes.NewReader(payload)); err != nil {
			return err
		}
		if o.Elements != rec.Elements {
			return fmt.Errorf("block (%d,%d): %d elements, index says %d", i, j, o.Elements, rec.Elements)
		}
		o.Right, o.Top = blockNeighbors(nb, i, j, d.ptrs)
		if got := d.rt.CreateObject(o); got != d.ptrs[idx] {
			return fmt.Errorf("block (%d,%d) minted %v, predicted %v", i, j, got, d.ptrs[idx])
		}
	}
	return nil
}

// TestDistExportWithLateNode: one of three nodes enters Export well after
// the others have framed their blocks and entered the barrier. No node may
// leave before it has entered, and every block is framed: the merged
// manifest is complete.
func TestDistExportWithLateNode(t *testing.T) {
	dir, man := distStore(t)
	st := openStore(t, dir)
	ds := restoreOn(t, distCluster(t, 3, 1<<30), st)
	out := t.TempDir()
	ws := make([]*meshstore.Writer, len(ds))
	for i, d := range ds {
		w, err := meshstore.NewWriter(meshstore.WriterConfig{Dir: out, Writer: i, Meta: d.StoreMeta(), Compress: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		ws[i] = w
	}
	var lateEntered, firstLeft time.Time
	late := func(node int) time.Duration {
		if node == 2 {
			return 200 * time.Millisecond
		}
		return 0
	}
	collective(t, ds, late, func(node int, d *Dist) error {
		if node == 2 {
			lateEntered = time.Now()
		}
		err := d.Export(ws[node])
		if node == 0 {
			firstLeft = time.Now()
		}
		return err
	})
	if firstLeft.Before(lateEntered) {
		t.Fatalf("node 0 left Export %v before node 2 entered it", lateEntered.Sub(firstLeft))
	}
	for _, w := range ws {
		if _, err := w.Finalize(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := meshstore.MergeManifests(out)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial || got.MeshHash != man.MeshHash {
		t.Fatalf("export with a late node: partial=%v, MeshHash %s, want %s", got.Partial, got.MeshHash, man.MeshHash)
	}
}

// preCanonicalStore copies the store in dir as a store written before OUPDR
// blocks were kept in canonical order: every block's mesh as the refiner
// numbers it (the mesh's own encoding), framed with the digest the store
// recorded for it.
func preCanonicalStore(t *testing.T, dir string, man *meshstore.Manifest) string {
	t.Helper()
	src := openStore(t, dir)
	old := t.TempDir()
	w, err := meshstore.NewWriter(meshstore.WriterConfig{Dir: old, Meta: man.Meta, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, rec := range man.Records() {
		payload, _, err := src.Payload(rec.Key)
		if err != nil {
			t.Fatal(err)
		}
		o := &blockObj{}
		if err := o.DecodeFrom(bytes.NewReader(payload)); err != nil {
			t.Fatal(err)
		}
		bm, err := meshBlock(o.Rect, o.H, o.Beta)
		if err != nil {
			t.Fatal(err)
		}
		var raw bytes.Buffer
		if err := bm.mesh.EncodeTo(&raw); err != nil {
			t.Fatal(err)
		}
		bm.mesh.Recycle()
		if bytes.Equal(raw.Bytes(), o.MeshData) {
			t.Fatalf("block %s: the refiner's encoding is the canonical one", rec.Key)
		}
		o.MeshData = raw.Bytes()
		var enc bytes.Buffer
		if err := o.EncodeTo(&enc); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(rec.Key, rec.I, rec.J, rec.Elements, rec.Hash, enc.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	finishExport(t, old, w)
	return old
}

// checkBlocks requires every block of the store in dir to decode offline to
// the digest its record holds, and to hold its mesh in canonical order or
// not, as canonicalOrder says.
func checkBlocks(t *testing.T, dir string, canonicalOrder bool) {
	t.Helper()
	st := openStore(t, dir)
	for _, rec := range st.Manifest().Records() {
		payload, _, err := st.Payload(rec.Key)
		if err != nil {
			t.Fatal(err)
		}
		dump, err := DecodeExportedBlock(payload, st.Manifest().Meta.Blocks)
		if err != nil {
			t.Fatal(err)
		}
		if dump.Hash != rec.Hash || dump.I != rec.I || dump.J != rec.J {
			t.Fatalf("block %s decodes to %v, its record says %s", rec.Key, dump, rec.Hash)
		}
		o := &blockObj{}
		if err := o.DecodeFrom(bytes.NewReader(payload)); err != nil {
			t.Fatal(err)
		}
		if canon := canonical(t, o.MeshData); (&canon[0] == &o.MeshData[0]) != canonicalOrder {
			t.Fatalf("block %s: mesh in canonical order = %v, want %v", rec.Key, !canonicalOrder, canonicalOrder)
		}
	}
}

// TestRestorePreCanonicalStore: a store whose blocks hold their meshes as
// the refiner numbered them still verifies offline, restores onto one, two
// and three nodes, and re-exports to a store that carries the source's
// MeshHash — on two nodes after a dump, which reads every block first. A
// restored block is framed as it is stored, so the re-export keeps the old
// order; the digest, taken by geometry, does not see it.
func TestRestorePreCanonicalStore(t *testing.T) {
	dir, man := distStore(t)
	checkBlocks(t, dir, true)
	old := preCanonicalStore(t, dir, man)
	checkBlocks(t, old, false)
	st := openStore(t, old)
	for nodes := 1; nodes <= 3; nodes++ {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			ds := restoreOn(t, distCluster(t, nodes, 1<<30), st)
			if nodes == 2 {
				all, err := DumpAll(ds)
				if err != nil {
					t.Fatal(err)
				}
				if got := MeshHashOf(all); got != man.MeshHash {
					t.Fatalf("restored MeshHash %s, store %s", got, man.MeshHash)
				}
				// The dump keeps each digest.
				kept := 0
				for _, d := range ds {
					for _, s := range d.sh.digests {
						if s.Hash != "" {
							kept++
						}
					}
				}
				if kept != len(all) {
					t.Fatalf("%d digests kept after the dump, want %d", kept, len(all))
				}
			}
			out := t.TempDir()
			ws := make([]*meshstore.Writer, nodes)
			for i, d := range ds {
				w, err := meshstore.NewWriter(meshstore.WriterConfig{Dir: out, Writer: i, Meta: d.StoreMeta(), Compress: true})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { w.Close() })
				ws[i] = w
			}
			collective(t, ds, func(int) time.Duration { return 0 }, func(node int, d *Dist) error {
				if err := d.Export(ws[node]); err != nil {
					return err
				}
				_, err := ws[node].Finalize()
				return err
			})
			re, err := meshstore.MergeManifests(out)
			if err != nil {
				t.Fatal(err)
			}
			if rep, err := meshstore.Verify(out); err != nil || !rep.OK() {
				t.Fatalf("re-export does not verify: %v %v", err, rep.Problems)
			}
			if re.Partial || re.MeshHash != man.MeshHash {
				t.Fatalf("re-export partial=%v MeshHash %s, source %s", re.Partial, re.MeshHash, man.MeshHash)
			}
		})
	}
}
