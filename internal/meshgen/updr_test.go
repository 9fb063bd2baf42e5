package meshgen

import (
	"slices"
	"strings"
	"testing"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/core"
	"mrts/internal/geom"
)

func TestBoundaryPointsDeterministic(t *testing.T) {
	r1 := geom.NewRect(geom.Pt(0, 0), geom.Pt(0.5, 0.5))
	r2 := geom.NewRect(geom.Pt(0.5, 0), geom.Pt(1, 0.5))
	h := 0.07
	p1 := boundaryPoints(r1, h)
	p2 := boundaryPoints(r2, h)
	// The shared edge x=0.5 must carry identical points from both sides.
	e1 := edgePointsOn(p1, geom.Pt(0.5, 0), geom.Pt(0.5, 0.5))
	e2 := edgePointsOn(p2, geom.Pt(0.5, 0), geom.Pt(0.5, 0.5))
	if len(e1) < 2 {
		t.Fatalf("too few shared-edge points: %d", len(e1))
	}
	if !samePoints(e1, e2) {
		t.Fatalf("shared edge points differ:\n%v\n%v", e1, e2)
	}
}

func TestEncodeDecodePoints(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 2), geom.Pt(-3.5, 4.25)}
	got, err := decodePoints(encodePoints(pts))
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(pts, got) {
		t.Fatalf("roundtrip mismatch: %v", got)
	}
	if _, err := decodePoints([]byte{1}); err == nil {
		t.Error("short payload should fail")
	}
}

func TestRunUPDRSequential(t *testing.T) {
	res, err := RunUPDR(UPDRConfig{Blocks: 3, TargetElements: 4000, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements < 2000 || res.Elements > 8000 {
		t.Errorf("elements = %d, want ≈4000", res.Elements)
	}
	if !res.Conforming {
		t.Error("blocks do not conform at interfaces")
	}
	if res.Subdomains != 9 {
		t.Errorf("subdomains = %d", res.Subdomains)
	}
}

func TestRunUPDRParallelMatchesSequential(t *testing.T) {
	seq, err := RunUPDR(UPDRConfig{Blocks: 4, TargetElements: 6000, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunUPDR(UPDRConfig{Blocks: 4, TargetElements: 6000, PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Elements != par.Elements {
		t.Errorf("element count depends on PE count: %d vs %d", seq.Elements, par.Elements)
	}
	if !par.Conforming {
		t.Error("parallel run not conforming")
	}
}

func TestRunUPDRBadConfig(t *testing.T) {
	if _, err := RunUPDR(UPDRConfig{}); err == nil {
		t.Fatal("zero target should fail")
	}
}

func newTestCluster(t *testing.T, nodes int, budget int64) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Nodes:          nodes,
		WorkersPerNode: 1,
		MemBudget:      budget,
		Factory:        Factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestRunOUPDRInCore(t *testing.T) {
	// Large budget: no swapping; result must match the in-core method.
	seq, err := RunUPDR(UPDRConfig{Blocks: 3, TargetElements: 4000, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl := newTestCluster(t, 2, 1<<30)
	res, err := RunOUPDR(cl, UPDRConfig{Blocks: 3, TargetElements: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements != seq.Elements {
		t.Errorf("OUPDR elements %d != UPDR %d", res.Elements, seq.Elements)
	}
	if !res.Conforming {
		t.Error("OUPDR interfaces do not conform")
	}
	if res.Mem.Evictions != 0 {
		t.Errorf("no evictions expected with huge budget, got %d", res.Mem.Evictions)
	}
}

func TestRunOUPDROutOfCore(t *testing.T) {
	// Tiny budget: blocks must swap to disk, and the result must still be
	// identical to the in-core run.
	seq, err := RunUPDR(UPDRConfig{Blocks: 4, TargetElements: 12000, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Nodes:     2,
		MemBudget: 200_000, // bytes; each block mesh is several 10s of KB
		SpoolDir:  t.TempDir(),
		Factory:   Factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := RunOUPDR(cl, UPDRConfig{Blocks: 4, TargetElements: 12000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements != seq.Elements {
		t.Errorf("OOC run changed the mesh: %d vs %d elements", res.Elements, seq.Elements)
	}
	if !res.Conforming {
		t.Error("OOC interfaces do not conform")
	}
	if res.Mem.Evictions == 0 {
		t.Error("expected evictions under a 200KB budget")
	}
	t.Logf("OOC OUPDR: %v; evictions=%d loads=%d peak=%dKB",
		res, res.Mem.Evictions, res.Mem.Loads, res.Mem.PeakMemUsed/1024)
}

func TestRunOUPDR3InCore(t *testing.T) {
	cl := newTestCluster(t, 2, 1<<30)
	res, err := RunOUPDR3(cl, OUPDR3Config{Blocks: 2, TargetElements: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements < 2500 || res.Elements > 30000 {
		t.Errorf("elements = %d, want ≈8000 within 3x", res.Elements)
	}
	if res.Subdomains != 8 {
		t.Errorf("subdomains = %d", res.Subdomains)
	}
	t.Log(res)
}

func TestRunOUPDR3OutOfCore(t *testing.T) {
	cl, err := cluster.New(cluster.Config{
		Nodes:     2,
		MemBudget: 100_000,
		SpoolDir:  t.TempDir(),
		Factory:   Factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := RunOUPDR3(cl, OUPDR3Config{Blocks: 3, TargetElements: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.Evictions == 0 {
		t.Error("expected evictions under the tight budget")
	}
	// Re-run a second pass over the same (possibly evicted) blocks: the
	// serialized tetrahedral meshes must survive the round-trip.
	if res.Elements < 6000 {
		t.Errorf("elements = %d", res.Elements)
	}
	t.Logf("OOC OUPDR3: %v evictions=%d loads=%d", res, res.Mem.Evictions, res.Mem.Loads)
}

func TestRunOUPDR3BadConfig(t *testing.T) {
	cl := newTestCluster(t, 1, 1<<30)
	if _, err := RunOUPDR3(cl, OUPDR3Config{}); err == nil {
		t.Fatal("zero target should fail")
	}
}

// TestMeshHashOfIgnoresReportOrder: the dump sweep visits resident blocks
// first, so reports arrive in an order that depends on what was in core; the
// run-wide digest must not.
func TestMeshHashOfIgnoresReportOrder(t *testing.T) {
	dump := []BlockDump{
		{I: 0, J: 0, Elements: 10, Hash: "aa"}, {I: 1, J: 0, Elements: 11, Hash: "bb"},
		{I: 0, J: 1, Elements: 12, Hash: "cc"}, {I: 1, J: 1, Elements: 13, Hash: "dd"},
	}
	want := MeshHashOf(dump)
	for _, perm := range [][]int{{3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}} {
		shuffled := make([]BlockDump, len(dump))
		for i, k := range perm {
			shuffled[i] = dump[k]
		}
		if got := MeshHashOf(shuffled); got != want {
			t.Fatalf("MeshHashOf depends on report order: %v gives %s, want %s", perm, got, want)
		}
	}
	dump[2].Hash = "ce"
	if MeshHashOf(dump) == want {
		t.Fatal("MeshHashOf ignores a block's hash")
	}
}

func TestResidentFirstKeepsGridOrderWithinGroups(t *testing.T) {
	ptrs := make([]core.MobilePtr, 6)
	for i := range ptrs {
		ptrs[i] = core.MobilePtr{Home: 0, Seq: uint32(i + 1)}
	}
	in := map[core.MobilePtr]bool{ptrs[1]: true, ptrs[4]: true}
	got := residentFirst(ptrs, func(p core.MobilePtr) bool { return in[p] })
	want := []core.MobilePtr{ptrs[1], ptrs[4], ptrs[0], ptrs[2], ptrs[3], ptrs[5]}
	if !slices.Equal(got, want) {
		t.Fatalf("residentFirst = %v, want %v", got, want)
	}
}

// TestHullPointsComputedOnce: the cached hull is the scan's own result — same
// points, same order — and the interface sets read from it are what a fresh
// scan gives.
func TestHullPointsComputedOnce(t *testing.T) {
	bm, err := meshBlock(blockRect(2, 1, 0), 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh := &blockMesh{rect: bm.rect, mesh: bm.mesh, boundary: bm.boundary}
	first := bm.hullPoints()
	if len(first) == 0 || !slices.Equal(first, fresh.hullPoints()) {
		t.Fatalf("cached hull differs from a fresh scan")
	}
	if again := bm.hullPoints(); &again[0] != &first[0] {
		t.Fatalf("second call rescanned the mesh")
	}
	for side := 0; side < 2; side++ {
		fresh := &blockMesh{rect: bm.rect, mesh: bm.mesh, boundary: bm.boundary}
		if !slices.Equal(bm.interfacePoints(side), fresh.interfacePoints(side)) {
			t.Fatalf("side %d: interface points differ from a fresh scan", side)
		}
	}
}

// TestRunOUPDRDumpPassWritesNothing: out of core, the dump pass reloads
// blocks, reads them and lets them go again without a write — and the mesh
// digest is the in-core run's.
func TestRunOUPDRDumpPassWritesNothing(t *testing.T) {
	ref, err := RunOUPDR(newTestCluster(t, 2, 1<<30), UPDRConfig{Blocks: 4, TargetElements: 12000})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{Nodes: 2, MemBudget: 200_000, Factory: Factory})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := RunOUPDR(cl, UPDRConfig{Blocks: 4, TargetElements: 12000})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeshHash != ref.MeshHash {
		t.Fatalf("out-of-core MeshHash %s, in-core %s", res.MeshHash, ref.MeshHash)
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
		t.Fatalf("no clean drops in %d evictions: the dump pass rewrote what it only read", res.Mem.Evictions)
	}
	if puts := cl.DiskStats().Puts; puts+uint64(drops) != res.Mem.Evictions {
		t.Errorf("%d evictions = %d writes + %v clean drops does not add up", res.Mem.Evictions, puts, drops)
	}
}
