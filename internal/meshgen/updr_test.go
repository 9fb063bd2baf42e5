package meshgen

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mrts/internal/cluster"
	"mrts/internal/core"
	"mrts/internal/geom"
	"mrts/internal/obs"
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

// TestRunOUPDRSameMeshOnOneToFourNodes: however the placement deals the
// blocks over the nodes — with neighbours on different nodes — RunOUPDR
// builds the mesh whose MeshHash and element count TestGoldenRuns pins on
// one node.
func TestRunOUPDRSameMeshOnOneToFourNodes(t *testing.T) {
	pin := loadGolden(t)["OUPDR"]
	golden, elements := pin.MeshHash, pin.Elements
	cfg := UPDRConfig{Blocks: 3, TargetElements: 5000}
	for nodes := 1; nodes <= 4; nodes++ {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			ptrs := newGrid(nil, cfg.Blocks*cfg.Blocks, nodes, 0, 1).ptrs
			split := make([]int, nodes)
			cross := 0
			for idx, ptr := range ptrs {
				split[ptr.Home]++
				i, j := idx%cfg.Blocks, idx/cfg.Blocks
				if i+1 < cfg.Blocks && ptrs[idx+1].Home != ptr.Home {
					cross++
				}
				if j+1 < cfg.Blocks && ptrs[idx+cfg.Blocks].Home != ptr.Home {
					cross++
				}
			}
			if nodes > 1 && cross == 0 {
				t.Fatalf("the placement puts no two neighbours on different nodes (split %v)", split)
			}
			res, err := RunOUPDR(newTestCluster(t, nodes, 1<<30), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.MeshHash != golden || res.Elements != elements || !res.Conforming {
				t.Fatalf("split %v: MeshHash %s, %d elements, conforming %v; want %s, %d, true",
					split, res.MeshHash, res.Elements, res.Conforming, golden, elements)
			}
		})
	}
}

// TestRunOUPDRRefusesAUsedCluster: the placement predicts every block's
// pointer from a fresh runtime, so a second run on the same cluster fails
// before it creates anything, naming a node that already holds objects.
func TestRunOUPDRRefusesAUsedCluster(t *testing.T) {
	cl := newTestCluster(t, 2, 1<<30)
	cfg := UPDRConfig{Blocks: 3, TargetElements: 3000}
	if _, err := RunOUPDR(cl, cfg); err != nil {
		t.Fatal(err)
	}
	held := make([]int, cl.Nodes())
	node := -1
	for i, rt := range cl.Runtimes() {
		held[i] = rt.NumLocalObjects()
		if node < 0 && held[i] > 0 {
			node = i
		}
	}
	_, err := RunOUPDR(cl, cfg)
	want := fmt.Sprintf("node %d already holds %d objects", node, held[node])
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("second run: err = %v, want it to say %q", err, want)
	}
	for i, rt := range cl.Runtimes() {
		if got := rt.NumLocalObjects(); got != held[i] {
			t.Fatalf("node %d holds %d objects after the refused run, %d before", i, got, held[i])
		}
	}
}

func TestRunOUPDROutOfCore(t *testing.T) {
	// Tiny budget: blocks must swap to disk, and the result must still be
	// identical to the in-core run.
	seq, err := RunUPDR(UPDRConfig{Blocks: 4, TargetElements: 12000, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunOUPDR(newTestCluster(t, 2, 1<<30), UPDRConfig{Blocks: 4, TargetElements: 12000})
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
	if res.MeshHash != ref.MeshHash {
		t.Errorf("OOC MeshHash %s, in-core %s", res.MeshHash, ref.MeshHash)
	}
	if !res.Conforming {
		t.Error("OOC interfaces do not conform")
	}
	if res.Mem.Evictions == 0 {
		t.Error("expected evictions under a 200KB budget")
	}
	checkReread(t, cl, 4, ref.MeshHash)
	t.Logf("OOC OUPDR: %v; evictions=%d loads=%d peak=%dKB",
		res, res.Mem.Evictions, res.Mem.Loads, res.Mem.PeakMemUsed/1024)
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

// TestBlockHullMatchesScan: the hull meshBlock walks from the block's corner
// holds the scan's points, each once, and the interface sets read from it are
// the ones the scan gives, on blocks across the grid and sizes.
func TestBlockHullMatchesScan(t *testing.T) {
	for _, c := range []struct {
		nb, i, j int
		h        float64
	}{{2, 1, 0, 0.05}, {4, 0, 0, 0.01}, {4, 3, 2, 0.013}, {16, 7, 15, 0.003}} {
		bm, err := meshBlock(blockRect(c.nb, c.i, c.j), c.h, 0)
		if err != nil {
			t.Fatal(err)
		}
		scan := hullPointsOf(bm.mesh)
		sorted := func(pts []geom.Point) []geom.Point {
			pts = slices.Clone(pts)
			slices.SortFunc(pts, func(a, b geom.Point) int {
				return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y))
			})
			return pts
		}
		if !slices.Equal(sorted(bm.hull), sorted(scan)) {
			t.Fatalf("%+v: walked hull (%d points) differs from the scan (%d)", c, len(bm.hull), len(scan))
		}
		scanned := &blockMesh{rect: bm.rect, mesh: bm.mesh, hull: scan}
		for side := 0; side < 2; side++ {
			if got, want := bm.interfacePoints(side), scanned.interfacePoints(side); len(got) == 0 || !slices.Equal(got, want) {
				t.Fatalf("%+v side %d: interface points %d, the scan's %d", c, side, len(got), len(want))
			}
		}
		bm.mesh.Recycle()
	}
}

// TestRunOUPDRReadsNothingBack: out of core and without an export, no block
// is loaded once the last mesh or interface handler is done — a load is for
// a message of the meshing itself — and the MeshHash is the in-core run's.
func TestRunOUPDRReadsNothingBack(t *testing.T) {
	cfg := UPDRConfig{Blocks: 4, TargetElements: 12000}
	ref, err := RunOUPDR(newTestCluster(t, 2, 1<<30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewTraceSink(0)
	cl, err := cluster.New(cluster.Config{Nodes: 2, MemBudget: 200_000, Factory: Factory, Trace: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := RunOUPDR(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.Evictions == 0 {
		t.Fatal("no evictions: the budget must force swapping")
	}
	if res.MeshHash != ref.MeshHash {
		t.Fatalf("out-of-core MeshHash %s, in-core %s", res.MeshHash, ref.MeshHash)
	}
	// The node tracers share one epoch, so their timelines compare.
	var meshEnd int64
	var loads []int64
	for i, tr := range sink.Tracers() {
		if n := tr.Dropped(); n > 0 {
			t.Fatalf("tracer %d dropped %d trace events", i, n)
		}
		for _, ev := range tr.Events() {
			switch {
			case ev.Kind == obs.KindHandler && (ev.Arg == int64(hBlockMesh) || ev.Arg == int64(hBlockIface)):
				meshEnd = max(meshEnd, ev.TS+ev.Dur)
			case ev.Kind == obs.KindSwapLoad:
				loads = append(loads, ev.TS)
			}
		}
	}
	if uint64(len(loads)) != res.Mem.Loads {
		t.Fatalf("the trace holds %d loads, the run counted %d", len(loads), res.Mem.Loads)
	}
	late := 0
	for _, ts := range loads {
		if ts >= meshEnd {
			late++
		}
	}
	if late > 0 {
		t.Fatalf("%d of %d loads started after meshing ended", late, len(loads))
	}
}

// TestBlockDigestsNameWhatIsWrong: a block digested twice must digest alike,
// and a digest off the grid is refused. (A block without a digest is read by
// the dump; DumpAll names a block nobody reported.)
func TestBlockDigestsNameWhatIsWrong(t *testing.T) {
	sh := newBlockShared(2)
	b := BlockDump{I: 1, J: 0, Elements: 5, Hash: "aa"}
	for k := 0; k < 2; k++ {
		if err := sh.record(b); err != nil {
			t.Fatalf("digest %d of the same block: %v", k+1, err)
		}
	}
	if err := sh.record(BlockDump{I: 1, J: 0, Elements: 5, Hash: "ab"}); err == nil {
		t.Fatal("a second, different digest of block (1,0) was accepted")
	}
	if err := sh.record(BlockDump{I: 2, J: 0, Hash: "aa"}); err == nil {
		t.Fatal("a digest off the grid was accepted")
	}
}

// TestRunOUPDRWaitsForTerminationOnce: RunOUPDR on two nodes crosses one
// termination barrier, the one that ends the meshing — no dump pass waits
// for a second after it — and the MeshHash it merges from the digests the
// blocks took as they were meshed is the one the blocks read back through
// the swap path digest to. Node 0 sends one announcement per barrier to
// each other node; the trace counts them.
func TestRunOUPDRWaitsForTerminationOnce(t *testing.T) {
	const wireTermAnnounce = 8 // core's wire kind of a termination announcement
	sink := obs.NewTraceSink(0)
	cl, err := cluster.New(cluster.Config{Nodes: 2, WorkersPerNode: 1, MemBudget: 150_000,
		Factory: Factory, Trace: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cfg := UPDRConfig{Blocks: 4, TargetElements: 8000}
	res, err := RunOUPDR(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.Evictions == 0 {
		t.Fatal("no evictions: the budget must force swapping")
	}
	announced := 0
	for i, tr := range sink.Tracers() {
		if n := tr.Dropped(); n > 0 {
			t.Fatalf("tracer %d dropped %d trace events", i, n)
		}
		for _, ev := range tr.Events() {
			if ev.Kind == obs.KindCommSend && ev.ID == wireTermAnnounce {
				announced++
			}
		}
	}
	if announced != 1 {
		t.Errorf("RunOUPDR announced termination %d times, want 1", announced)
	}
	checkReread(t, cl, cfg.Blocks, res.MeshHash)
}
