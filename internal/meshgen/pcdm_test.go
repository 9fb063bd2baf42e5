package meshgen

import (
	"bytes"
	"strings"
	"testing"

	"mrts/internal/cluster"
	"mrts/internal/core"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/obs"
)

// hullPointsOf is the oracle for reportOf's hull walk: the endpoints of every
// edge without a neighbour, found by a scan of every triangle.
func hullPointsOf(m *mesh.Mesh) []geom.Point {
	seen := make(map[geom.Point]bool)
	var out []geom.Point
	m.ForEachTri(func(id mesh.TriID, tr mesh.Tri) {
		for k := 0; k < 3; k++ {
			if tr.N[k] == mesh.NoTri {
				for _, v := range []mesh.VertexID{tr.V[(k+1)%3], tr.V[(k+2)%3]} {
					p := m.Vertex(v)
					if !seen[p] {
						seen[p] = true
						out = append(out, p)
					}
				}
			}
		}
	})
	return out
}

// checkHullWalk requires reportOf's hull of subdomain r to be the scan's
// point set, each point once.
func checkHullWalk(t *testing.T, r geom.Rect, m *mesh.Mesh) {
	t.Helper()
	rep, err := reportOf(r, m)
	if err != nil {
		t.Errorf("%v: %v", r, err)
		return
	}
	want := hullPointsOf(m)
	got := map[geom.Point]bool{}
	for _, p := range rep.hull {
		got[p] = true
	}
	if len(got) != len(rep.hull) || len(got) != len(want) {
		t.Errorf("%v: walk gives %d points (%d distinct), scan %d", r, len(rep.hull), len(got), len(want))
		return
	}
	for _, p := range want {
		if !got[p] {
			t.Errorf("%v: walk misses hull point %v", r, p)
			return
		}
	}
}

func TestInterfaceSide(t *testing.T) {
	r := geom.NewRect(geom.Pt(0.25, 0.25), geom.Pt(0.5, 0.5))
	cases := []struct {
		p    geom.Point
		want int
	}{
		{geom.Pt(0.25, 0.3), sideLeft},
		{geom.Pt(0.5, 0.3), sideRight},
		{geom.Pt(0.3, 0.25), sideBottom},
		{geom.Pt(0.3, 0.5), sideTop},
		{geom.Pt(0.3, 0.3), -1},
	}
	for _, c := range cases {
		if got := interfaceSide(r, c.p); got != c.want {
			t.Errorf("interfaceSide(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestRunPCDMSequential(t *testing.T) {
	res, err := RunPCDM(PCDMConfig{Grid: 3, TargetElements: 6000, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conforming {
		t.Error("PCDM subdomains do not conform at interfaces")
	}
	if res.Elements < 3000 || res.Elements > 12000 {
		t.Errorf("elements = %d, want ≈6000", res.Elements)
	}
	if res.Subdomains != 9 {
		t.Errorf("subdomains = %d", res.Subdomains)
	}
	t.Log(res)
}

func TestRunPCDMParallelConforms(t *testing.T) {
	res, err := RunPCDM(PCDMConfig{Grid: 4, TargetElements: 10000, PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conforming {
		t.Error("parallel PCDM not conforming")
	}
	t.Log(res)
}

func TestRunPCDMBadConfig(t *testing.T) {
	if _, err := RunPCDM(PCDMConfig{}); err == nil {
		t.Fatal("zero target should fail")
	}
}

func TestRunOPCDMInCore(t *testing.T) {
	cl := newTestCluster(t, 2, 1<<30)
	res, err := RunOPCDM(cl, PCDMConfig{Grid: 3, TargetElements: 6000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conforming {
		t.Error("OPCDM subdomains do not conform")
	}
	ref, err := RunPCDM(PCDMConfig{Grid: 3, TargetElements: 6000, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := float64(ref.Elements)*0.85, float64(ref.Elements)*1.15
	if f := float64(res.Elements); f < lo || f > hi {
		t.Errorf("OPCDM elements %d far from PCDM %d", res.Elements, ref.Elements)
	}
	t.Log(res)
}

func TestRunOPCDMOutOfCore(t *testing.T) {
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
	res, err := RunOPCDM(cl, PCDMConfig{Grid: 4, TargetElements: 12000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conforming {
		t.Error("OOC OPCDM not conforming")
	}
	if res.Mem.Evictions == 0 {
		t.Error("expected evictions under a 100KB budget")
	}
	t.Logf("OOC OPCDM: %v; evictions=%d loads=%d", res, res.Mem.Evictions, res.Mem.Loads)
}

func TestSubdomainObjRoundtrip(t *testing.T) {
	m, err := newSubdomainMesh(geom.NewRect(geom.Pt(0, 0), geom.Pt(0.5, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	o := &subdomainObj{
		Rect:    geom.NewRect(geom.Pt(0, 0), geom.Pt(0.5, 0.5)),
		MaxArea: 0.01, Beta: 1.5,
		Nbs:   [4]core.MobilePtr{core.MobilePtr{Home: 1, Seq: 2}, core.MobilePtr{}, core.MobilePtr{Home: 0, Seq: 9}, core.MobilePtr{}},
		M:     m,
		since: m.NumVertices(),
	}
	var buf bytes.Buffer
	if err := o.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	var o2 subdomainObj
	if err := o2.DecodeFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if o2.Rect != o.Rect || o2.MaxArea != o.MaxArea || o2.Beta != o.Beta || o2.Nbs != o.Nbs || o2.since != o.since {
		t.Fatalf("metadata mismatch: %+v", o2)
	}
	if o2.M == nil || o2.M.NumTriangles() != m.NumTriangles() {
		t.Fatal("mesh not restored")
	}
	if err := o2.M.Validate(); err != nil {
		t.Fatal(err)
	}
	// Empty-mesh roundtrip.
	o3 := &subdomainObj{Rect: o.Rect}
	var buf2 bytes.Buffer
	if err := o3.EncodeTo(&buf2); err != nil {
		t.Fatal(err)
	}
	var o4 subdomainObj
	if err := o4.DecodeFrom(&buf2); err != nil {
		t.Fatal(err)
	}
	if o4.M != nil {
		t.Fatal("nil mesh should stay nil")
	}
	// A since past the mesh's vertices is corruption, not a place to
	// refine from.
	for _, bad := range []*subdomainObj{{Rect: o.Rect, since: 1}, {Rect: o.Rect, M: m, since: m.NumVertices() + 1}} {
		var buf bytes.Buffer
		if err := bad.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		if err := new(subdomainObj).DecodeFrom(&buf); err == nil {
			t.Errorf("since %d decoded without an error", bad.since)
		}
	}
}

// TestPCDMAuditSeesOnePointOff: the audit compares the two sides of every
// interface, so one point more on one side of one shared edge fails it.
func TestPCDMAuditSeesOnePointOff(t *testing.T) {
	left, right := blockRect(2, 0, 0), blockRect(2, 1, 0)
	edge := []geom.Point{geom.Pt(0.5, 0), geom.Pt(0.5, 0.125), geom.Pt(0.5, 0.25), geom.Pt(0.5, 0.5)}
	reports := []subdomainReport{
		{rect: left, hull: append([]geom.Point{geom.Pt(0, 0), geom.Pt(0, 0.5)}, edge...)},
		{rect: right, hull: append([]geom.Point{geom.Pt(1, 0), geom.Pt(1, 0.5)}, edge...)},
	}
	if !auditInterfaces(reports) {
		t.Fatal("two matching interfaces fail the audit")
	}
	reports[1].hull = append(reports[1].hull, geom.Pt(0.5, 0.375))
	if auditInterfaces(reports) {
		t.Fatal("an interface point on one side only passes the audit")
	}
}

// TestOPCDMReportsNameWhatIsMissing: merging the nodes' reports, a
// subdomain that never reported is an error that names it, and so is one
// two nodes reported; a report off the grid is refused, and a later report
// replaces an earlier one.
func TestOPCDMReportsNameWhatIsMissing(t *testing.T) {
	sh := newOPCDMShared(2)
	hull := []geom.Point{geom.Pt(0.5, 0)}
	for _, r := range []geom.Rect{blockRect(2, 1, 0), blockRect(2, 0, 1)} {
		if err := sh.record(subdomainReport{rect: r, elements: 1, hull: hull}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.record(subdomainReport{rect: blockRect(2, 2, 0), hull: hull}); err == nil {
		t.Error("a report off the grid was accepted")
	}
	_, err := mergeReports(2, []*opcdmShared{sh})
	if err == nil || !strings.Contains(err.Error(), "subdomain (0,0) missing") {
		t.Fatalf("merge = %v, want the first subdomain without a report named", err)
	}
	other := newOPCDMShared(2)
	for _, r := range []geom.Rect{blockRect(2, 0, 0), blockRect(2, 1, 1), blockRect(2, 1, 0)} {
		if err := other.record(subdomainReport{rect: r, elements: 2, hull: hull}); err != nil {
			t.Fatal(err)
		}
	}
	_, err = mergeReports(2, []*opcdmShared{sh, other})
	if err == nil || !strings.Contains(err.Error(), "subdomain (1,0) reported twice") {
		t.Fatalf("merge = %v, want the subdomain both nodes reported named", err)
	}
	for _, r := range []geom.Rect{blockRect(2, 0, 0), blockRect(2, 1, 1), blockRect(2, 1, 0)} {
		if err := sh.record(subdomainReport{rect: r, elements: 2, hull: hull}); err != nil {
			t.Fatal(err)
		}
	}
	reports, err := mergeReports(2, []*opcdmShared{sh})
	if err != nil {
		t.Fatal(err)
	}
	for idx, want := range []int{2, 2, 1, 2} {
		if reports[idx].elements != want {
			t.Errorf("slot %d holds %d elements, want the last report's %d", idx, reports[idx].elements, want)
		}
	}
}

// TestRunOPCDMReadsNothingBack: out of core, no subdomain is loaded once the
// last refine handler is done — the audit reads the reports the handlers
// recorded — and the mesh conforms.
func TestRunOPCDMReadsNothingBack(t *testing.T) {
	sink := obs.NewTraceSink(0)
	cl, err := cluster.New(cluster.Config{Nodes: 2, MemBudget: 100_000, Factory: Factory, Trace: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := RunOPCDM(cl, PCDMConfig{Grid: 4, TargetElements: 12000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conforming {
		t.Fatal("out-of-core OPCDM does not conform")
	}
	if res.Mem.Evictions == 0 {
		t.Fatal("no evictions: the budget must force swapping")
	}
	// The node tracers share one epoch, so their timelines compare.
	var refineEnd int64
	var loads []int64
	for _, tr := range sink.Tracers() {
		if n := tr.Dropped(); n > 0 {
			t.Fatalf("%s dropped %d trace events", tr.Label(), n)
		}
		for _, ev := range tr.Events() {
			switch {
			case ev.Kind == obs.KindHandler && ev.Arg == int64(hSDRefine):
				refineEnd = max(refineEnd, ev.TS+ev.Dur)
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
		if ts >= refineEnd {
			late++
		}
	}
	if late > 0 {
		t.Fatalf("%d of %d loads started after refinement ended", late, len(loads))
	}
	t.Logf("%v; %d evictions, %d loads", res, res.Mem.Evictions, len(loads))
}
