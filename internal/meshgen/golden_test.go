package meshgen

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"testing"

	"mrts/internal/geom"
	"mrts/internal/mesh"
)

var regolden = flag.Bool("regolden", false,
	"rewrite testdata/golden.json from this run and print the old and new reports side by side (make regolden)")

// goldenFile holds the goldens' pins: one quality report per run, its
// counts and, for OUPDR, its MeshHash among them. make regolden rewrites
// it; DESIGN.md "When a mesh may change" says when that is allowed.
const goldenFile = "testdata/golden.json"

// loadGolden reads the pinned reports.
func loadGolden(t *testing.T) map[string]*Quality {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]*Quality{}
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	return pins
}

// checkGolden compares a run's report with its pin: equal JSON, or, with
// -regolden, the new pin recorded in got. A difference is shown side by
// side.
func checkGolden(t *testing.T, pins, got map[string]*Quality, name string, q *Quality) {
	t.Helper()
	pin := pins[name]
	if pin == nil {
		pin = &Quality{}
	}
	a, _ := json.Marshal(pin)
	b, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case *regolden:
		got[name] = q
		if !bytes.Equal(a, b) {
			t.Logf("%s re-pinned, old | new:\n%s", name, QualityDiff(pin, q))
		}
	case !bytes.Equal(a, b):
		t.Errorf("%s: the report differs from its pin (make regolden re-pins), old | new:\n%s", name, QualityDiff(pin, q))
	}
}

// TestGoldenRuns pins what the methods produce on small fixed inputs, by
// their quality reports in testdata/golden.json: counts, angles, size
// fidelity, validity and conformity, and RunOUPDR's MeshHash. The in-core
// runs have no dump pass and so no hash; 1-PE runs are deterministic, so
// RunNUPDR's and RunPCDM's reports are too.
func TestGoldenRuns(t *testing.T) {
	pins := loadGolden(t)
	got := map[string]*Quality{}
	check := func(t *testing.T, name string, res Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		q := res.Quality
		if q.Elements != res.Elements || q.Vertices != res.Vertices || q.Pieces != res.Subdomains {
			t.Errorf("%s: the report counts %d elements, %d vertices, %d pieces; the run %d, %d, %d",
				name, q.Elements, q.Vertices, q.Pieces, res.Elements, res.Vertices, res.Subdomains)
		}
		checkGolden(t, pins, got, name, q)
	}
	t.Run("UPDR", func(t *testing.T) {
		res, err := RunUPDR(UPDRConfig{Blocks: 3, TargetElements: 5000, PEs: 1, Quality: true})
		check(t, "UPDR", res, err)
	})
	t.Run("OUPDR", func(t *testing.T) {
		cl := newTestCluster(t, 1, 1<<30)
		res, err := RunOUPDR(cl, UPDRConfig{Blocks: 3, TargetElements: 5000, Quality: true})
		check(t, "OUPDR", res, err)
	})
	t.Run("NUPDR", func(t *testing.T) {
		res, err := RunNUPDR(NUPDRConfig{TargetElements: 6000, MaxLeafElems: 600, PEs: 1, Quality: true})
		check(t, "NUPDR", res, err)
	})
	t.Run("PCDM", func(t *testing.T) {
		res, err := RunPCDM(PCDMConfig{Grid: 3, TargetElements: 5000, PEs: 1, Quality: true})
		check(t, "PCDM", res, err)
	})
	if *regolden && !t.Failed() {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHashMeshPinned pins hashMesh's digest bytes for a fixed mesh, super
// triangles included in the input and left out of the digest.
func TestHashMeshPinned(t *testing.T) {
	m := mesh.New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 400; i++ {
		if _, err := m.InsertPoint(geom.Pt(rng.Float64(), rng.Float64()), mesh.NoTri); err != nil {
			t.Fatal(err)
		}
	}
	var enc bytes.Buffer
	if err := m.EncodeTo(&enc); err != nil {
		t.Fatal(err)
	}
	const want = "bf2714c0a4eb7f4a5bc0ad41b38443c492961a9f82828ff9fbdb8306b5532dc7"
	if got := hex.EncodeToString(hashMesh(enc.Bytes())); got != want {
		t.Errorf("hashMesh = %s, want %s", got, want)
	}
	if got := hex.EncodeToString(hashMesh([]byte("not a mesh"))); got != "15a8c96daf0e74c7792c0f235f0f3cf48e4129f949cdcc46f43e56749852a202" {
		t.Errorf("undecodable digest = %s", got)
	}
}
