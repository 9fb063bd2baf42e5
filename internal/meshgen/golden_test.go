package meshgen

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"

	"mrts/internal/geom"
	"mrts/internal/mesh"
)

// TestGoldenRuns pins what the three methods produce on small fixed inputs,
// as recorded with the map-based kernel that preceded the grow/commit one.
// RunOUPDR reports the canonical MeshHash of the mesh RunUPDR builds (the
// in-core runs have no dump pass and so no hash); for RunUPDR, RunNUPDR and
// RunPCDM the exact element and vertex counts are pinned.
func TestGoldenRuns(t *testing.T) {
	type counts struct{ elements, vertices int }
	check := func(t *testing.T, res Result, err error, want counts) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if got := (counts{res.Elements, res.Vertices}); got != want {
			t.Errorf("%s: got %+v, want %+v", res.Method, got, want)
		}
	}
	t.Run("UPDR", func(t *testing.T) {
		res, err := RunUPDR(UPDRConfig{Blocks: 3, TargetElements: 5000, PEs: 1})
		check(t, res, err, counts{5118, 2829})
	})
	t.Run("OUPDR", func(t *testing.T) {
		cl := newTestCluster(t, 1, 1<<30)
		res, err := RunOUPDR(cl, UPDRConfig{Blocks: 3, TargetElements: 5000})
		check(t, res, err, counts{5118, 2829})
		const want = "80acf9032c132089de7c19e3fbe6fc46b16df9869d5b732b7add68bc60bbe996"
		if res.MeshHash != want {
			t.Errorf("MeshHash %s, want %s", res.MeshHash, want)
		}
	})
	t.Run("NUPDR", func(t *testing.T) {
		res, err := RunNUPDR(NUPDRConfig{TargetElements: 6000, MaxLeafElems: 600, PEs: 1})
		check(t, res, err, counts{8584, 4884})
	})
	t.Run("PCDM", func(t *testing.T) {
		res, err := RunPCDM(PCDMConfig{Grid: 3, TargetElements: 5000, PEs: 1})
		check(t, res, err, counts{4642, 2645})
	})
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
