package meshstore

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mrts/internal/planes"
	"mrts/internal/workload"
)

// testPayload builds a deterministic payload shaped like an encoded block —
// seeded float64 coordinates, then uint32 indices below 2^16 — so the plane
// coder shrinks it, but not trivially.
func testPayload(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 0, n+16)
	for len(b) < n/2 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rng.Float64()))
	}
	for len(b) < n {
		b = binary.LittleEndian.AppendUint32(b, uint32(rng.Intn(1<<16)))
	}
	return b[:n]
}

func blockHash(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// writeTestStore writes a complete blocks×blocks grid across `writers`
// chunks (round-robin), merges, and returns the merged manifest.
func writeTestStore(t *testing.T, dir string, blocks, writers int, compress bool) *Manifest {
	t.Helper()
	meta := Meta{Blocks: blocks, TargetElements: 1000, QualityBound: 1.5}
	ws := make([]*Writer, writers)
	for w := range ws {
		var err error
		ws[w], err = NewWriter(WriterConfig{Dir: dir, Writer: w, Meta: meta, Compress: compress})
		if err != nil {
			t.Fatalf("NewWriter(%d): %v", w, err)
		}
	}
	idx := 0
	for j := 0; j < blocks; j++ {
		for i := 0; i < blocks; i++ {
			p := testPayload(int64(idx+1), 600+137*idx)
			w := ws[idx%writers]
			if err := w.Append(BlockKey(i, j), i, j, int32(100+idx), blockHash(p), p); err != nil {
				t.Fatalf("Append(%d,%d): %v", i, j, err)
			}
			idx++
		}
	}
	for w, wr := range ws {
		if _, err := wr.Finalize(); err != nil {
			t.Fatalf("Finalize(%d): %v", w, err)
		}
	}
	man, err := MergeManifests(dir)
	if err != nil {
		t.Fatalf("MergeManifests: %v", err)
	}
	return man
}

func TestWriteMergeReadRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			dir := t.TempDir()
			man := writeTestStore(t, dir, 3, 2, compress)
			if man.Partial {
				t.Fatal("merged manifest of a full grid marked partial")
			}
			if man.MeshHash == "" {
				t.Fatal("complete manifest missing MeshHash")
			}
			if got := man.Blocks(); got != 9 {
				t.Fatalf("manifest has %d blocks, want 9", got)
			}
			st, err := Open(dir)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer st.Close()
			idx := 0
			for j := 0; j < 3; j++ {
				for i := 0; i < 3; i++ {
					want := testPayload(int64(idx+1), 600+137*idx)
					got, rec, err := st.Payload(BlockKey(i, j))
					if err != nil {
						t.Fatalf("Payload(%d,%d): %v", i, j, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("payload (%d,%d) differs after round trip", i, j)
					}
					if rec.Elements != int32(100+idx) || rec.I != i || rec.J != j {
						t.Fatalf("record (%d,%d) = %+v", i, j, rec)
					}
					idx++
				}
			}
		})
	}
}

// TestMergeRefusesDuplicateBlock: a block two writers both report leaves
// the merged manifest partial and without a MeshHash, naming the block —
// cmd/meshctl refuses a partial merge, so a block reported twice fails the
// run.
func TestMergeRefusesDuplicateBlock(t *testing.T) {
	dir := t.TempDir()
	man := writeTestStore(t, dir, 2, 2, false)
	if man.Partial {
		t.Fatal("merged manifest of a full grid marked partial")
	}
	w, err := NewWriter(WriterConfig{Dir: dir, Writer: 2, Meta: man.Meta})
	if err != nil {
		t.Fatal(err)
	}
	p := testPayload(1, 600)
	if err := w.Append(BlockKey(0, 0), 0, 0, 100, blockHash(p), p); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	man, err = MergeManifests(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !man.Partial || man.MeshHash != "" {
		t.Fatalf("a block reported twice merged as complete (partial=%v, hash %q)", man.Partial, man.MeshHash)
	}
	if _, probs := man.complete(); !strings.Contains(strings.Join(probs, "\n"), "appears more than once") {
		t.Fatalf("merge of a duplicated block: problems %q", probs)
	}
}

func TestCompressionShrinksChunks(t *testing.T) {
	raw := t.TempDir()
	comp := t.TempDir()
	writeTestStore(t, raw, 3, 1, false)
	writeTestStore(t, comp, 3, 1, true)
	rawSize := chunkSize(t, raw)
	compSize := chunkSize(t, comp)
	if compSize >= rawSize {
		t.Fatalf("compressed chunk %d >= raw chunk %d", compSize, rawSize)
	}
}

func chunkSize(t *testing.T, dir string) int64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "chunk-*.mshc"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no chunks in %s: %v", dir, err)
	}
	var total int64
	for _, n := range names {
		fi, err := os.Stat(n)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

func TestVerifyCleanStore(t *testing.T) {
	dir := t.TempDir()
	man := writeTestStore(t, dir, 3, 2, true)
	rep, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("clean store has problems: %v", rep.Problems)
	}
	if rep.Partial {
		t.Fatal("complete store verified partial")
	}
	if rep.MeshHash != man.MeshHash {
		t.Fatalf("verify MeshHash %s != manifest %s", rep.MeshHash, man.MeshHash)
	}
	if rep.Blocks != 9 {
		t.Fatalf("verify saw %d blocks, want 9", rep.Blocks)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	writeTestStore(t, dir, 3, 1, false)
	// Flip a byte in the middle of the first frame's payload.
	path := filepath.Join(dir, chunkName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameFixedLen+30] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.OK() {
		t.Fatal("verify missed a corrupted payload")
	}
}

func TestTruncatedChunkReadsPartialPrefix(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Blocks: 2, TargetElements: 100}
	w, err := NewWriter(WriterConfig{Dir: dir, Writer: 0, Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	var offAfter2 int64
	for k := 0; k < 3; k++ {
		p := testPayload(int64(k+1), 900)
		if err := w.Append(BlockKey(k%2, k/2), k%2, k/2, int32(k), blockHash(p), p); err != nil {
			t.Fatal(err)
		}
		if k == 1 {
			offAfter2 = w.Bytes()
		}
	}
	if err := w.Close(); err != nil { // no manifest: simulates a crash
		t.Fatal(err)
	}
	// Chop the third frame in half — a SIGKILL mid-append.
	path := filepath.Join(dir, chunkName(0))
	if err := os.Truncate(path, offAfter2+(w.Bytes()-offAfter2)/2); err != nil {
		t.Fatal(err)
	}
	res, err := ScanChunk(path, true)
	if err != nil {
		t.Fatalf("ScanChunk: %v", err)
	}
	if !res.Partial {
		t.Fatal("truncated chunk not marked partial")
	}
	if len(res.Chunk.Records) != 2 {
		t.Fatalf("recovered %d frames, want the 2 intact ones", len(res.Chunk.Records))
	}
	if len(res.Problems) != 0 {
		t.Fatalf("intact prefix reported problems: %v", res.Problems)
	}
	// The store opens without any manifest and serves the intact prefix.
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if !st.Partial() {
		t.Fatal("manifest-less truncated store not partial")
	}
	got, _, err := st.Payload(BlockKey(1, 0))
	if err != nil {
		t.Fatalf("Payload from partial store: %v", err)
	}
	if !bytes.Equal(got, testPayload(2, 900)) {
		t.Fatal("partial store served wrong payload")
	}
}

func TestRewriteAfterCrashReplacesChunk(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Blocks: 1, TargetElements: 10}
	w, err := NewWriter(WriterConfig{Dir: dir, Writer: 0, Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	p := testPayload(7, 2000)
	if err := w.Append(BlockKey(0, 0), 0, 0, 5, blockHash(p), p); err != nil {
		t.Fatal(err)
	}
	w.Close() // crash: no manifest
	// Relaunch: a fresh writer truncates and rewrites the whole partition.
	w2, err := NewWriter(WriterConfig{Dir: dir, Writer: 0, Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(BlockKey(0, 0), 0, 0, 5, blockHash(p), p); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Finalize(); err != nil {
		t.Fatal(err)
	}
	man, err := MergeManifests(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Partial {
		t.Fatal("rewritten store still partial")
	}
	rep, err := Verify(dir)
	if err != nil || !rep.OK() {
		t.Fatalf("rewritten store fails verify: %v %v", err, rep.Problems)
	}
}

func TestCombineHashMatchesSpec(t *testing.T) {
	// The canonical digest rule, spelled out: sort by (J, I), render
	// "J I Elements Hash\n" per block, sha256 the lot.
	recs := []HashRecord{
		{I: 1, J: 0, Elements: 10, Hash: "bb"},
		{I: 0, J: 1, Elements: 30, Hash: "cc"},
		{I: 0, J: 0, Elements: 20, Hash: "aa"},
	}
	h := sha256.New()
	fmt.Fprintf(h, "0 0 20 aa\n0 1 10 bb\n1 0 30 cc\n")
	want := hex.EncodeToString(h.Sum(nil))
	if got := CombineHash(recs); got != want {
		t.Fatalf("CombineHash = %s, want %s", got, want)
	}
	// Input order must not matter.
	rev := []HashRecord{recs[2], recs[0], recs[1]}
	if CombineHash(rev) != want {
		t.Fatal("CombineHash depends on input order")
	}
}

func TestManifestDecodeBounded(t *testing.T) {
	dir := t.TempDir()
	big := strings.Repeat(" ", maxManifestBytes+2)
	path := filepath.Join(dir, MergedManifestName)
	if err := os.WriteFile(path, []byte(big), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readManifestFile(path); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("oversized manifest not rejected: %v", err)
	}
}

func TestIsChunkName(t *testing.T) {
	good := []string{"chunk-000.mshc", "chunk-007.mshc", "chunk-1234.mshc"}
	for _, n := range good {
		if !IsChunkName(n) {
			t.Errorf("IsChunkName(%q) = false", n)
		}
	}
	bad := []string{"", "chunk-.mshc", "chunk-00.mshc", "../chunk-000.mshc",
		"chunk-000.mshc.tmp", "MANIFEST.json", "chunk--01.mshc", "chunk-000.mshcx"}
	for _, n := range bad {
		if IsChunkName(n) {
			t.Errorf("IsChunkName(%q) = true", n)
		}
	}
}

func TestWriterRejectsAfterFinalize(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Writer: 0, Meta: Meta{Blocks: 1}})
	if err != nil {
		t.Fatal(err)
	}
	p := []byte("x")
	if err := w.Append(BlockKey(0, 0), 0, 0, 1, blockHash(p), p); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(BlockKey(0, 0), 0, 0, 1, blockHash(p), p); err == nil {
		t.Fatal("append after Finalize succeeded")
	}
}

// A real refined block — not the synthetic records of testPayload — must
// take at most two thirds of its raw size in a compressed chunk.
func TestRefinedBlockShrinks(t *testing.T) {
	block, err := workload.RefinedBlock(8000)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Meta: Meta{Blocks: 1, TargetElements: 8000}, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(BlockKey(0, 0), 0, 0, 8000, blockHash(block), block); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(block)) / float64(w.Bytes()); ratio < 1.5 {
		t.Fatalf("a %d-byte refined block took %d chunk bytes: ratio %.2f, want 1.5", len(block), w.Bytes(), ratio)
	}
	if _, err := MergeManifests(dir); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, _, err := st.Payload(BlockKey(0, 0))
	if err != nil || !bytes.Equal(got, block) {
		t.Fatalf("refined block round trip: err=%v match=%v", err, bytes.Equal(got, block))
	}
}

// Both compressed codecs decode a well-formed payload section — codec 1 is
// what stores written before the plane codec hold — and reject one whose
// decoded length disagrees with the raw length its header claims, before the
// digest is even consulted.
func TestDecodePayloadChecksRawLen(t *testing.T) {
	raw := testPayload(7, 4<<10)
	var deflated bytes.Buffer
	fw, err := flate.NewWriter(&deflated, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(raw)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	coded, ok := planes.Encode(nil, raw)
	if !ok {
		t.Fatal("test payload stored raw")
	}
	for name, c := range map[string]struct {
		codec byte
		enc   []byte
	}{
		"flate":  {codecFlate, deflated.Bytes()},
		"planes": {codecPlanes, coded},
	} {
		h := frameHeader{Codec: c.codec, Key: name, RawLen: len(raw), EncLen: len(c.enc), Sum: sha256.Sum256(raw)}
		got := make([]byte, h.RawLen)
		if err := decodePayload(got, h, c.enc); err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("%s: well-formed frame: err=%v match=%v", name, err, bytes.Equal(got, raw))
		}
		for _, claimed := range []int{len(raw) - 1, len(raw) + 1} {
			h.RawLen = claimed
			err := decodePayload(make([]byte, claimed), h, c.enc)
			if err == nil || strings.Contains(err.Error(), "digest") {
				t.Fatalf("%s: frame claiming %d raw bytes for %d: err=%v, want a length error", name, claimed, len(raw), err)
			}
		}
	}
}

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A small plane-coded frame whose header claims the largest raw length the
// format allows is refused by Payload and by the deep scan before either
// allocates that length: the tokens are counted first.
func TestClaimedRawLenIsCheckedBeforeAllocating(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Writer: 0, Meta: Meta{Blocks: 1, TargetElements: 10}, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	p := testPayload(1, 4<<10)
	if err := w.Append(BlockKey(0, 0), 0, 0, 1, blockHash(p), p); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, chunkName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != codecPlanes {
		t.Fatalf("frame codec %d, want the plane codec", data[4])
	}
	binary.LittleEndian.PutUint32(data[20:], maxPayloadBytes)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	const limit = 16 << 20 // far below the 256 MiB claimed
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var perr error
	if n := allocated(func() { _, _, perr = st.Payload(BlockKey(0, 0)) }); perr == nil || n > limit {
		t.Errorf("Payload: err %v after allocating %d bytes; want an error, under %d bytes", perr, n, limit)
	}
	var res ScanResult
	var serr error
	if n := allocated(func() { res, serr = ScanChunk(path, true) }); serr != nil || len(res.Problems) == 0 || n > limit {
		t.Errorf("deep scan: err %v, problems %v after allocating %d bytes; want a problem, under %d bytes", serr, res.Problems, n, limit)
	}
}
