package meshstore

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"

	"mrts/internal/bufpool"
	"mrts/internal/workload"
)

// FuzzPayload feeds arbitrary bytes to the frame decoder both store readers
// share (Store.Payload and the deep scan), seeded with the frames the Writer
// writes: raw and plane-coded, of records and of a refined mesh block, whole
// and cut short. A frame that decodes must yield exactly the raw length its
// header claims, with the digest it records, and decoding must leave the
// frame as it was. The decoder checks a claimed raw length against the
// payload section before it allocates it
// (TestClaimedRawLenIsCheckedBeforeAllocating), so a header that claims far
// more than its frame holds costs the fuzzer nothing.
func FuzzPayload(f *testing.F) {
	block, err := workload.RefinedBlock(20)
	if err != nil {
		f.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		dir := f.TempDir()
		w, err := NewWriter(WriterConfig{Dir: dir, Writer: 0, Meta: Meta{Blocks: 2, TargetElements: 10}, Compress: compress})
		if err != nil {
			f.Fatal(err)
		}
		for k, p := range [][]byte{[]byte("tiny"), testPayload(1, 600), block} {
			if err := w.Append(BlockKey(k%2, k/2), k%2, k/2, int32(k), blockHash(p), p); err != nil {
				f.Fatal(err)
			}
		}
		man, err := w.Finalize()
		if err != nil {
			f.Fatal(err)
		}
		chunk, err := os.ReadFile(filepath.Join(dir, chunkName(0)))
		if err != nil {
			f.Fatal(err)
		}
		for _, rec := range man.Records() {
			frame := chunk[rec.Offset : rec.Offset+rec.Length]
			f.Add(bytes.Clone(frame), rec.Key)
			f.Add(bytes.Clone(frame[:len(frame)-1]), rec.Key)
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte, key string) {
		before := bytes.Clone(frame)
		out, err := decodeFrame(frame, key, bufpool.Get)
		if !bytes.Equal(frame, before) {
			t.Fatal("decodeFrame wrote into the frame")
		}
		if err != nil {
			return
		}
		h, _, _, err := parseFixed(frame)
		if err != nil {
			t.Fatalf("decoded a frame whose header does not parse: %v", err)
		}
		if len(out) != h.RawLen {
			t.Fatalf("decoded %d bytes, header claims %d", len(out), h.RawLen)
		}
		if sha256.Sum256(out) != h.Sum {
			t.Fatal("decoded payload does not carry the digest the frame records")
		}
		bufpool.Put(out)
	})
}
