package tier

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mrts/internal/bufpool"
	"mrts/internal/storage"
	"mrts/internal/workload"
)

// fuzzFrameRaw bounds the raw length a fuzzed frame may claim. Up to
// maxFrameRaw is a valid claim that decodeFrame allocates for before it reads
// a token, so larger claims would only make the fuzzer's workers big; the
// bound check itself is TestCompressedStoreCorruptFrames's huge-raw case.
const fuzzFrameRaw = 1 << 20

// FuzzDecodeFrame feeds arbitrary bytes to the tier-0.5 frame decoder, seeded
// with frames the layer itself writes: raw (small and incompressible) and
// plane-coded (records and a refined mesh block). A frame arrives in a
// buffer lent read-only by the store below, so decoding must leave it as it
// was; a frame that decodes must yield exactly the raw length its header
// claims.
func FuzzDecodeFrame(f *testing.F) {
	cs := newCompressedStore(storage.NewMem(), CompressConfig{}, nil)
	block, err := workload.RefinedBlock(200)
	if err != nil {
		f.Fatal(err)
	}
	for _, raw := range [][]byte{{}, []byte("tiny"), compressible(2048), incompressible(600, 1), block} {
		frame := cs.encodeFrame(raw)
		f.Add(bytes.Clone(frame))
		f.Add(bytes.Clone(frame[:len(frame)-1]))
		bufpool.Put(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) >= frameHdrLen && binary.LittleEndian.Uint32(frame[2:]) > fuzzFrameRaw {
			t.Skip("claims more than the fuzzing bound")
		}
		before := bytes.Clone(frame)
		out, err := cs.decodeFrame(frame)
		if !bytes.Equal(frame, before) {
			t.Fatal("decodeFrame wrote into the frame")
		}
		if err != nil {
			if out != nil {
				t.Fatalf("decodeFrame returned %d bytes with error %v", len(out), err)
			}
			return
		}
		if want := int(binary.LittleEndian.Uint32(frame[2:])); len(out) != want {
			t.Fatalf("decoded %d bytes, header claims %d", len(out), want)
		}
		bufpool.Put(out)
	})
}
