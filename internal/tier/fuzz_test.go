package tier

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mrts/internal/bufpool"
	"mrts/internal/planes"
	"mrts/internal/storage"
	"mrts/internal/workload"
)

// fuzzFrameRaw bounds the raw length a fuzzed frame's tokens may fill.
// decodeFrame allocates the length a header claims only once the tokens are
// counted and fill it, so a frame that claims more costs nothing to refuse;
// only frames whose tokens really fill more are skipped, since they would
// only make the fuzzer's workers big.
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
		if len(frame) >= frameHdrLen && frame[1] == codecPlanes {
			if n := int(binary.LittleEndian.Uint32(frame[2:])); n > fuzzFrameRaw && planes.Check(frame[frameHdrLen:], n) == nil {
				t.Skip("tokens fill more than the fuzzing bound")
			}
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
