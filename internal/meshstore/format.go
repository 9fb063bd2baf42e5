// Package meshstore implements the versioned, chunked, rank-independent
// on-disk mesh format (the DMPlex-style parallel checkpoint/serve format).
//
// A store is a directory. Each writer (one per node) appends framed block
// records to its own chunk file, chunk-<writer>.mshc, so an N-node run
// writes N chunks fully in parallel with no coordination beyond the
// directory name. Frames are self-describing and self-verifying: every
// frame carries the block key, grid coordinates, the block's canonical
// mesh digest, and a SHA-256 of the raw payload, so any reader can check
// integrity without the cluster that wrote it. A manifest
// (manifest-<writer>.json per writer, MANIFEST.json once merged) indexes
// the frames and carries the run-wide combined MeshHash.
//
// Two properties shape the format:
//
//   - Rank independence: nothing in a chunk or manifest binds a block to
//     the node that wrote it. A mesh written by N nodes restores onto M
//     nodes by dealing the blocks afresh, block j·blocks+i to node
//     (j·blocks+i) mod M — the chunk a block came from is irrelevant.
//   - Streaming append: frames are written at irrevocable commit points
//     while generation is still running, and readers tolerate a truncated
//     trailing frame (a crash mid-append, or a read racing the writer), so
//     a partial mesh is readable mid-run.
package meshstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"mrts/internal/bufpool"
	"mrts/internal/planes"
)

// FormatVersion is bumped on any incompatible change to the frame or
// manifest layout. Readers reject versions they don't know.
const FormatVersion = 1

const (
	// frameMagic opens every frame: "MSC1".
	frameMagic = "MSC1"
	// frameFixedLen is the fixed-size frame header before the variable
	// key, hash, and payload sections.
	frameFixedLen = 60

	// Frame codecs. Codec 1 was DEFLATE, which stores written before the
	// plane codec hold; readers refuse it.
	codecRaw    = 0
	codecFlate  = 1
	codecPlanes = 2

	// maxPayloadBytes bounds both rawLen and encLen on decode so a corrupt
	// or hostile frame header cannot drive an unbounded allocation.
	maxPayloadBytes = 1 << 28
	// compressMin is the smallest payload worth running through the coder.
	compressMin = 512
	// maxManifestBytes bounds the manifest JSON decode (the merge path's
	// one variable-size external input).
	maxManifestBytes = 64 << 20
)

// frameHeader is the decoded fixed+variable header of one frame.
//
// On-disk layout (little-endian):
//
//	off  len
//	  0    4  magic "MSC1"
//	  4    1  codec (0 raw, 2 planes; 1, DEFLATE, is refused)
//	  5    1  key length K
//	  6    1  canonical-hash length H
//	  7    1  reserved (0)
//	  8    4  u32 block i
//	 12    4  u32 block j
//	 16    4  u32 elements
//	 20    4  u32 rawLen   (payload size before compression)
//	 24    4  u32 encLen   (payload size on disk; == rawLen when raw)
//	 28   32  SHA-256 of the raw payload
//	 60    K  block key
//	 60+K  H  canonical mesh digest (hex, or a tagged fallback string)
//	 ...      encLen payload bytes
type frameHeader struct {
	Codec    byte
	Key      string
	Hash     string
	I, J     int
	Elements int32
	RawLen   int
	EncLen   int
	Sum      [32]byte
}

// varLen is the frame length after the fixed header, excluding the payload.
func (h *frameHeader) varLen() int { return len(h.Key) + len(h.Hash) }

// frameLen is the total on-disk frame length.
func (h *frameHeader) frameLen() int64 {
	return int64(frameFixedLen + h.varLen() + h.EncLen)
}

// parseFixed decodes and bounds-checks the fixed header section.
func parseFixed(b []byte) (frameHeader, int, int, error) {
	var h frameHeader
	if len(b) < frameFixedLen {
		return h, 0, 0, fmt.Errorf("meshstore: short frame header")
	}
	if string(b[0:4]) != frameMagic {
		return h, 0, 0, fmt.Errorf("meshstore: bad frame magic %q", b[0:4])
	}
	h.Codec = b[4]
	switch h.Codec {
	case codecRaw, codecPlanes:
	case codecFlate:
		return h, 0, 0, fmt.Errorf("meshstore: frame codec 1 (DEFLATE, written before the plane codec) is no longer read")
	default:
		return h, 0, 0, fmt.Errorf("meshstore: unknown codec %d", h.Codec)
	}
	keyLen, hashLen := int(b[5]), int(b[6])
	h.I = int(binary.LittleEndian.Uint32(b[8:]))
	h.J = int(binary.LittleEndian.Uint32(b[12:]))
	h.Elements = int32(binary.LittleEndian.Uint32(b[16:]))
	h.RawLen = int(binary.LittleEndian.Uint32(b[20:]))
	h.EncLen = int(binary.LittleEndian.Uint32(b[24:]))
	copy(h.Sum[:], b[28:60])
	if h.RawLen > maxPayloadBytes || h.EncLen > maxPayloadBytes {
		return h, 0, 0, fmt.Errorf("meshstore: frame payload %d/%d exceeds bound %d", h.RawLen, h.EncLen, maxPayloadBytes)
	}
	if h.Codec == codecRaw && h.EncLen != h.RawLen {
		return h, 0, 0, fmt.Errorf("meshstore: raw frame encLen %d != rawLen %d", h.EncLen, h.RawLen)
	}
	return h, keyLen, hashLen, nil
}

// decodeFrame parses one whole frame, which must hold block key, and decodes
// its payload into alloc(RawLen), checked against the digest the frame
// records — what both readers, Store.Payload and the deep scan, do with a
// frame they read. The raw length the header claims is checked against the
// payload section before it is allocated.
func decodeFrame(frame []byte, key string, alloc func(int) []byte) ([]byte, error) {
	h, keyLen, hashLen, err := parseFixed(frame)
	if err != nil {
		return nil, err
	}
	if frameFixedLen+keyLen+hashLen+h.EncLen != len(frame) {
		return nil, fmt.Errorf("meshstore: frame length %d, header says %d", len(frame), frameFixedLen+keyLen+hashLen+h.EncLen)
	}
	h.Key = string(frame[frameFixedLen : frameFixedLen+keyLen])
	if h.Key != key {
		return nil, fmt.Errorf("meshstore: frame holds %q, want %q", h.Key, key)
	}
	enc := frame[frameFixedLen+keyLen+hashLen:]
	if err := checkRawLen(h, enc); err != nil {
		return nil, err
	}
	out := alloc(h.RawLen)
	if err := decodePayload(out, h, enc); err != nil {
		bufpool.Put(out)
		return nil, err
	}
	return out, nil
}

// checkRawLen refuses a frame whose payload section cannot fill the raw
// length its header claims. A reader calls it before it allocates RawLen
// bytes, so a corrupt header costs no more than the frame it came in: plane
// tokens are counted (planes.Check).
func checkRawLen(h frameHeader, enc []byte) error {
	if h.Codec == codecPlanes {
		if err := planes.Check(enc, h.RawLen); err != nil {
			return fmt.Errorf("meshstore: frame %q: %w", h.Key, err)
		}
	}
	return nil
}

// decodePayload decodes (or copies) one frame's payload section into out,
// which the caller has sized to the frame's RawLen, and verifies it against
// the frame's SHA-256. Every byte of out is written.
func decodePayload(out []byte, h frameHeader, enc []byte) error {
	if len(enc) != h.EncLen {
		return fmt.Errorf("meshstore: frame %q payload section %d bytes, want %d", h.Key, len(enc), h.EncLen)
	}
	switch h.Codec {
	case codecRaw:
		copy(out, enc)
	case codecPlanes:
		// The tokens must fill exactly the rawLen bytes the header claims.
		if err := planes.Decode(out, enc); err != nil {
			return fmt.Errorf("meshstore: frame %q: %w", h.Key, err)
		}
	}
	if sha256.Sum256(out) != h.Sum {
		return fmt.Errorf("meshstore: frame %q payload digest mismatch", h.Key)
	}
	return nil
}

// HashRecord is the per-block input to the run-wide combined mesh digest:
// grid coordinates, refined element count, and the block's canonical hash.
type HashRecord struct {
	I, J     int
	Elements int32
	Hash     string
}

// CombineHash folds per-block canonical digests into the run-wide MeshHash.
// The rendering — blocks sorted by (J, I), one "J I Elements Hash" line
// each — is the format's canonical digest rule; meshgen's in-cluster dump
// path delegates here, so an offline reader of a store computes the exact
// hash a live cluster would report.
func CombineHash(recs []HashRecord) string {
	sorted := append([]HashRecord(nil), recs...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].J != sorted[b].J {
			return sorted[a].J < sorted[b].J
		}
		return sorted[a].I < sorted[b].I
	})
	h := sha256.New()
	for _, r := range sorted {
		fmt.Fprintf(h, "%d %d %d %s\n", r.J, r.I, r.Elements, r.Hash)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BlockKey is the canonical key of grid block (i, j), the identity a
// reader fetches a block by: a restored run looks each block of its own
// placement up under it, whatever node wrote it.
func BlockKey(i, j int) string { return fmt.Sprintf("block-%d-%d", i, j) }
