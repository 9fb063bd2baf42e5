package meshgen

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"mrts/internal/core"
	"mrts/internal/geom"
)

// Mobile object type IDs (shared by all O-methods; the Factory below builds
// them on reload or migration). IDs 5 and 6 and handler IDs 110–114 and 401
// belonged to retired drivers (the tetrahedral block method among them),
// handler IDs 206 (hLReport) and 302 (hSDReport) to the ONUPDR and OPCDM
// audit passes that read every leaf and subdomain back (the refine handlers
// record what those passes read), and handler IDs 203 (hLSendBuffer), 204
// (hLAddToBuffer) and 205 (hLRelease) to ONUPDR's buffer collection, which
// the refinement queue's fixed portions replaced. Type ID 3 and handler IDs
// 201 and 202 belonged to that queue — its object, a leaf's update to it
// and its construct message to a leaf — which leaves messaging their
// successors replaced (leafPlan), and handler
// ID 303 to OPCDM's wiring message, which creating each subdomain with its
// neighbour pointers replaced. All of them stay unused, so a checkpoint or
// trace from an old run fails with ErrUnknownType or "no handler" instead
// of being misread; an old leaf's blob, which lacks the index and
// neighbours a leaf now holds, fails to decode.
const (
	typeBlock     uint16 = 1 // OUPDR block
	typeLeaf      uint16 = 2 // ONUPDR quad-tree leaf
	typeSubdomain uint16 = 4 // OPCDM subdomain
)

// Factory constructs meshgen mobile objects by type, for the MRTS runtime.
func Factory(typeID uint16) (core.Object, error) {
	switch typeID {
	case typeBlock:
		return &blockObj{}, nil
	case typeLeaf:
		return &leafObj{}, nil
	case typeSubdomain:
		return &subdomainObj{}, nil
	default:
		return nil, core.ErrUnknownType
	}
}

// Binary encoding helpers shared by the object implementations.

// Decode-side length bounds. Every variable-length field in the wire format
// is length-prefixed with a u32 the decoder must not trust: a corrupted or
// truncated blob could otherwise demand a multi-gigabyte allocation (or, for
// the 16*n point math, overflow int on 32-bit platforms) before ReadFull
// ever notices the data is short. The limits are far above anything the
// generators produce, so a trip always means corruption.
const (
	// maxDecodeBytes bounds a raw byte field (64 MiB).
	maxDecodeBytes = 1 << 26
	// maxDecodeElems bounds an element count (4M entries); 16*maxDecodeElems
	// still fits a 32-bit int with room to spare.
	maxDecodeElems = 1 << 22
)

// errDecodeBound reports an implausible length prefix.
func errDecodeBound(what string, n uint32, limit int) error {
	return fmt.Errorf("meshgen: decode %s: length %d exceeds limit %d (corrupt blob?)", what, n, limit)
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func writeF64(w io.Writer, v float64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	_, err := w.Write(b[:])
	return err
}

func readF64(r io.Reader) (float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

func writeRect(w io.Writer, r geom.Rect) error {
	for _, f := range []float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y} {
		if err := writeF64(w, f); err != nil {
			return err
		}
	}
	return nil
}

func readRect(r io.Reader) (geom.Rect, error) {
	var f [4]float64
	for i := range f {
		v, err := readF64(r)
		if err != nil {
			return geom.Rect{}, err
		}
		f[i] = v
	}
	return geom.Rect{Min: geom.Pt(f[0], f[1]), Max: geom.Pt(f[2], f[3])}, nil
}

func writeBytes(w io.Writer, b []byte) error {
	if err := writeU32(w, uint32(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func readBytes(r io.Reader) ([]byte, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if n > maxDecodeBytes {
		return nil, errDecodeBound("bytes", n, maxDecodeBytes)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

func writePtr(w io.Writer, p core.MobilePtr) error {
	if err := writeU32(w, uint32(p.Home)); err != nil {
		return err
	}
	return writeU32(w, p.Seq)
}

func readPtr(r io.Reader) (core.MobilePtr, error) {
	h, err := readU32(r)
	if err != nil {
		return core.Nil, err
	}
	s, err := readU32(r)
	if err != nil {
		return core.Nil, err
	}
	return core.MobilePtr{Home: core.NodeID(int32(h)), Seq: s}, nil
}

func writePoints(w io.Writer, pts []geom.Point) error {
	if err := writeU32(w, uint32(len(pts))); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var b [16]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(p.Y))
		if _, err := bw.Write(b[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func readPoints(r io.Reader) ([]geom.Point, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if n > maxDecodeElems {
		return nil, errDecodeBound("points", n, maxDecodeElems)
	}
	// Read the whole block at once: wrapping r in a buffered reader would
	// over-read and corrupt composed decoders. The bound above keeps
	// 16*int(n) from overflowing int even on 32-bit platforms.
	buf := make([]byte, 16*int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		off := 16 * i
		pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(buf[off : off+8]))
		pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8 : off+16]))
	}
	return pts, nil
}
