package meshstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mrts/internal/bufpool"
	"mrts/internal/obs"
	"mrts/internal/planes"
)

// WriterConfig configures one node's chunk writer.
type WriterConfig struct {
	// Dir is the store directory (created if missing).
	Dir string
	// Writer is this node's writer index; it only names the chunk file and
	// carries no placement meaning.
	Writer int
	// Meta is recorded in the per-writer manifest at Finalize. Every
	// writer of a run must pass the same value.
	Meta Meta
	// Compress plane-codes payloads when that shrinks them (the tier-0.5
	// rule and codec: raw fallback when it doesn't).
	Compress bool
	// Tracer, when non-nil, receives a mesh.export event per appended
	// frame (ID: the packed block coordinates, Arg: the frame bytes).
	Tracer *obs.Tracer
}

// Writer appends framed block records to one chunk file. It is safe for
// concurrent use: export rides runtime handler workers, so several blocks
// of one node can commit at once. Frames become durable in append order,
// which is commit order — a reader racing the writer sees a clean prefix.
type Writer struct {
	cfg   WriterConfig
	mu    sync.Mutex
	f     *os.File
	off   int64
	chunk Chunk
	err   error // sticky: first failure poisons the writer
	done  bool
}

// NewWriter creates (or truncates) this writer's chunk file. Truncation is
// deliberate: a relaunched node re-exports its whole partition, discarding
// whatever half-written frames its previous incarnation left behind.
func NewWriter(cfg WriterConfig) (*Writer, error) {
	if cfg.Writer < 0 {
		return nil, fmt.Errorf("meshstore: negative writer index %d", cfg.Writer)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("meshstore: %w", err)
	}
	name := chunkName(cfg.Writer)
	f, err := os.Create(filepath.Join(cfg.Dir, name))
	if err != nil {
		return nil, fmt.Errorf("meshstore: %w", err)
	}
	// A fresh export invalidates this writer's previous index, if any.
	os.Remove(filepath.Join(cfg.Dir, manifestName(cfg.Writer)))
	return &Writer{
		cfg:   cfg,
		f:     f,
		chunk: Chunk{Name: name, Writer: cfg.Writer},
	}, nil
}

// Append frames one block and writes it to the chunk. hash is the block's
// canonical mesh digest (as reported in dump lines); payload is the
// block's encoded state, opaque to the store. The frame is hashed and
// compressed before the writer's lock is taken, so appends from several
// handler workers code their frames at once and queue only for the write.
func (w *Writer) Append(key string, i, j int, elements int32, hash string, payload []byte) error {
	var bad error
	switch {
	case len(key) > 255 || len(hash) > 255:
		bad = fmt.Errorf("meshstore: key/hash too long for block %q", key)
	case len(payload) > maxPayloadBytes:
		bad = fmt.Errorf("meshstore: block %q payload %d exceeds bound %d", key, len(payload), maxPayloadBytes)
	case i < 0 || j < 0:
		bad = fmt.Errorf("meshstore: negative block coordinates (%d,%d)", i, j)
	}
	var frame []byte
	var sum [32]byte
	if bad == nil {
		// Room for the raw fallback; the coder appends less than that.
		frame = bufpool.Get(frameFixedLen + len(key) + len(hash) + len(payload))
		defer bufpool.Put(frame)
		sum = sha256.Sum256(payload)
		frame = encodeFrame(frame[:frameFixedLen], key, i, j, elements, hash, payload, sum, w.cfg.Compress)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.done {
		return w.fail(fmt.Errorf("meshstore: append to finalized writer %d", w.cfg.Writer))
	}
	if bad != nil {
		return w.fail(bad)
	}
	if _, err := w.f.Write(frame); err != nil {
		return w.fail(fmt.Errorf("meshstore: append block %q: %w", key, err))
	}
	w.chunk.Records = append(w.chunk.Records, Record{
		Key:        key,
		I:          i,
		J:          j,
		Elements:   elements,
		Hash:       hash,
		PayloadSHA: hex.EncodeToString(sum[:]),
		Offset:     w.off,
		Length:     int64(len(frame)),
		RawLen:     len(payload),
	})
	w.off += int64(len(frame))
	w.chunk.Bytes = w.off
	statBlocksWritten.Add(1)
	statBytesWritten.Add(int64(len(frame)))
	statRawBytes.Add(int64(len(payload)))
	w.cfg.Tracer.Emit(obs.KindMeshExport, packBlockID(i, j), int64(len(frame)))
	return nil
}

// encodeFrame appends one block's frame to frame, a header-sized slice
// with room for the raw payload behind it: plane-coded when compress is
// set and that shrinks the payload, raw otherwise.
func encodeFrame(frame []byte, key string, i, j int, elements int32, hash string, payload []byte, sum [32]byte, compress bool) []byte {
	clear(frame)
	copy(frame[0:4], frameMagic)
	frame[5] = byte(len(key))
	frame[6] = byte(len(hash))
	binary.LittleEndian.PutUint32(frame[8:], uint32(i))
	binary.LittleEndian.PutUint32(frame[12:], uint32(j))
	binary.LittleEndian.PutUint32(frame[16:], uint32(elements))
	binary.LittleEndian.PutUint32(frame[20:], uint32(len(payload)))
	copy(frame[28:60], sum[:])
	frame = append(frame, key...)
	frame = append(frame, hash...)

	payloadOff := len(frame)
	frame[4] = codecRaw
	if compress && len(payload) >= compressMin {
		if coded, ok := planes.Encode(frame, payload); ok {
			frame = coded
			frame[4] = codecPlanes
		}
	}
	if frame[4] == codecRaw {
		frame = append(frame, payload...)
	}
	binary.LittleEndian.PutUint32(frame[24:], uint32(len(frame)-payloadOff))
	return frame
}

func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}

// Blocks returns the number of frames appended so far.
func (w *Writer) Blocks() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.chunk.Records)
}

// Bytes returns the chunk size so far.
func (w *Writer) Bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off
}

// Err returns the sticky error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Finalize syncs and closes the chunk and writes this writer's manifest
// atomically. The per-writer manifest indexes only this chunk; a
// coordinator folds all of them into MANIFEST.json with MergeManifests.
func (w *Writer) Finalize() (*Manifest, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return nil, w.err
	}
	if w.done {
		return nil, w.fail(fmt.Errorf("meshstore: writer %d finalized twice", w.cfg.Writer))
	}
	w.done = true
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return nil, w.fail(fmt.Errorf("meshstore: sync chunk: %w", err))
	}
	if err := w.f.Close(); err != nil {
		return nil, w.fail(fmt.Errorf("meshstore: close chunk: %w", err))
	}
	m := &Manifest{
		Format: FormatVersion,
		Meta:   w.cfg.Meta,
		Chunks: []Chunk{w.chunk},
	}
	m.seal()
	path := filepath.Join(w.cfg.Dir, manifestName(w.cfg.Writer))
	if err := writeManifestFile(path, m); err != nil {
		return nil, w.fail(fmt.Errorf("meshstore: write manifest: %w", err))
	}
	return m, nil
}

// Close abandons the writer without a manifest, leaving whatever frames
// were appended on disk (they remain readable as a partial chunk).
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return nil
	}
	w.done = true
	return w.f.Close()
}

// packBlockID packs grid coordinates into a trace event ID.
func packBlockID(i, j int) uint64 { return uint64(j)<<32 | uint64(uint32(i)) }
