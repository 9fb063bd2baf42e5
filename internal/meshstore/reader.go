package meshstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"mrts/internal/bufpool"
	"mrts/internal/obs"
)

// ScanResult is what a sequential chunk walk recovered.
type ScanResult struct {
	Chunk Chunk
	// Partial is set when the walk stopped before the end of the file: a
	// truncated or corrupt trailing frame. Everything before it is intact.
	Partial bool
	// TailBytes counts the bytes ignored after the last whole frame.
	TailBytes int64
	// Problems lists deep-verification failures (payload digest
	// mismatches) on otherwise well-formed frames.
	Problems []string
}

// ScanChunk walks a chunk file frame by frame and rebuilds its index. A
// truncated or corrupt tail — a writer crash mid-append, or a scan racing
// a live writer — terminates the walk cleanly with Partial set rather than
// erroring: the intact prefix is the usable mesh. The walk reads headers
// only. With deep set, every payload of the intact prefix is then read,
// decoded and checked against its frame digest on Ordered's workers, and
// the failures come back in frame order.
func ScanChunk(path string, deep bool) (ScanResult, error) {
	var res ScanResult
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return res, err
	}
	size := fi.Size()
	res.Chunk.Name = filepath.Base(path)
	var w int
	if _, err := fmt.Sscanf(res.Chunk.Name, "chunk-%d.mshc", &w); err == nil {
		res.Chunk.Writer = w
	}

	// The header, key and hash of a frame fit in one read.
	var hdr [frameFixedLen + 2*255]byte
	var off int64
	for off < size {
		if size-off < frameFixedLen {
			break // truncated header
		}
		// A failed or short read leaves n short, which the checks below
		// treat as a truncated tail.
		n, _ := f.ReadAt(hdr[:min(int64(len(hdr)), size-off)], off)
		h, keyLen, hashLen, err := parseFixed(hdr[:n])
		if err != nil {
			break // corrupt tail
		}
		if size-off-frameFixedLen < int64(keyLen+hashLen+h.EncLen) || n < frameFixedLen+keyLen+hashLen {
			break // truncated body
		}
		h.Key = string(hdr[frameFixedLen : frameFixedLen+keyLen])
		h.Hash = string(hdr[frameFixedLen+keyLen : frameFixedLen+keyLen+hashLen])
		res.Chunk.Records = append(res.Chunk.Records, Record{
			Key:        h.Key,
			I:          h.I,
			J:          h.J,
			Elements:   h.Elements,
			Hash:       h.Hash,
			PayloadSHA: fmt.Sprintf("%x", h.Sum),
			Offset:     off,
			Length:     h.frameLen(),
			RawLen:     h.RawLen,
		})
		off += h.frameLen()
	}
	res.Chunk.Bytes = off
	res.TailBytes = size - off
	res.Partial = res.TailBytes > 0
	if !deep {
		return res, nil
	}
	recs := res.Chunk.Records
	err = Ordered(len(recs), func(k int) (string, error) {
		rec := recs[k]
		frame := bufpool.Get(int(rec.Length))
		defer bufpool.Put(frame)
		if _, err := f.ReadAt(frame, rec.Offset); err != nil {
			return fmt.Sprintf("meshstore: frame %q: read: %v", rec.Key, err), nil
		}
		raw, err := decodeFrame(frame, rec.Key, bufpool.Get)
		if err != nil {
			return err.Error(), nil
		}
		bufpool.Put(raw)
		return "", nil
	}, func(_ int, problem string) error {
		if problem != "" {
			res.Problems = append(res.Problems, problem)
		}
		return nil
	})
	return res, err
}

// Store is a read handle on a store directory: the manifest (merged, or
// assembled from a chunk scan when none exists yet) plus per-chunk file
// handles for random block access.
type Store struct {
	dir string
	man *Manifest

	mu    sync.Mutex
	files map[string]*os.File
	index map[string]blockLoc
}

type blockLoc struct {
	chunk string
	rec   Record
}

// Open opens a store for reading. If MANIFEST.json exists it is the
// index; otherwise — a mid-run or crash-interrupted store — the chunks
// themselves are scanned and the assembled manifest is marked Partial
// unless the scan alone proves full grid coverage. No cluster state is
// consulted: a store is readable wherever the directory is.
func Open(dir string) (*Store, error) {
	man, err := readManifestFile(filepath.Join(dir, MergedManifestName))
	if os.IsNotExist(err) {
		man, err = assembleFromChunks(dir)
	}
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:   dir,
		man:   man,
		files: make(map[string]*os.File),
		index: make(map[string]blockLoc),
	}
	for _, c := range man.Chunks {
		for _, r := range c.Records {
			s.index[r.Key] = blockLoc{chunk: c.Name, rec: r}
		}
	}
	return s, nil
}

// assembleFromChunks rebuilds a manifest by scanning every chunk file in
// dir. Used for stores that were never merged: a run still in progress,
// or one killed before Finalize.
func assembleFromChunks(dir string) (*Manifest, error) {
	names, err := filepath.Glob(filepath.Join(dir, "chunk-*.mshc"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("meshstore: no manifest and no chunks in %s", dir)
	}
	sort.Strings(names)
	man := &Manifest{Format: FormatVersion}
	for _, name := range names {
		res, err := ScanChunk(name, false)
		if err != nil {
			return nil, err
		}
		man.Chunks = append(man.Chunks, res.Chunk)
	}
	// Meta is unknown without a manifest, so coverage can't be proven:
	// an assembled view is always Partial.
	man.Partial = true
	return man, nil
}

// Manifest returns the store's index. Callers must not mutate it.
func (s *Store) Manifest() *Manifest { return s.man }

// Partial reports whether the store is known to cover less than the grid.
func (s *Store) Partial() bool { return s.man.Partial }

// MeshHash returns the run-wide combined hash ("" when partial).
func (s *Store) MeshHash() string { return s.man.MeshHash }

// Payload reads, decodes, and digest-verifies one block's payload into a
// slice of the caller's own.
func (s *Store) Payload(key string) ([]byte, Record, error) {
	return s.payload(key, func(n int) []byte { return make([]byte, n) })
}

// PayloadBuf is Payload into a bufpool buffer, for a caller that decodes the
// payload and is done with it: the caller owns the buffer and releases it
// with bufpool.Put.
func (s *Store) PayloadBuf(key string) ([]byte, Record, error) {
	return s.payload(key, bufpool.Get)
}

func (s *Store) payload(key string, alloc func(int) []byte) ([]byte, Record, error) {
	loc, ok := s.index[key]
	if !ok {
		return nil, Record{}, fmt.Errorf("meshstore: no block %q in store %s", key, s.dir)
	}
	f, err := s.file(loc.chunk)
	if err != nil {
		return nil, Record{}, err
	}
	if loc.rec.Length > int64(frameFixedLen+510+maxPayloadBytes) {
		return nil, Record{}, fmt.Errorf("meshstore: block %q frame length %d exceeds bound", key, loc.rec.Length)
	}
	frame := bufpool.Get(int(loc.rec.Length))
	defer bufpool.Put(frame)
	if _, err := f.ReadAt(frame, loc.rec.Offset); err != nil {
		return nil, Record{}, fmt.Errorf("meshstore: read block %q: %w", key, err)
	}
	payload, err := decodeFrame(frame, key, alloc)
	if err != nil {
		return nil, Record{}, err
	}
	statBlocksRead.Add(1)
	statBytesRead.Add(loc.rec.Length)
	return payload, loc.rec, nil
}

func (s *Store) file(name string) (*os.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.files[name]; ok {
		return f, nil
	}
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	s.files[name] = f
	return f, nil
}

// Close releases the chunk file handles.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.files = make(map[string]*os.File)
	return first
}

// VerifyReport summarizes an offline integrity check of a store.
type VerifyReport struct {
	Format   int
	Blocks   int
	Bytes    int64
	Partial  bool
	MeshHash string
	Problems []string
}

// OK reports whether the store verified clean.
func (r VerifyReport) OK() bool { return len(r.Problems) == 0 }

// Verify checks a store offline, with no cluster: every chunk is walked
// frame by frame, every payload digest is recomputed, the manifest index
// is cross-checked against what is actually on disk, and the run-wide
// MeshHash is recomputed from the per-block canonical hashes and compared
// to the manifest's. A Partial store (mid-run, or never merged) verifies
// what exists; completeness problems are only reported against a manifest
// that claims completeness.
func Verify(dir string) (VerifyReport, error) {
	var rep VerifyReport
	man, err := readManifestFile(filepath.Join(dir, MergedManifestName))
	assembled := false
	if os.IsNotExist(err) {
		man, err = assembleFromChunks(dir)
		assembled = true
	}
	if err != nil {
		return rep, err
	}
	rep.Format = man.Format
	rep.Partial = man.Partial
	rep.MeshHash = man.MeshHash

	for _, c := range man.Chunks {
		res, err := ScanChunk(filepath.Join(dir, c.Name), true)
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("chunk %s: %v", c.Name, err))
			continue
		}
		rep.Problems = append(rep.Problems, res.Problems...)
		rep.Blocks += len(res.Chunk.Records)
		rep.Bytes += res.Chunk.Bytes
		if res.Partial {
			if assembled || man.Partial {
				rep.Partial = true
			} else {
				rep.Problems = append(rep.Problems,
					fmt.Sprintf("chunk %s: %d trailing bytes beyond the last whole frame in a store marked complete", c.Name, res.TailBytes))
			}
		}
		// The manifest index must describe exactly the frames on disk.
		if len(res.Chunk.Records) != len(c.Records) {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("chunk %s: %d frames on disk, manifest lists %d", c.Name, len(res.Chunk.Records), len(c.Records)))
			continue
		}
		for i, got := range res.Chunk.Records {
			if got != c.Records[i] {
				rep.Problems = append(rep.Problems,
					fmt.Sprintf("chunk %s frame %d: disk %+v != manifest %+v", c.Name, i, got, c.Records[i]))
			}
		}
	}
	if !man.Partial {
		if ok, probs := man.complete(); !ok {
			rep.Problems = append(rep.Problems, "store marked complete but does not cover the grid")
			rep.Problems = append(rep.Problems, probs...)
		}
		if want := CombineHash(man.hashRecords()); man.MeshHash != want {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("manifest MeshHash %s != recombined %s", man.MeshHash, want))
		}
	}
	if len(rep.Problems) > 0 {
		statVerifyErrors.Add(int64(len(rep.Problems)))
	}
	return rep, nil
}

// EmitRestore traces one restored block (ID: packed coordinates, Arg: raw
// payload bytes). The restore path lives in meshgen, which owns no trace
// kinds; routing the emit through here keeps the meshstore.* observables
// in one place.
func EmitRestore(t *obs.Tracer, i, j int, rawBytes int) {
	statBlocksRestored.Add(1)
	t.Emit(obs.KindMeshRestore, packBlockID(i, j), int64(rawBytes))
}
