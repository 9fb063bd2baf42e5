package tier

// Tier 0.5: transparent compression between the fast tier and the disk
// backstop. Every blob headed for tier 1 is framed and (when it shrinks)
// plane-coded on the way down, and a byte-capped RAM cache of the
// *compressed* frames sits in front of the disk — compressed residency buys
// roughly Ratio× more cache coverage per byte than caching raw blobs would.
//
// The layer is a storage.Store wrapper installed around Config.Slow, so the
// whole tier-1 traffic (spills, demotions, demand reads, promotion reads)
// flows through it without the placement policy knowing. It implements the
// pooled BufGetter/BufPutter paths: frames are built in pooled buffers,
// decompression lands in pooled buffers, and ownership transfers follow the
// rules in internal/storage/bufio.go.
//
// Frame format: [magic 0xC7][codec id][u32 rawLen][payload]. Codec 0 stores
// the payload raw (too small, or incompressible — the frame then costs 6
// bytes over raw storage); codec 2 is the byte-plane coding of
// internal/planes, the codec the mesh store writes too. (Codec 1 was DEFLATE;
// swap frames do not outlive a run, so nothing reads it any more.) rawLen is
// bounded on decode so one corrupt frame cannot demand a multi-gigabyte
// allocation.

import (
	"fmt"
	"sync"

	"mrts/internal/bufpool"
	"mrts/internal/clock"
	"mrts/internal/planes"
	"mrts/internal/storage"
)

const (
	frameMagic  = 0xC7
	codecRaw    = 0
	codecPlanes = 2
	frameHdrLen = 6
	maxFrameRaw = 1 << 30 // decode bound on the claimed raw length
)

// minCompressSize is the blob size below which compression is not attempted:
// small blobs are framed raw.
const minCompressSize = 512

// admitHeat is how many touches a key needs before its frame is worth cache
// space (the same warmth idea as the tier-0 admission policy): first-timers
// stream through, repeat visitors are cached.
const admitHeat = 2

// CompressConfig configures the tier-0.5 compression layer.
type CompressConfig struct {
	// CacheBytes caps the RAM cache of compressed frames. 0 disables the
	// cache (compression only, no tier-0.5 residency).
	CacheBytes int64
}

// CompressStats is a point-in-time snapshot of tier-0.5 activity.
type CompressStats struct {
	// RawBytes / StoredBytes total the pre- and post-framing sizes of every
	// write through the layer; their quotient is the achieved ratio.
	RawBytes, StoredBytes uint64
	// Incompressible counts writes stored raw because coding did not shrink
	// them (blobs below 512 bytes count here too).
	Incompressible uint64
	// CacheHits / CacheMisses count reads served from / past the frame cache.
	CacheHits, CacheMisses uint64
	// CacheBytes / CacheBlobs are the current cache residency.
	CacheBytes int64
	CacheBlobs int
	// EncodeNanos / DecodeNanos total the codec time, measured on the
	// injected clock (zero under a virtual clock). Both count raw outcomes
	// too: an encode attempt that was declined, the copy out of a raw frame.
	EncodeNanos, DecodeNanos int64
}

// Ratio returns RawBytes/StoredBytes (1 when nothing was written).
func (s CompressStats) Ratio() float64 {
	if s.StoredBytes == 0 {
		return 1
	}
	return float64(s.RawBytes) / float64(s.StoredBytes)
}

// CacheHitRatio returns the fraction of reads served by the frame cache.
func (s CompressStats) CacheHitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Add accumulates other into s (counters and gauges sum).
func (s *CompressStats) Add(other CompressStats) {
	s.RawBytes += other.RawBytes
	s.StoredBytes += other.StoredBytes
	s.Incompressible += other.Incompressible
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	s.CacheBytes += other.CacheBytes
	s.CacheBlobs += other.CacheBlobs
	s.EncodeNanos += other.EncodeNanos
	s.DecodeNanos += other.DecodeNanos
}

// centry is one key's cache record: the compressed frame (nil for a pure
// heat ghost) plus the recency/warmth fields the admission policy reads.
type centry struct {
	frame []byte // cached compressed frame (pooled; nil = ghost)
	seq   uint64 // last-touch sequence (LRU order)
	heat  uint64 // lifetime touches
}

// compressedStore is the tier-0.5 layer. It wraps the slow store; see the
// file comment for the data path.
type compressedStore struct {
	inner storage.Store
	cfg   CompressConfig
	clk   clock.Clock

	mu    sync.Mutex
	cache map[storage.Key]*centry
	bytes int64 // sum of cached frame lengths
	seq   uint64
	stats CompressStats
}

// newCompressedStore wraps inner in the compression layer.
func newCompressedStore(inner storage.Store, cfg CompressConfig, clk clock.Clock) *compressedStore {
	return &compressedStore{
		inner: inner,
		cfg:   cfg,
		clk:   clock.Or(clk),
		cache: make(map[storage.Key]*centry),
	}
}

// encodeFrame builds the framed (maybe compressed) representation of data in
// a pooled buffer. The caller owns the result.
func (s *compressedStore) encodeFrame(data []byte) []byte {
	// Room for the raw fallback; the coder appends less than that.
	frame := append(bufpool.Get(frameHdrLen + len(data))[:0],
		frameMagic, codecRaw,
		byte(len(data)), byte(len(data)>>8), byte(len(data)>>16), byte(len(data)>>24))
	if len(data) >= minCompressSize {
		start := s.clk.Now()
		coded, ok := planes.Encode(frame, data)
		s.mu.Lock()
		s.stats.EncodeNanos += s.clk.Since(start).Nanoseconds()
		s.mu.Unlock()
		if ok {
			coded[1] = codecPlanes
			return coded
		}
	}
	// Too small or incompressible: store raw.
	return append(frame, data...)
}

// decodeFrame expands a frame into a pooled buffer the caller owns.
func (s *compressedStore) decodeFrame(frame []byte) ([]byte, error) {
	if len(frame) < frameHdrLen || frame[0] != frameMagic {
		return nil, fmt.Errorf("tier: bad compression frame header")
	}
	rawLen := int(frame[2]) | int(frame[3])<<8 | int(frame[4])<<16 | int(frame[5])<<24
	if rawLen < 0 || rawLen > maxFrameRaw {
		return nil, fmt.Errorf("tier: frame claims %d raw bytes, limit %d (corrupt?)", rawLen, maxFrameRaw)
	}
	payload := frame[frameHdrLen:]
	var out []byte
	var err error
	start := s.clk.Now()
	switch frame[1] {
	case codecRaw:
		if len(payload) != rawLen {
			return nil, fmt.Errorf("tier: raw frame length %d, header says %d", len(payload), rawLen)
		}
		out = bufpool.Clone(payload)
	case codecPlanes:
		out = bufpool.Get(rawLen)
		// The tokens must fill exactly the rawLen bytes the header claims.
		if err = planes.Decode(out, payload); err != nil {
			bufpool.Put(out)
			out, err = nil, fmt.Errorf("tier: frame decompression: %w", err)
		}
	default:
		return nil, fmt.Errorf("tier: unknown frame codec %d", frame[1])
	}
	s.mu.Lock()
	s.stats.DecodeNanos += s.clk.Since(start).Nanoseconds()
	s.mu.Unlock()
	return out, err
}

// touchLocked records an access and returns whether the key is warm enough
// for cache admission.
func (s *compressedStore) touchLocked(ent *centry) bool {
	s.seq++
	ent.seq = s.seq
	ent.heat++
	return ent.heat >= admitHeat
}

// admitLocked installs frame (store-owned, pooled) as key's cached copy,
// evicting the coldest frames until it fits. Caller holds s.mu.
func (s *compressedStore) admitLocked(key storage.Key, ent *centry, frame []byte) {
	need := int64(len(frame))
	if need > s.cfg.CacheBytes {
		bufpool.Put(frame)
		return
	}
	if ent.frame != nil {
		s.bytes -= int64(len(ent.frame))
		bufpool.Put(ent.frame)
		ent.frame = nil
	}
	for s.bytes+need > s.cfg.CacheBytes {
		var coldKey storage.Key
		var cold *centry
		for k, e := range s.cache {
			if e.frame == nil || e == ent {
				continue
			}
			if cold == nil || e.seq < cold.seq || (e.seq == cold.seq && k < coldKey) {
				cold, coldKey = e, k
			}
		}
		if cold == nil {
			bufpool.Put(frame)
			return
		}
		s.bytes -= int64(len(cold.frame))
		bufpool.Put(cold.frame)
		cold.frame = nil
	}
	ent.frame = frame
	s.bytes += need
}

// entryLocked returns key's cache record, creating a ghost if absent.
func (s *compressedStore) entryLocked(key storage.Key) *centry {
	ent := s.cache[key]
	if ent == nil {
		ent = &centry{}
		s.cache[key] = ent
	}
	return ent
}

// dropLocked removes key's cached frame and record.
func (s *compressedStore) dropLocked(key storage.Key) {
	if ent := s.cache[key]; ent != nil {
		if ent.frame != nil {
			s.bytes -= int64(len(ent.frame))
			bufpool.Put(ent.frame)
		}
		delete(s.cache, key)
	}
}

// put frames data and writes it down, optionally caching the frame. It
// consumes data when own is true (PutBuf semantics) — except on error, when
// the caller keeps it for retry.
func (s *compressedStore) put(key storage.Key, data []byte, own bool) error {
	frame := s.encodeFrame(data)
	frameLen := len(frame)
	storedRaw := frame[1] == codecRaw

	s.mu.Lock()
	ent := s.entryLocked(key)
	warm := s.touchLocked(ent)
	cache := s.cfg.CacheBytes > 0 && warm
	s.mu.Unlock()

	// When caching, the store keeps frame and a pooled copy goes to the
	// media; otherwise frame itself goes down (and must not be touched after
	// a successful PutBuf — ownership transfers).
	down := frame
	if cache {
		down = bufpool.Clone(frame)
	}
	if err := storage.PutBuf(s.inner, key, down); err != nil {
		// PutBuf leaves the buffer with the caller on error.
		bufpool.Put(down)
		if cache {
			bufpool.Put(frame)
		}
		// A failed write invalidates whatever frame was cached before.
		s.mu.Lock()
		s.dropLocked(key)
		s.mu.Unlock()
		return err
	}

	s.mu.Lock()
	s.stats.RawBytes += uint64(len(data))
	s.stats.StoredBytes += uint64(frameLen)
	if storedRaw {
		s.stats.Incompressible++
	}
	if cache {
		s.admitLocked(key, ent, frame)
	} else if ent.frame != nil {
		// The write replaced the blob; a stale cached frame must go.
		s.bytes -= int64(len(ent.frame))
		bufpool.Put(ent.frame)
		ent.frame = nil
	}
	s.mu.Unlock()

	if own {
		bufpool.Put(data)
	}
	return nil
}

// Put implements storage.Store (copy semantics: data is never retained).
func (s *compressedStore) Put(key storage.Key, data []byte) error {
	return s.put(key, data, false)
}

// PutBuf implements storage.BufPutter (ownership transfers on success).
func (s *compressedStore) PutBuf(key storage.Key, data []byte) error {
	return s.put(key, data, true)
}

// GetBuf implements storage.BufGetter: the result is a pooled buffer owned
// by this store's read path until ReleaseBuf.
func (s *compressedStore) GetBuf(key storage.Key) ([]byte, error) {
	s.mu.Lock()
	ent := s.cache[key]
	var cached []byte
	if ent != nil && ent.frame != nil {
		// Serve from tier 0.5. The frame is copied out under the lock: the
		// cache may evict or replace it the moment the lock drops.
		cached = bufpool.Clone(ent.frame)
		s.stats.CacheHits++
		s.touchLocked(ent)
	} else {
		s.stats.CacheMisses++
	}
	s.mu.Unlock()

	if cached != nil {
		out, err := s.decodeFrame(cached)
		bufpool.Put(cached)
		if err == nil {
			return out, nil
		}
		// A corrupt cached frame falls through to the durable copy.
		s.mu.Lock()
		s.dropLocked(key)
		s.mu.Unlock()
	}

	frame, err := storage.GetBuf(s.inner, key)
	if err != nil {
		return nil, err
	}
	out, err := s.decodeFrame(frame)
	if err != nil {
		storage.ReleaseBuf(s.inner, frame)
		return nil, err
	}
	s.mu.Lock()
	ent = s.entryLocked(key)
	if s.cfg.CacheBytes > 0 && s.touchLocked(ent) {
		s.admitLocked(key, ent, bufpool.Clone(frame))
	}
	s.mu.Unlock()
	storage.ReleaseBuf(s.inner, frame)
	return out, nil
}

// ReleaseBuf implements storage.BufGetter.
func (s *compressedStore) ReleaseBuf(data []byte) { bufpool.Put(data) }

// Get implements storage.Store. The result is caller-owned (it is a fresh
// pooled buffer, so handing it out is safe).
func (s *compressedStore) Get(key storage.Key) ([]byte, error) { return s.GetBuf(key) }

// Has implements storage.Store.
func (s *compressedStore) Has(key storage.Key) bool {
	s.mu.Lock()
	if ent := s.cache[key]; ent != nil && ent.frame != nil {
		s.mu.Unlock()
		return true
	}
	s.mu.Unlock()
	return s.inner.Has(key)
}

// Delete implements storage.Store.
func (s *compressedStore) Delete(key storage.Key) error {
	s.mu.Lock()
	s.dropLocked(key)
	s.mu.Unlock()
	return s.inner.Delete(key)
}

// Close implements storage.Store: the cache is dropped, the inner store
// closed.
func (s *compressedStore) Close() error {
	s.mu.Lock()
	for key := range s.cache {
		s.dropLocked(key)
	}
	s.mu.Unlock()
	return s.inner.Close()
}

// Stats returns the tier-0.5 counters.
func (s *compressedStore) Stats() CompressStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.CacheBytes = s.bytes
	for _, e := range s.cache {
		if e.frame != nil {
			out.CacheBlobs++
		}
	}
	return out
}

var (
	_ storage.Store     = (*compressedStore)(nil)
	_ storage.BufGetter = (*compressedStore)(nil)
	_ storage.BufPutter = (*compressedStore)(nil)
)
