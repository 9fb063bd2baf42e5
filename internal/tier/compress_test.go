package tier

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mrts/internal/bufpool"
	"mrts/internal/storage"
	"mrts/internal/workload"
)

// compressible returns n bytes that the plane coder shrinks well: numeric
// records, little-endian uint32 values that rise once every 64 records.
func compressible(n int) []byte {
	out := make([]byte, 0, n+4)
	for i := uint32(0); len(out) < n; i++ {
		out = binary.LittleEndian.AppendUint32(out, i/64)
	}
	return out[:n]
}

// incompressible returns n bytes of seeded noise.
func incompressible(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	rng.Read(out)
	return out
}

func TestCompressedStoreRoundTrip(t *testing.T) {
	inner := storage.NewMem()
	cs := newCompressedStore(inner, CompressConfig{CacheBytes: 1 << 20}, nil)
	defer cs.Close()

	cases := map[string][]byte{
		"records": compressible(8 << 10),
		"noise":   incompressible(8<<10, 1),
		"small":   []byte("tiny"),
		"empty":   {},
	}
	for name, want := range cases {
		if err := cs.Put(storage.Key(name), want); err != nil {
			t.Fatalf("Put %s: %v", name, err)
		}
		got, err := cs.Get(storage.Key(name))
		if err != nil {
			t.Fatalf("Get %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: round trip mismatch (%d bytes vs %d)", name, len(got), len(want))
		}
	}

	st := cs.Stats()
	if st.RawBytes <= st.StoredBytes {
		t.Fatalf("no compression win: raw %d stored %d", st.RawBytes, st.StoredBytes)
	}
	if st.Ratio() <= 1 {
		t.Fatalf("ratio %.2f, want > 1", st.Ratio())
	}
	// noise, small and empty all store raw.
	if st.Incompressible != 3 {
		t.Fatalf("incompressible = %d, want 3", st.Incompressible)
	}
}

// On-media bytes must be the compressed frame, not the raw blob — that is
// the bytes_moved reduction the layer exists for.
func TestCompressedStoreShrinksMediaBytes(t *testing.T) {
	inner := storage.NewMem()
	cs := newCompressedStore(inner, CompressConfig{}, nil)
	defer cs.Close()

	raw := compressible(64 << 10)
	if err := cs.Put("k", raw); err != nil {
		t.Fatal(err)
	}
	onMedia := inner.Stats().BytesWritten
	if onMedia >= uint64(len(raw))/2 {
		t.Fatalf("media wrote %d bytes for a %d-byte compressible blob", onMedia, len(raw))
	}
}

// A real refined block — float64 coordinates and small uint32 indices, not
// the synthetic counters above — must shrink by half again on the media.
func TestCompressedStoreShrinksRefinedBlock(t *testing.T) {
	block, err := workload.RefinedBlock(8000)
	if err != nil {
		t.Fatal(err)
	}
	inner := storage.NewMem()
	cs := newCompressedStore(inner, CompressConfig{}, nil)
	defer cs.Close()
	if err := cs.Put("block", block); err != nil {
		t.Fatal(err)
	}
	if ratio := cs.Stats().Ratio(); ratio < 1.5 {
		t.Fatalf("a %d-byte refined block went down as %d bytes: ratio %.2f, want 1.5",
			len(block), inner.Stats().BytesWritten, ratio)
	}
	got, err := cs.Get("block")
	if err != nil || !bytes.Equal(got, block) {
		t.Fatalf("refined block round trip: err=%v match=%v", err, bytes.Equal(got, block))
	}
}

func TestCompressedStoreCacheServesRepeatReads(t *testing.T) {
	inner := storage.NewMem()
	cs := newCompressedStore(inner, CompressConfig{CacheBytes: 1 << 20}, nil)
	defer cs.Close()

	want := compressible(16 << 10)
	if err := cs.Put("hot", want); err != nil { // touch 1
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // touch 2 admits on read, 3+ hit
		got, err := cs.Get("hot")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d: err=%v match=%v", i, err, bytes.Equal(got, want))
		}
	}
	st := cs.Stats()
	if st.CacheHits == 0 {
		t.Fatalf("no cache hits after repeat reads: %+v", st)
	}
	if st.CacheBlobs != 1 || st.CacheBytes <= 0 {
		t.Fatalf("cache residency: blobs=%d bytes=%d", st.CacheBlobs, st.CacheBytes)
	}
	gets := inner.Stats().Gets
	if gets > 2 {
		t.Fatalf("inner store saw %d gets; cache should have absorbed the repeats", gets)
	}
}

func TestCompressedStoreCacheEvictsColdest(t *testing.T) {
	inner := storage.NewMem()
	// Room for roughly one compressed 8KiB frame at a time.
	cs := newCompressedStore(inner, CompressConfig{CacheBytes: 512}, nil)
	defer cs.Close()

	for i := 0; i < 4; i++ {
		key := storage.Key(fmt.Sprintf("k%d", i))
		if err := cs.Put(key, compressible(8<<10)); err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Get(key); err != nil { // second touch: admitted
			t.Fatal(err)
		}
	}
	st := cs.Stats()
	if st.CacheBytes > 512 {
		t.Fatalf("cache over cap: %d > 512", st.CacheBytes)
	}
	if st.CacheBlobs != 1 {
		t.Fatalf("cache holds %d frames, want only the last one admitted", st.CacheBlobs)
	}
	// Every key still readable regardless of cache churn.
	for i := 0; i < 4; i++ {
		key := storage.Key(fmt.Sprintf("k%d", i))
		if _, err := cs.Get(key); err != nil {
			t.Fatalf("Get %s after eviction churn: %v", key, err)
		}
	}
}

func TestCompressedStoreDeleteDropsCache(t *testing.T) {
	inner := storage.NewMem()
	cs := newCompressedStore(inner, CompressConfig{CacheBytes: 1 << 20}, nil)
	defer cs.Close()

	for i := 0; i < 2; i++ { // the second touch admits the frame
		if err := cs.Put("k", compressible(4<<10)); err != nil {
			t.Fatal(err)
		}
	}
	if st := cs.Stats(); st.CacheBlobs != 1 {
		t.Fatalf("frame not cached before Delete: %+v", st)
	}
	if err := cs.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if cs.Has("k") {
		t.Fatal("Has after Delete")
	}
	if _, err := cs.Get("k"); err == nil {
		t.Fatal("Get after Delete succeeded")
	}
	if st := cs.Stats(); st.CacheBytes != 0 || st.CacheBlobs != 0 {
		t.Fatalf("cache not emptied by Delete: %+v", st)
	}
}

// A corrupted frame (bad magic, absurd rawLen, truncated stream) must error,
// never crash or over-allocate.
func TestCompressedStoreCorruptFrames(t *testing.T) {
	inner := storage.NewMem()
	cs := newCompressedStore(inner, CompressConfig{}, nil)
	defer cs.Close()

	cases := map[string][]byte{
		"short":     {frameMagic, codecRaw},
		"bad-magic": {0x00, codecRaw, 0, 0, 0, 0},
		"huge-raw":  {frameMagic, codecPlanes, 0xFF, 0xFF, 0xFF, 0xFF},
		"bad-codec": {frameMagic, 9, 0, 0, 0, 0},
		"raw-len":   {frameMagic, codecRaw, 9, 0, 0, 0, 'x'},
		"coded-cut": {frameMagic, codecPlanes, 16, 0, 0, 0, 0x01},
		// Eight zero bytes, well formed, under a header that claims 16 and 4.
		"coded-short": {frameMagic, codecPlanes, 16, 0, 0, 0, 0, 8, 0},
		"coded-long":  {frameMagic, codecPlanes, 4, 0, 0, 0, 0, 8, 0},
		"old-flate":   {frameMagic, 1, 0, 0, 0, 0},
	}
	for name, frame := range cases {
		if err := inner.Put(storage.Key(name), frame); err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Get(storage.Key(name)); err == nil {
			t.Fatalf("%s: corrupted frame decoded without error", name)
		}
	}
	// huge-raw must have failed on the bound, not by attempting the alloc.
	if _, err := cs.Get("huge-raw"); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("huge-raw error = %v, want raw-length bound", err)
	}
}

// PutBuf/GetBuf ownership discipline under poisoning: concurrent writers and
// readers over a small keyspace; any read-after-release surfaces as a
// corrupted payload or a race report.
func TestCompressedStorePooledPathsHammer(t *testing.T) {
	bufpool.SetPoison(true)
	defer bufpool.SetPoison(false)

	inner := storage.NewMem()
	cs := newCompressedStore(inner, CompressConfig{CacheBytes: 4 << 10}, nil)
	defer cs.Close()

	const nKeys = 4
	payloadFor := func(i int) []byte {
		return bytes.Repeat([]byte{byte('A' + i)}, 1024)
	}
	for i := 0; i < nKeys; i++ {
		if err := cs.Put(storage.Key(fmt.Sprintf("k%d", i)), payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < 200; it++ {
				i := rng.Intn(nKeys)
				key := storage.Key(fmt.Sprintf("k%d", i))
				if rng.Intn(3) == 0 {
					data := bufpool.Clone(payloadFor(i))
					if err := cs.PutBuf(key, data); err != nil {
						bufpool.Put(data)
						errCh <- err
						return
					}
					continue
				}
				got, err := cs.GetBuf(key)
				if err != nil {
					errCh <- err
					return
				}
				want := byte('A' + i)
				for _, b := range got {
					if b != want {
						errCh <- fmt.Errorf("%s: byte %#x, want %#x (read-after-release?)", key, b, want)
						break
					}
				}
				cs.ReleaseBuf(got)
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// The full tier with compression enabled: spills, demotions and promotions
// all round-trip through the framed path, and the tier invariants hold.
func TestTierWithCompressionEndToEnd(t *testing.T) {
	fast := storage.NewMem()
	slow := storage.NewMem()
	ts, err := New(Config{
		Fast:     fast,
		Slow:     slow,
		Capacity: 32 << 10,
		Compress: &CompressConfig{CacheBytes: 16 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	blobs := map[storage.Key][]byte{}
	for i := 0; i < 24; i++ {
		key := storage.Key(fmt.Sprintf("obj-%02d", i))
		var data []byte
		if i%2 == 0 {
			data = compressible(4 << 10)
		} else {
			data = incompressible(4<<10, int64(i))
		}
		blobs[key] = data
		if err := ts.Put(key, data); err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
	}
	ts.WaitIdle()
	// Read everything twice: misses promote, repeats hit the frame cache.
	for round := 0; round < 2; round++ {
		for key, want := range blobs {
			got, err := ts.Get(key)
			if err != nil {
				t.Fatalf("Get %s: %v", key, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: corrupted round trip", key)
			}
		}
		ts.WaitIdle()
	}
	if msgs := ts.CheckInvariants(true); len(msgs) > 0 {
		t.Fatalf("invariants violated: %v", msgs)
	}
	cst, ok := ts.CompressStats()
	if !ok {
		t.Fatal("CompressStats reports no compression layer")
	}
	if cst.RawBytes == 0 || cst.Ratio() <= 1 {
		t.Fatalf("compression stats: %+v", cst)
	}
	if _, ok := New(Config{Slow: storage.NewMem()}); ok != nil {
		t.Fatalf("plain config: %v", ok)
	}
}
