package meshstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mrts/internal/bufpool"
)

// atProcs runs f once under each GOMAXPROCS value, so the ordered map's
// single-worker path (one P) and its parallel path both run.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			f(t)
		})
	}
}

func TestOrderedUsesInIndexOrderWithinWindow(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const n = 200
		window := int64(2 * runtime.GOMAXPROCS(0))
		var done, used, worst atomic.Int64
		var next int
		err := Ordered(n, func(k int) (int, error) {
			if k%7 == 0 {
				runtime.Gosched()
			}
			// Finished but not used: every result dispatched ahead of the
			// one being used.
			if ahead := done.Add(1) - used.Load(); ahead > worst.Load() {
				worst.Store(ahead)
			}
			return k * k, nil
		}, func(k, v int) error {
			if k != next || v != k*k {
				return fmt.Errorf("use(%d, %d), want use(%d, %d)", k, v, next, next*next)
			}
			next++
			used.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if next != n {
			t.Fatalf("used %d of %d results", next, n)
		}
		if w := worst.Load(); w > window {
			t.Fatalf("%d results waited, window is %d", w, window)
		}
	})
}

func TestOrderedStopsAtFirstErrorInIndexOrder(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const n = 100
		errAt := func(k int) error { return fmt.Errorf("bad %d", k) }
		var used []int
		var mu sync.Mutex
		var worked []int
		err := Ordered(n, func(k int) (int, error) {
			mu.Lock()
			worked = append(worked, k)
			mu.Unlock()
			// A later index fails sooner than an earlier one: the earlier
			// one is still the error returned.
			if k == 40 || k == 41 {
				return 0, errAt(k)
			}
			return k, nil
		}, func(k, _ int) error {
			used = append(used, k)
			return nil
		})
		if err == nil || err.Error() != "bad 40" {
			t.Fatalf("err = %v, want bad 40", err)
		}
		if len(used) != 40 || used[39] != 39 {
			t.Fatalf("used %d results (last %v), want 0..39", len(used), used[len(used)-1])
		}
		window := 2 * runtime.GOMAXPROCS(0)
		for _, k := range worked {
			if k >= 40+window {
				t.Fatalf("worked on %d, beyond the window past the error", k)
			}
		}

		useErr := errors.New("use failed")
		calls := 0
		err = Ordered(n, func(k int) (int, error) { return k, nil }, func(k, _ int) error {
			calls++
			if k == 5 {
				return useErr
			}
			return nil
		})
		if err != useErr || calls != 6 {
			t.Fatalf("use error: err = %v after %d calls, want %v after 6", err, calls, useErr)
		}
	})
}

// scanChunkSequential is the deep chunk walk as it was before payloads were
// checked on Ordered's workers: one buffered pass that reads and checks each
// payload where it finds it. It is the oracle for ScanChunk.
func scanChunkSequential(path string) (ScanResult, error) {
	var res ScanResult
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return res, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return res, err
	}
	res.Chunk.Name = filepath.Base(path)
	var w int
	if _, err := fmt.Sscanf(res.Chunk.Name, "chunk-%d.mshc", &w); err == nil {
		res.Chunk.Writer = w
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var off int64
	var hdr [frameFixedLen]byte
	for off < size {
		if size-off < frameFixedLen {
			break
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		h, keyLen, hashLen, err := parseFixed(hdr[:])
		if err != nil {
			break
		}
		if size-off-frameFixedLen < int64(keyLen+hashLen+h.EncLen) {
			break
		}
		kh := make([]byte, keyLen+hashLen)
		if _, err := io.ReadFull(br, kh); err != nil {
			break
		}
		h.Key, h.Hash = string(kh[:keyLen]), string(kh[keyLen:])
		enc := make([]byte, h.EncLen)
		if _, err := io.ReadFull(br, enc); err != nil {
			break
		}
		raw := bufpool.Get(h.RawLen)
		if derr := decodePayload(raw, h, enc); derr != nil {
			res.Problems = append(res.Problems, derr.Error())
		}
		bufpool.Put(raw)
		res.Chunk.Records = append(res.Chunk.Records, Record{
			Key: h.Key, I: h.I, J: h.J, Elements: h.Elements, Hash: h.Hash,
			PayloadSHA: fmt.Sprintf("%x", h.Sum),
			Offset:     off, Length: h.frameLen(), RawLen: h.RawLen,
		})
		off += h.frameLen()
	}
	res.Chunk.Bytes = off
	res.TailBytes = size - off
	res.Partial = res.TailBytes > 0
	return res, nil
}

func TestDeepScanMatchesSequentialWalk(t *testing.T) {
	dir := t.TempDir()
	man := writeTestStore(t, dir, 5, 1, true)
	recs := man.Chunks[0].Records
	path := filepath.Join(dir, chunkName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the payloads of frames 3 and 17, then cut the last frame in
	// half: a chunk with two bad blocks and a truncated tail.
	for _, k := range []int{3, 17} {
		data[recs[k].Offset+recs[k].Length-5] ^= 0x5A
	}
	last := recs[len(recs)-1]
	data = data[:last.Offset+last.Length/2]
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := scanChunkSequential(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Problems) != 2 || !want.Partial {
		t.Fatalf("oracle saw %d problems, partial=%v; the fixture is wrong", len(want.Problems), want.Partial)
	}
	atProcs(t, func(t *testing.T) {
		got, err := ScanChunk(path, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("deep scan differs from the sequential walk:\n got %+v\nwant %+v", got, want)
		}
		shallow, err := ScanChunk(path, false)
		if err != nil {
			t.Fatal(err)
		}
		want := want
		want.Problems = nil
		if !reflect.DeepEqual(shallow, want) {
			t.Fatalf("shallow scan differs from the sequential walk's index:\n got %+v\nwant %+v", shallow, want)
		}
	})
}

func TestConcurrentAppendsVerifyClean(t *testing.T) {
	dir := t.TempDir()
	const blocks = 6
	w, err := NewWriter(WriterConfig{Dir: dir, Meta: Meta{Blocks: blocks, TargetElements: 1000}, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, blocks*blocks)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for idx := g; idx < blocks*blocks; idx += 4 {
				i, j := idx%blocks, idx/blocks
				p := testPayload(int64(idx+1), 2000+97*idx)
				if err := w.Append(BlockKey(i, j), i, j, int32(idx), blockHash(p), p); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	man, err := MergeManifests(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Partial || man.Blocks() != blocks*blocks {
		t.Fatalf("merged store partial=%v with %d blocks", man.Partial, man.Blocks())
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("concurrently appended store: %v", rep.Problems)
	}
}
