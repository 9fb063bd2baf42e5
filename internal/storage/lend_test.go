package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"mrts/internal/bufpool"
)

// poisoned reports whether every byte of b reads as the arena's poison, the
// sign that a buffer was recycled (SetPoison must be on).
func poisoned(b []byte) bool {
	for _, c := range b {
		if c != 0xDB {
			return false
		}
	}
	return len(b) > 0
}

// lentCount is the number of stored buffers st has out on loan.
func lentCount(st *MemStore) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.lent)
}

func TestMemStorePutBufKeepsAndGetBufLends(t *testing.T) {
	st := NewMem()
	blob := bufpool.Clone(payload(3000, 4))
	if err := st.PutBuf("k", blob); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetBuf("k")
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(got) != unsafe.SliceData(blob) || !bytes.Equal(got, payload(3000, 4)) {
		t.Fatal("GetBuf did not lend the buffer PutBuf kept")
	}
	st.ReleaseBuf(got)
	for i := 0; i < 4; i++ {
		d, _ := st.GetBuf("k")
		st.ReleaseBuf(d)
	}
	allocs := testing.AllocsPerRun(100, func() {
		d, err := st.GetBuf("k")
		if err != nil {
			t.Fatal(err)
		}
		st.ReleaseBuf(d)
	})
	if allocs != 0 {
		t.Fatalf("GetBuf/ReleaseBuf allocates %.1f/op", allocs)
	}
	if n := lentCount(st); n != 0 {
		t.Fatalf("%d loans outstanding after every release", n)
	}
}

// TestMemStorePutBufCopiesRoomyBuffer: a buffer with more room than its
// length's class is not kept as it is (it would cost its capacity for as
// long as it is stored) but copied into one that fits.
func TestMemStorePutBufCopiesRoomyBuffer(t *testing.T) {
	st := NewMem()
	roomy := bufpool.Get(8192)[:1000]
	copy(roomy, payload(1000, 6))
	if err := st.PutBuf("k", roomy); err != nil {
		t.Fatal(err)
	}
	d, err := st.GetBuf("k")
	if err != nil {
		t.Fatal(err)
	}
	defer st.ReleaseBuf(d)
	if cap(d) != 1024 || !bytes.Equal(d, payload(1000, 6)) {
		t.Fatalf("stored cap %d, want a 1024-byte copy of the blob", cap(d))
	}
}

func TestMemStoreRefusedPutBufLeavesBuffer(t *testing.T) {
	st := NewMemCap(100)
	blob := bufpool.Clone(payload(600, 1))
	if err := st.PutBuf("k", blob); err == nil {
		t.Fatal("over-capacity PutBuf accepted")
	}
	if st.Has("k") || !bytes.Equal(blob, payload(600, 1)) {
		t.Fatal("a refused PutBuf stored or touched the caller's buffer")
	}
	bufpool.Put(blob)
}

// TestMemStoreLentBufferOutlivesPutAndDelete: a value replaced or deleted
// while lent is recycled by its last ReleaseBuf, not before.
func TestMemStoreLentBufferOutlivesPutAndDelete(t *testing.T) {
	bufpool.SetPoison(true)
	defer bufpool.SetPoison(false)
	for _, letGo := range []string{"put", "delete"} {
		t.Run(letGo, func(t *testing.T) {
			st := NewMem()
			v1 := payload(2000, 1)
			if err := st.Put("k", v1); err != nil {
				t.Fatal(err)
			}
			a, _ := st.GetBuf("k")
			b, _ := st.GetBuf("k")
			var err error
			if letGo == "put" {
				err = st.Put("k", payload(2000, 9))
			} else {
				err = st.Delete("k")
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, v1) {
				t.Fatalf("lent buffer changed under %s", letGo)
			}
			st.ReleaseBuf(a)
			if !bytes.Equal(b, v1) {
				t.Fatal("buffer recycled while a second loan was out")
			}
			view := b[:len(b):len(b)] // kept past the release only to observe it
			st.ReleaseBuf(b)
			if !poisoned(view) {
				t.Fatal("last ReleaseBuf did not recycle the let-go buffer")
			}
			if n := lentCount(st); n != 0 {
				t.Fatalf("%d loans outstanding", n)
			}
			if letGo == "put" {
				if d, err := st.Get("k"); err != nil || !bytes.Equal(d, payload(2000, 9)) {
					t.Fatalf("replacement lost: %v", err)
				}
			}
		})
	}
}

// TestFaultStoreReleasesTruncatedLoan: the corrupt view FaultStore hands
// out is half of a lent MemStore buffer; releasing it ends the loan of the
// whole buffer.
func TestFaultStoreReleasesTruncatedLoan(t *testing.T) {
	bufpool.SetPoison(true)
	defer bufpool.SetPoison(false)
	inner := NewMem()
	if err := inner.Put("k", payload(1000, 5)); err != nil {
		t.Fatal(err)
	}
	st := NewFault(inner, FaultConfig{FailFirstGets: 1, CorruptGets: true})
	d, err := st.GetBuf("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 500 {
		t.Fatalf("corrupt GetBuf len=%d, want 500", len(d))
	}
	if err := inner.Delete("k"); err != nil {
		t.Fatal(err)
	}
	whole := d[:cap(d)]
	st.ReleaseBuf(d)
	if n := lentCount(inner); n != 0 {
		t.Fatalf("%d loans outstanding after releasing the truncated view", n)
	}
	if !poisoned(whole) {
		t.Fatal("the deleted buffer was not recycled by the truncated view's release")
	}
}

// TestMemStoreLendingHammer: concurrent GetBuf, Put, Delete and ReleaseBuf
// on shared keys, with every release poisoned. Each stored value is one
// repeated byte; a reader that finds its lent buffer mixed, changed or
// poisoned caught the store recycling a buffer under it.
func TestMemStoreLendingHammer(t *testing.T) {
	bufpool.SetPoison(true)
	defer bufpool.SetPoison(false)
	st := NewMem()
	keys := []Key{"a", "b", "c"}
	const workers, ops = 4, 2000
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := keys[(i+w)%len(keys)]
				switch i % 4 {
				case 0, 1:
					d, err := st.GetBuf(key)
					if err != nil {
						continue
					}
					v := d[0]
					runtime.Gosched()
					for j, c := range d {
						if c != v || c == 0xDB {
							errs <- fmt.Errorf("lent %q: byte %d is %#x, byte 0 %#x", key, j, c, v)
							st.ReleaseBuf(d)
							return
						}
					}
					st.ReleaseBuf(d)
				case 2:
					v := bytes.Repeat([]byte{byte(1 + (w*ops+i)%200)}, 600+i%3*500)
					if i%8 == 2 {
						if err := st.PutBuf(key, bufpool.Clone(v)); err != nil {
							errs <- err
							return
						}
					} else if err := st.Put(key, v); err != nil {
						errs <- err
						return
					}
				case 3:
					if i%12 == 3 {
						_ = st.Delete(key)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := lentCount(st); n != 0 {
		t.Fatalf("%d loans outstanding after the hammer", n)
	}
}
