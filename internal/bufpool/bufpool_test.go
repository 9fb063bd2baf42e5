package bufpool

import (
	"bytes"
	"testing"
)

func TestClassSizing(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{0, 512}, {1, 512}, {512, 512}, {513, 640}, {640, 640}, {641, 768},
		{896, 896}, {897, 1024}, {1024, 1024}, {1025, 1280}, {4096, 4096},
		{5000, 5120}, {5121, 6144}, {7169, 8192}, {8193, 10240},
		{12<<20 + 1, 14 << 20}, {14<<20 + 1, 1 << 24}, {1 << 24, 1 << 24},
	}
	for _, c := range cases {
		b := Get(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Errorf("Get(%d): len=%d cap=%d, want len=%d cap=%d", c.n, len(b), cap(b), c.n, c.wantCap)
		}
		Put(b)
	}
	// Beyond the largest class, Get falls through to the allocator.
	big := Get(1<<24 + 1)
	if len(big) != 1<<24+1 {
		t.Fatalf("oversize Get: len=%d", len(big))
	}
	Put(big) // must be a silent drop
}

// TestClassTable checks the class arithmetic against the table it encodes:
// sizes ascend, four to each doubling from 512 B to 16 MiB, and every
// request maps to the smallest class that holds it.
func TestClassTable(t *testing.T) {
	if classSize(0) != 512 || classSize(numClasses-1) != 1<<24 {
		t.Fatalf("classes span %d..%d, want 512..16 MiB", classSize(0), classSize(numClasses-1))
	}
	for i := 1; i < numClasses; i++ {
		lo, hi := classSize(i-1), classSize(i)
		if hi <= lo || hi > lo+lo/4 {
			t.Fatalf("class %d: %d after %d, want at most a quarter more", i, hi, lo)
		}
		for _, n := range []int{lo + 1, (lo + hi) / 2, hi} {
			if got := classIndex(n); got != i {
				t.Fatalf("classIndex(%d) = %d, want %d", n, got, i)
			}
		}
		if classOf(make([]byte, 0, hi)) != i || classOf(make([]byte, 0, hi-1)) != -1 {
			t.Fatalf("classOf misreads capacity %d or %d", hi, hi-1)
		}
	}
	if classIndex(1<<24+1) != -1 || classIndex(-1) != -1 {
		t.Fatal("out-of-range requests must map to no class")
	}
}

func TestSnug(t *testing.T) {
	cases := []struct {
		len, cap int
		want     bool
	}{
		{0, 0, true}, {10, 512, true}, {10, 640, false}, {600, 640, true},
		{600, 768, false}, {5000, 5000, true}, {5000, 5120, true}, {5000, 6144, false},
		{1<<24 + 1, 1<<24 + 1, true}, {1<<24 + 1, 1<<24 + 2, false},
	}
	for _, c := range cases {
		if got := Snug(make([]byte, c.len, c.cap)); got != c.want {
			t.Errorf("Snug(len %d, cap %d) = %v, want %v", c.len, c.cap, got, c.want)
		}
	}
}

func TestRoundTripReuse(t *testing.T) {
	b := Get(1000)
	for i := range b {
		b[i] = 7
	}
	Put(b)
	b2 := Get(900)
	if cap(b2) != cap(b) {
		t.Fatalf("expected class reuse, got cap %d vs %d", cap(b2), cap(b))
	}
}

func TestPutForeignBufferDropped(t *testing.T) {
	before := Snapshot()
	Put(make([]byte, 777)) // cap 777 is not a class size
	after := Snapshot()
	if after.Drops != before.Drops+1 {
		t.Fatalf("foreign Put not dropped: %+v -> %+v", before, after)
	}
}

func TestClone(t *testing.T) {
	src := []byte("hello pooled world")
	dst := Clone(src)
	if !bytes.Equal(src, dst) {
		t.Fatalf("clone mismatch")
	}
	if cap(dst) != 512 {
		t.Fatalf("clone not pooled: cap=%d", cap(dst))
	}
	Put(dst)
}

func TestPoisonOnPut(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	b := Get(600)
	for i := range b {
		b[i] = 0x11
	}
	// Keep an alias to observe the poison (this is exactly the misuse the
	// poison exists to catch).
	alias := b[:8]
	Put(b)
	for i, c := range alias {
		if c != poisonByte {
			t.Fatalf("byte %d not poisoned: %#x", i, c)
		}
	}
	// Drain the poisoned buffer so later tests get clean state.
	Put(Get(600))
}

func TestWriterGrowAndDetach(t *testing.T) {
	w := GetWriter(16)
	var want []byte
	chunk := bytes.Repeat([]byte{0xAB}, 300)
	for i := 0; i < 10; i++ {
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
		want = append(want, chunk...)
	}
	if err := w.WriteByte(0xCD); err != nil {
		t.Fatal(err)
	}
	want = append(want, 0xCD)
	if w.Len() != len(want) {
		t.Fatalf("Len=%d want %d", w.Len(), len(want))
	}
	got := w.Detach()
	PutWriter(w)
	if !bytes.Equal(got, want) {
		t.Fatalf("writer content mismatch (len %d vs %d)", len(got), len(want))
	}
	if w2 := GetWriter(8); w2.Len() != 0 {
		t.Fatalf("recycled writer not empty")
	} else {
		PutWriter(w2)
	}
	Put(got)
}

func TestWriterSteadyStateZeroAlloc(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	// Warm the pools.
	for i := 0; i < 4; i++ {
		w := GetWriter(len(payload))
		w.Write(payload)
		Put(w.Detach())
		PutWriter(w)
	}
	allocs := testing.AllocsPerRun(100, func() {
		w := GetWriter(len(payload))
		w.Write(payload)
		b := w.Detach()
		PutWriter(w)
		Put(b)
	})
	if allocs > 0.5 {
		t.Fatalf("writer round trip allocates: %.1f allocs/op", allocs)
	}
}

func TestGetPutSteadyStateZeroAlloc(t *testing.T) {
	for i := 0; i < 4; i++ {
		Put(Get(8192))
	}
	allocs := testing.AllocsPerRun(100, func() {
		b := Get(8192)
		b[0] = 1
		Put(b)
	})
	if allocs > 0.5 {
		t.Fatalf("Get/Put round trip allocates: %.1f allocs/op", allocs)
	}
}
