package mesh

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// TestRecycleZeroesTheMesh: a recycled mesh holds nothing of what it held,
// and the next New starts on its storage.
func TestRecycleZeroesTheMesh(t *testing.T) {
	m := buildRandom(t, 500, 1)
	m.ReleaseScratch()
	m.scratch() // a scratch in hand, which Recycle must give back too
	grown := cap(m.tris)
	m.Recycle()
	if v := reflect.ValueOf(*m); !v.IsZero() {
		t.Fatalf("recycled mesh is not zeroed: %+v", *m)
	}
	if raceEnabled {
		return // under the race detector sync.Pool drops what it is given at random
	}
	// Put and Get meet on the goroutine's processor, unless it moved in between.
	for i := 0; i < 3; i++ {
		n := New()
		reused := cap(n.tris) >= grown
		if len(n.verts)+len(n.tris)+len(n.flags)+len(n.free)+len(n.vertTri) != 0 {
			t.Fatalf("New starts with %d vertices, %d triangle slots, %d free", len(n.verts), len(n.tris), len(n.free))
		}
		n.Recycle()
		if reused {
			return
		}
	}
	t.Errorf("New never took the storage of a recycled %d-slot mesh", grown)
}

// TestRecycledStorageBuildsTheSameMesh: a mesh built on the storage of a
// larger one, with dead slots and a free list, encodes byte for byte as one
// built on fresh storage.
func TestRecycledStorageBuildsTheSameMesh(t *testing.T) {
	encode := func(m *Mesh) []byte {
		var buf bytes.Buffer
		if err := m.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	runtime.GC() // twice: the pool keeps a victim generation
	runtime.GC()
	fresh := buildRandom(t, 300, 7)
	want := encode(fresh)

	big := buildRandom(t, 2000, 8)
	if len(big.free) == 0 && big.nAlive == len(big.tris) {
		for _, tr := range []TriID{3, 10, 11} { // dead slots, stale records
			big.killTri(tr)
		}
	}
	big.Recycle()
	again := buildRandom(t, 300, 7)
	if got := encode(again); !bytes.Equal(got, want) {
		t.Fatalf("mesh on recycled storage encodes differently (%d vs %d bytes)", len(got), len(want))
	}
	if err := again.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeToAnyWriter: the in-place bytes.Buffer path and the path for
// other writers write the same bytes, and a writer's error comes back.
func TestEncodeToAnyWriter(t *testing.T) {
	m := buildRandom(t, 3000, 3) // several encodeChunks
	m.SetConstrained(0, 1, true)
	var direct bytes.Buffer
	direct.WriteString("prefix") // appended after, not overwritten
	if err := m.EncodeTo(&direct); err != nil {
		t.Fatal(err)
	}
	other := &chunkWriter{}
	if err := m.EncodeTo(other); err != nil {
		t.Fatal(err)
	}
	if other.writes < 2 || other.largest > encodeChunk {
		t.Fatalf("%d bytes in %d writes of at most %d; want chunks of at most %d", other.Len(), other.writes, other.largest, encodeChunk)
	}
	if got := direct.Bytes(); string(got[:6]) != "prefix" || !bytes.Equal(got[6:], other.Bytes()) {
		t.Fatalf("bytes.Buffer path wrote %d bytes after the prefix, the writer path %d", len(got)-6, other.Len())
	}
	if other.Len() != m.EncodedSize() {
		t.Fatalf("wrote %d bytes, EncodedSize says %d", other.Len(), m.EncodedSize())
	}
	boom := errors.New("boom")
	if err := m.EncodeTo(failWriter{boom}); !errors.Is(err, boom) {
		t.Fatalf("EncodeTo into a failing writer = %v, want %v", err, boom)
	}
}

// chunkWriter collects what it is given and counts the writes.
type chunkWriter struct {
	bytes.Buffer
	writes, largest int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.writes++
	w.largest = max(w.largest, len(p))
	return w.Buffer.Write(p)
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }
