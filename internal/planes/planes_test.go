package planes

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"mrts/internal/workload"
)

// meshShaped returns n bytes laid out like an encoded mesh: a short header,
// 16-byte vertices (two float64 in [0,1)), then 12-byte triangles of uint32
// indices below 2^16.
func meshShaped(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, n+16)
	out = append(out, "MRTS\x01\x00\x00\x00"...)
	for len(out) < n/2 {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(rng.Float64()))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(rng.Float64()))
	}
	for len(out) < n {
		out = binary.LittleEndian.AppendUint32(out, uint32(rng.Intn(1<<16)))
	}
	return out[:n]
}

func noise(n int, seed int64) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

// adversarial returns n bytes that sit on the coder's edges: runs one short
// of and exactly at minRun, a run byte that changes between neighbouring
// planes, and stretches long enough for multi-byte lengths.
func adversarial(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		group, plane := i/stride, i%stride
		switch {
		case plane < 4:
			out[i] = byte(group / (minRun - 1)) // runs of 3: never a token
		case plane < 8:
			out[i] = byte(group / minRun) // runs of exactly 4
		case plane < 12:
			out[i] = byte(plane) // constant per plane, differs from its neighbours
		default:
			out[i] = byte(group*7 + plane) // no runs
		}
	}
	return out
}

// guarded returns a dst of length n, filled with fillByte, inside a larger
// buffer, and a check that nothing around it was written.
func guarded(n int) (dst []byte, intact func() bool) {
	const pad, fillByte = 32, 0xA5
	buf := bytes.Repeat([]byte{fillByte}, n+2*pad)
	return buf[pad : pad+n : pad+n], func() bool {
		return bytes.Count(buf[:pad], []byte{fillByte}) == pad &&
			bytes.Count(buf[pad+n:], []byte{fillByte}) == pad
	}
}

// roundTrip checks one input: a declined encode leaves dst alone, an accepted
// one is shorter than the input and decodes back to it.
func roundTrip(t *testing.T, name string, src []byte) (coded int) {
	t.Helper()
	prefix := []byte("hdr")
	enc, ok := Encode(append([]byte(nil), prefix...), src)
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatalf("%s len %d: Encode changed the bytes already in dst", name, len(src))
	}
	if !ok {
		if len(enc) != len(prefix) {
			t.Fatalf("%s len %d: declined encode left %d bytes behind", name, len(src), len(enc)-len(prefix))
		}
		return len(src)
	}
	coded = len(enc) - len(prefix)
	if coded >= len(src) {
		t.Fatalf("%s len %d: accepted encode is %d bytes", name, len(src), coded)
	}
	dst, intact := guarded(len(src))
	if err := Decode(dst, enc[len(prefix):]); err != nil {
		t.Fatalf("%s len %d: Decode: %v", name, len(src), err)
	}
	if !intact() {
		t.Fatalf("%s len %d: Decode wrote outside dst", name, len(src))
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("%s len %d: round trip mismatch", name, len(src))
	}
	return coded
}

func TestRoundTrip(t *testing.T) {
	lengths := []int{1 << 20, 1<<20 + 5}
	for n := 0; n <= 4*stride+3; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		roundTrip(t, "noise", noise(n, int64(n)))
		roundTrip(t, "adversarial", adversarial(n))
		equal := roundTrip(t, "all-equal", bytes.Repeat([]byte{0x3F}, n))
		shaped := roundTrip(t, "mesh-shaped", meshShaped(n, int64(n)))
		if n >= minRun && equal > 5 {
			t.Fatalf("all-equal len %d coded to %d bytes, want at most 5", n, equal)
		}
		if n >= 1<<20 && float64(n)/float64(shaped) < 1.4 {
			t.Fatalf("mesh-shaped len %d coded to %d bytes, want a ratio of 1.4", n, shaped)
		}
	}
}

// split and join are exercised by TestRoundTrip only on inputs the coder
// accepts; noise must survive them too.
func TestSplitJoinInverse(t *testing.T) {
	for n := 0; n <= 20*stride+3; n++ {
		src := noise(n, int64(n))
		stream, back := make([]byte, n), make([]byte, n)
		split(stream, src)
		for i := 0; i < n/stride*stride; i++ {
			if want := src[i]; stream[i%stride*(n/stride)+i/stride] != want {
				t.Fatalf("len %d: byte %d is not at its plane position", n, i)
			}
		}
		join(back, stream)
		if !bytes.Equal(back, src) {
			t.Fatalf("len %d: join(split(x)) != x", n)
		}
	}
}

// refDecode reads the token grammar the obvious way, one byte at a time, and
// undoes the transposition by index arithmetic: what Decode must agree with.
func refDecode(src []byte, n int) ([]byte, bool) {
	var stream []byte
	for len(src) > 0 {
		l, k := binary.Uvarint(src)
		if k <= 0 || l > uint64(len(src)-k) || l > uint64(n-len(stream)) {
			return nil, false
		}
		stream = append(stream, src[k:k+int(l)]...)
		src = src[k+int(l):]
		if len(src) == 0 {
			break
		}
		r, k := binary.Uvarint(src)
		if k <= 0 || k == len(src) || r > uint64(n-len(stream)) {
			return nil, false
		}
		for ; r > 0; r-- {
			stream = append(stream, src[k])
		}
		src = src[k+1:]
	}
	if len(stream) != n {
		return nil, false
	}
	out, m := make([]byte, n), n/stride
	for i := range out {
		if i < m*stride {
			out[i] = stream[i%stride*m+i/stride]
		} else {
			out[i] = stream[i]
		}
	}
	return out, true
}

// FuzzDecode: whatever the bytes, Decode does not panic, writes only inside
// dst, and returns nil exactly when the tokens fill dst — in which case dst
// is what the reference decoder makes of them, and otherwise is untouched.
// Check, which only counts, returns the error Decode does.
func FuzzDecode(f *testing.F) {
	for _, src := range [][]byte{meshShaped(300, 1), adversarial(200), bytes.Repeat([]byte{7}, 1000), {}} {
		enc, _ := Encode(nil, src)
		f.Add(enc, uint16(len(src)))
		f.Add(enc, uint16(len(src)+1)) // claimed raw length disagrees
		if len(enc) > 0 {
			f.Add(enc[:len(enc)-1], uint16(len(src)))
		}
	}
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	for _, src := range [][]byte{
		bytes.Repeat([]byte{0xff}, 11),          // a uvarint that overflows 64 bits
		append(append([]byte{}, huge...), 'x'),  // 2^64-1 literals
		append(append([]byte{0}, huge...), 'x'), // 2^64-1 copies
		{65, 'a', 'b'},                          // literals past the source
		{0, 65, 'x'},                            // run past the destination
		{0, 64},                                 // run without its byte
		{0, 64, 'x', 0x80},                      // unfinished uvarint after a full destination
		{0, 0, 0, 0, 0, 64, 'x', 0},             // empty tokens are harmless
	} {
		f.Add(src, uint16(64))
	}

	f.Fuzz(func(t *testing.T, src []byte, n uint16) {
		dst, intact := guarded(int(n))
		before := append([]byte(nil), dst...)
		err := Decode(dst, src)
		if !intact() {
			t.Fatal("Decode wrote outside dst")
		}
		want, ok := refDecode(src, int(n))
		switch {
		case Check(src, int(n)) != err:
			t.Fatalf("Check returned %v, Decode %v", Check(src, int(n)), err)
		case ok != (err == nil):
			t.Fatalf("Decode returned %v; the tokens fill dst exactly: %v", err, ok)
		case ok && !bytes.Equal(dst, want):
			t.Fatal("Decode disagrees with the reference decoder")
		case !ok && !bytes.Equal(dst, before):
			t.Fatal("a failed Decode wrote into dst")
		}
	})
}

func TestNoAllocs(t *testing.T) {
	src := meshShaped(200<<10, 1)
	enc := make([]byte, 0, len(src))
	dst := make([]byte, len(src))
	pair := func() {
		out, ok := Encode(enc, src)
		if !ok || Decode(dst, out) != nil {
			t.Fatal("mesh-shaped input did not round trip")
		}
	}
	pair() // warm-up: the scratch buffer enters the pool
	if allocs := testing.AllocsPerRun(10, pair); allocs != 0 {
		t.Fatalf("encode+decode allocates %v times per pair, want 0", allocs)
	}
}

// refinedBlock is the encoding of a refined unit square of about 30 000
// triangles, the size of one benchmark subdomain.
func refinedBlock(b *testing.B) []byte {
	blob, err := workload.RefinedBlock(30000)
	if err != nil {
		b.Fatal(err)
	}
	return blob
}

func BenchmarkPlanesEncode(b *testing.B) {
	blob := refinedBlock(b)
	enc := make([]byte, 0, len(blob))
	coded := 0
	b.ReportAllocs()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, ok := Encode(enc, blob)
		if !ok {
			b.Fatal("refined block stored raw")
		}
		coded = len(out)
	}
	b.ReportMetric(float64(len(blob))/float64(coded), "ratio")
}

func BenchmarkPlanesDecode(b *testing.B) {
	blob := refinedBlock(b)
	enc, ok := Encode(nil, blob)
	if !ok {
		b.Fatal("refined block stored raw")
	}
	dst := make([]byte, len(blob))
	b.ReportAllocs()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Decode(dst, enc); err != nil {
			b.Fatal(err)
		}
	}
}
