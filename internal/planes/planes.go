// Package planes is the frame payload codec of the swap tier (internal/tier)
// and the mesh store (internal/meshstore): a 16-way byte transposition
// followed by byte-run coding.
//
// An encoded mesh is float64 coordinates and uint32 indices. Byte k of every
// 16-byte group goes to plane k, so each plane holds one fixed byte position
// of those fields whatever offset the records start at: the high halves of
// small indices and the exponent bytes of nearby coordinates become long runs
// of one value, and the mantissa bytes, which no general-purpose coder
// shrinks either, pass through as literals at memcpy cost.
//
// Coded form: the plane stream is plane 0 (bytes 0, 16, 32, ... of the
// input), plane 1, ..., plane 15, then the len%16 trailing bytes in their
// own order. It is written as tokens that alternate, literals first:
//
//	uvarint n · n literal bytes
//	uvarint n · one byte, standing for n copies of it
//
// until the stream ends (after either kind). The encoder turns every maximal
// run of at least minRun equal bytes into a run token; the decoder accepts
// any token sequence that fills the destination exactly.
package planes

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"mrts/internal/bufpool"
)

const (
	stride = 16
	// minRun is the shortest run worth a token: a run costs at most the
	// zero-length literal before it, its length and its byte.
	minRun = 4
)

var (
	errTruncated = errors.New("planes: token runs past the end of the coded form")
	errOverrun   = errors.New("planes: token runs past the end of the destination")
	errShort     = errors.New("planes: coded form ends before the destination is full")
)

// Encode appends the coded form of src to dst and reports true, or reports
// false with dst as it was when the coded form would not be shorter than src.
// It appends fewer than len(src) bytes, so a dst with that much spare
// capacity is never reallocated.
func Encode(dst, src []byte) ([]byte, bool) {
	if len(src) == 0 {
		return dst, false
	}
	stream := bufpool.Get(len(src))
	split(stream, src)
	out, ok := pack(dst, stream)
	bufpool.Put(stream)
	return out, ok
}

// Decode fills dst, whose length is the raw length the frame recorded, from
// the coded form src. It returns an error, having written nothing, unless the
// tokens of src fill dst exactly.
func Decode(dst, src []byte) error {
	stream := bufpool.Get(len(dst))
	err := unpack(stream, len(stream), src)
	if err == nil {
		join(dst, stream)
	}
	bufpool.Put(stream)
	return err
}

// Check returns the error Decode would return for a destination of n bytes
// without writing or allocating anything: it reads only the token lengths.
// A caller that takes n from an untrusted header checks before it allocates
// n bytes for the tokens to fill.
func Check(src []byte, n int) error { return unpack(nil, n, src) }

// split writes the plane stream of src into stream (same length).
func split(stream, src []byte) {
	m := len(src) / stride
	var p [stride][]byte
	for k := range p {
		p[k] = stream[k*m : (k+1)*m]
	}
	i := 0
	for ; i+8 <= m; i += 8 {
		var lo, hi [8]uint64
		for r := range lo {
			g := src[(i+r)*stride:]
			lo[r] = binary.LittleEndian.Uint64(g)
			hi[r] = binary.LittleEndian.Uint64(g[8:])
		}
		transpose8(&lo)
		transpose8(&hi)
		for k := range lo {
			binary.LittleEndian.PutUint64(p[k][i:], lo[k])
			binary.LittleEndian.PutUint64(p[k+8][i:], hi[k])
		}
	}
	for ; i < m; i++ {
		g := src[i*stride : (i+1)*stride]
		for k := range p {
			p[k][i] = g[k]
		}
	}
	copy(stream[m*stride:], src[m*stride:])
}

// join is the inverse of split: it writes the bytes whose plane stream is
// stream into dst (same length).
func join(dst, stream []byte) {
	m := len(dst) / stride
	var p [stride][]byte
	for k := range p {
		p[k] = stream[k*m : (k+1)*m]
	}
	i := 0
	for ; i+8 <= m; i += 8 {
		var lo, hi [8]uint64
		for k := range lo {
			lo[k] = binary.LittleEndian.Uint64(p[k][i:])
			hi[k] = binary.LittleEndian.Uint64(p[k+8][i:])
		}
		transpose8(&lo)
		transpose8(&hi)
		for r := range lo {
			g := dst[(i+r)*stride:]
			binary.LittleEndian.PutUint64(g, lo[r])
			binary.LittleEndian.PutUint64(g[8:], hi[r])
		}
	}
	for ; i < m; i++ {
		g := dst[i*stride : (i+1)*stride]
		for k := range p {
			g[k] = p[k][i]
		}
	}
	copy(dst[m*stride:], stream[m*stride:])
}

// transpose8 transposes an 8×8 byte matrix held as eight little-endian rows:
// afterwards byte r of x[c] is what byte c of x[r] was. Three rounds of
// masked swaps exchange the off-diagonal 1×1, 2×2 and 4×4 blocks.
func transpose8(x *[8]uint64) {
	for r := 0; r < 8; r += 2 {
		t := (x[r]>>8 ^ x[r+1]) & 0x00ff00ff00ff00ff
		x[r+1] ^= t
		x[r] ^= t << 8
	}
	for _, r := range [4]int{0, 1, 4, 5} {
		t := (x[r]>>16 ^ x[r+2]) & 0x0000ffff0000ffff
		x[r+2] ^= t
		x[r] ^= t << 16
	}
	for r := 0; r < 4; r++ {
		t := (x[r]>>32 ^ x[r+4]) & 0x00000000ffffffff
		x[r+4] ^= t
		x[r] ^= t << 32
	}
}

// pack appends the tokens of stream to dst, giving up (dst unchanged, false)
// once they would take len(stream) bytes or more.
func pack(dst, stream []byte) ([]byte, bool) {
	base, n := len(dst), len(stream)
	lit := 0 // start of the literals not yet written
	for i := nextRun(stream, 0); i < n; i = nextRun(stream, i) {
		b := stream[i]
		j := i + minRun
		for w := uint64(b) * 0x0101010101010101; j+8 <= n && binary.LittleEndian.Uint64(stream[j:]) == w; {
			j += 8
		}
		for j < n && stream[j] == b {
			j++
		}
		if len(dst)-base+uvarintLen(i-lit)+(i-lit)+uvarintLen(j-i)+1 >= n {
			return dst[:base], false
		}
		dst = binary.AppendUvarint(dst, uint64(i-lit))
		dst = append(dst, stream[lit:i]...)
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = append(dst, b)
		i, lit = j, j
	}
	if lit < n {
		if len(dst)-base+uvarintLen(n-lit)+(n-lit) >= n {
			return dst[:base], false
		}
		dst = binary.AppendUvarint(dst, uint64(n-lit))
		dst = append(dst, stream[lit:]...)
	}
	return dst, true
}

// nextRun returns the first position at or after i where minRun equal bytes
// start, or len(s) when there is none.
func nextRun(s []byte, i int) int {
	// Eight bytes at a time: byte k of x is zero where s[i+k] == s[i+k+1]
	// (k < 7), z marks the zero bytes of x, and a run starts where three
	// marks are adjacent. Only starts 0..4 see all their neighbours, so a
	// window without one moves on by five, independently of what it held.
	const low7 = 0x7f7f7f7f7f7f7f7f
	for ; i+8 <= len(s); i += 5 {
		v := binary.LittleEndian.Uint64(s[i:])
		x := v ^ v>>8
		z := ^((x&low7 + low7) | x | low7)
		if t := z & (z >> 8) & (z >> 16) & 0x8080808080; t != 0 {
			return i + bits.TrailingZeros64(t)/8
		}
	}
	for ; i+minRun <= len(s); i++ {
		if s[i] == s[i+1] && s[i] == s[i+2] && s[i] == s[i+3] {
			return i
		}
	}
	return len(s)
}

// uvarintLen is the encoded size of x as a uvarint.
func uvarintLen(x int) int { return (bits.Len64(uint64(x)|1) + 6) / 7 }

// unpack expands the tokens of src into stream, which is n bytes long or,
// nil, not written at all. Every length is checked against what is left of
// both before it is used.
func unpack(stream []byte, n int, src []byte) error {
	at := 0
	for len(src) > 0 {
		m, k := binary.Uvarint(src)
		if k <= 0 || m > uint64(len(src)-k) {
			return errTruncated
		}
		if m > uint64(n-at) {
			return errOverrun
		}
		if stream != nil {
			copy(stream[at:], src[k:k+int(m)])
		}
		at += int(m)
		src = src[k+int(m):]
		if len(src) == 0 {
			break
		}
		m, k = binary.Uvarint(src)
		if k <= 0 || k == len(src) {
			return errTruncated
		}
		if m > uint64(n-at) {
			return errOverrun
		}
		if stream != nil {
			fill(stream[at:at+int(m)], src[k])
		}
		at += int(m)
		src = src[k+1:]
	}
	if at != n {
		return errShort
	}
	return nil
}

// fill sets every byte of s to b, doubling the filled prefix.
func fill(s []byte, b byte) {
	if len(s) == 0 {
		return
	}
	s[0] = b
	for n := 1; n < len(s); n *= 2 {
		copy(s[n:], s[:n])
	}
}
