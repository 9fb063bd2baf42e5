package geom

import (
	"math"
	"math/bits"
)

// Floating-point expansions (Shewchuk 1997): a value held exactly as a sum of
// doubles whose bits do not overlap, stored smallest first. The error-free
// transformations below turn a sum, difference or product of two doubles into
// such a pair; the expansion routines eliminate zero components, so a
// result's length tracks the bits it actually needs. Every buffer is a fixed
// array on the caller's stack.
//
// They are exact as long as no product overflows or underflows. inRange
// admits the inputs for which Shewchuk's stages stay in range; the wide
// evaluators scale by powers of two themselves and are exact for any finite
// input.

// twoSum returns a+b as the rounded sum and its exact rounding error.
func twoSum(a, b float64) (x, y float64) {
	x = a + b
	bv := x - a
	av := x - bv
	return x, (a - av) + (b - bv)
}

// twoDiffTail returns the rounding error of x = fl(a-b).
func twoDiffTail(a, b, x float64) float64 {
	bv := a - x
	av := x + bv
	return (a - av) + (bv - b)
}

// twoProduct returns a·b as the rounded product and its exact rounding error.
func twoProduct(a, b float64) [2]float64 {
	x := a * b
	return [2]float64{math.FMA(a, b, -x), x}
}

// twoTwoDiff sets out to the four-component expansion of a − b, where a and b
// are two-component expansions (low, high).
func twoTwoDiff(a, b [2]float64, out *[4]float64) {
	// Two_One_Diff(a1, a0, b0), then Two_One_Diff(j, z, b1).
	i, x0 := twoSum(a[0], -b[0])
	j, z := twoSum(a[1], i)
	i, x1 := twoSum(z, -b[1])
	x3, x2 := twoSum(j, i)
	*out = [4]float64{x0, x1, x2, x3}
}

// sumExpansions sets h to e + f and returns it, without zero components
// (Shewchuk's fast_expansion_sum_zeroelim). h needs len(e)+len(f) room and
// must not alias e or f; an empty e or f is zero.
func sumExpansions(e, f, h []float64) []float64 {
	if len(e) == 0 {
		return h[:copy(h, f)]
	}
	if len(f) == 0 {
		return h[:copy(h, e)]
	}
	ei, fi, n := 0, 0, 0
	// next takes the smaller-magnitude head of e and f.
	next := func() float64 {
		if fi == len(f) || (ei < len(e) && (f[fi] > e[ei]) == (f[fi] > -e[ei])) {
			ei++
			return e[ei-1]
		}
		fi++
		return f[fi-1]
	}
	q := next()
	for ei < len(e) || fi < len(f) {
		var hh float64
		q, hh = twoSum(q, next())
		if hh != 0 {
			h[n] = hh
			n++
		}
	}
	if q != 0 || n == 0 {
		h[n] = q
		n++
	}
	return h[:n]
}

// scaleExpansion sets h to e·b and returns it, without zero components
// (Shewchuk's scale_expansion_zeroelim). h needs 2·len(e) room and must not
// alias e.
func scaleExpansion(e []float64, b float64, h []float64) []float64 {
	if len(e) == 0 {
		return h[:0]
	}
	n := 0
	p := twoProduct(e[0], b)
	q := p[1]
	if p[0] != 0 {
		h[n] = p[0]
		n++
	}
	for _, c := range e[1:] {
		p := twoProduct(c, b)
		sum, hh := twoSum(q, p[0])
		if hh != 0 {
			h[n] = hh
			n++
		}
		q, hh = twoSum(p[1], sum)
		if hh != 0 {
			h[n] = hh
			n++
		}
	}
	if q != 0 || n == 0 {
		h[n] = q
		n++
	}
	return h[:n]
}

// compress rewrites e in place so that its largest component approximates
// its value to within that component's ulp (Shewchuk's compress), and returns
// it.
func compress(e []float64) []float64 {
	if len(e) == 0 {
		return e
	}
	bottom := len(e) - 1
	q := e[bottom]
	for i := len(e) - 2; i >= 0; i-- {
		qNew, lo := twoSum(q, e[i])
		if lo != 0 {
			e[bottom] = qNew
			bottom--
			q = lo
		} else {
			q = qNew
		}
	}
	top := 0
	for i := bottom + 1; i < len(e); i++ {
		qNew, lo := twoSum(e[i], q)
		if lo != 0 {
			e[top] = lo
			top++
		}
		q = qNew
	}
	e[top] = q
	return e[:top+1]
}

// estimate returns a double close to the expansion's value.
func estimate(e []float64) float64 {
	s := 0.0
	for _, c := range e {
		s += c
	}
	return s
}

// expansionSign is the exact sign of an expansion: that of its largest
// nonzero component.
func expansionSign(e []float64) Sign {
	for i := len(e) - 1; i >= 0; i-- {
		if e[i] != 0 {
			return signOf(e[i])
		}
	}
	return Zero
}

// Exponent ranges inside which Shewchuk's stages B–D keep every product of
// coordinate differences (degree 2 for Orient2D, 4 for InCircle) and every
// error bound clear of overflow and underflow: the largest coordinate is
// below 2^maxExp, and every coordinate is a multiple of 2^minLSB.
type exponentRange struct{ maxExp, minLSB int }

var (
	orientRange   = exponentRange{maxExp: 509, minLSB: -456}
	inCircleRange = exponentRange{maxExp: 250, minLSB: -228}
)

// inRange reports whether every coordinate of pts is finite and, unless
// zero, inside r.
func inRange(r exponentRange, pts ...Point) bool {
	for _, p := range pts {
		for _, x := range [2]float64{p.X, p.Y} {
			if x == 0 {
				continue
			}
			top, lsb, ok := exponents(x)
			if !ok || top > r.maxExp || lsb < r.minLSB {
				return false
			}
		}
	}
	return true
}

// exponents returns, for a nonzero x, the e with |x| < 2^e and the exponent
// of x's lowest set bit; ok is false for an infinity or a NaN.
func exponents(x float64) (top, lsb int, ok bool) {
	b := math.Float64bits(x)
	e := int(b >> 52 & 0x7ff)
	mant := b & (1<<52 - 1)
	switch e {
	case 0x7ff:
		return 0, 0, false
	case 0: // subnormal: mant · 2⁻¹⁰⁷⁴
		return bits.Len64(mant) - 1074, bits.TrailingZeros64(mant) - 1074, true
	}
	return e - 1022, bits.TrailingZeros64(mant|1<<52) + e - 1075, true
}

// A monomial is a signed product of coordinates, by their indices in the
// coordinate list of the predicate.
type monomial struct {
	neg bool
	f   [4]uint8
}

// orientMonomials expand (a−c)×(b−c) over the coordinates
// ax, ay, bx, by, cx, cy (indices 0–5); the cx·cy terms cancel.
var orientMonomials = [6]monomial{
	{false, [4]uint8{0, 3}}, {true, [4]uint8{0, 5}}, {true, [4]uint8{4, 3}},
	{true, [4]uint8{1, 2}}, {false, [4]uint8{1, 4}}, {false, [4]uint8{5, 2}},
}

// inCircleMonomials expand the lifted determinant
//
//	| ax ay ax²+ay² 1 |
//	| bx by bx²+by² 1 |
//	| cx cy cx²+cy² 1 |
//	| dx dy dx²+dy² 1 |
//
// over ax, ay, …, dy (indices 2i and 2i+1 for point i): for every permutation
// σ of the rows, sgn σ · x_σ0 · y_σ1 · (x_σ2² + y_σ2²).
var inCircleMonomials = func() (ms [48]monomial) {
	n := 0
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				l := 6 - i - j - k
				if i == j || i == k || j == k || l < 0 || l > 3 || l == i || l == j || l == k {
					continue
				}
				perm := [4]int{i, j, k, l}
				neg := false // parity by counting inversions
				for p := 0; p < 4; p++ {
					for q := p + 1; q < 4; q++ {
						if perm[p] > perm[q] {
							neg = !neg
						}
					}
				}
				x, y := uint8(2*i), uint8(2*j+1)
				ms[n] = monomial{neg, [4]uint8{x, y, uint8(2 * k), uint8(2 * k)}}
				ms[n+1] = monomial{neg, [4]uint8{x, y, uint8(2*k + 1), uint8(2*k + 1)}}
				n += 2
			}
		}
	}
	return ms
}()

func orient2DWide(a, b, c Point) Sign {
	coords := [8]float64{a.X, a.Y, b.X, b.Y, c.X, c.Y}
	return wideSign(&coords, orientMonomials[:], 2)
}

func inCircleWide(a, b, c, d Point) Sign {
	coords := [8]float64{a.X, a.Y, b.X, b.Y, c.X, c.Y, d.X, d.Y}
	return wideSign(&coords, inCircleMonomials[:], 4)
}

// windowBits is how far below the window's top a monomial may lie and still
// be summed in it: a product of four 53-bit mantissas needs 212 bits below
// its top, and 212+800 stays above the smallest normal double.
const windowBits = 800

// wideSign returns the exact sign of the sum of the monomials (each of
// degree factors) over coords, for any finite coordinates. Each monomial is
// a product of mantissas in [½, 1), an exact expansion of at most 2^(degree-1)
// components, times 2^k. The monomials are summed in windows of exponents,
// from the largest k down, each window's sum scaled so that none of its
// products overflows or underflows. A window ends with a decision when its
// sum outweighs every monomial still to come; otherwise the sum, now known to
// be small, is carried into the next window.
func wideSign(coords *[8]float64, ms []monomial, degree int) Sign {
	var mant [8]float64
	var exp [8]int
	for i, x := range coords {
		mant[i], exp[i] = math.Frexp(x)
	}
	var ks [48]int
	var live [48]bool
	frame, found := 0, false
	for i, m := range ms {
		k, zero := 0, false
		for _, f := range m.f[:degree] {
			zero = zero || mant[f] == 0
			k += exp[f]
		}
		ks[i], live[i] = k, !zero
		if !zero && (!found || k > frame) {
			frame, found = k, true
		}
	}
	if !found {
		return Zero
	}
	var bufs [2][448]float64
	acc, cur := bufs[0][:0], 0
	for {
		// Sum every monomial within windowBits below frame.
		next, rest := 0, 0
		for i, m := range ms {
			if !live[i] {
				continue
			}
			if ks[i] <= frame-windowBits {
				if rest == 0 || ks[i] > next {
					next = ks[i]
				}
				rest++
				continue
			}
			live[i] = false
			var t2 [4]float64
			var term [8]float64
			p := twoProduct(mant[m.f[0]], mant[m.f[1]])
			n := copy(term[:], p[:])
			if p[0] == 0 {
				term[0], n = p[1], 1
			}
			if degree == 4 {
				n = len(scaleExpansion(scaleExpansion(p[:], mant[m.f[2]], t2[:]), mant[m.f[3]], term[:]))
			}
			scale := math.Ldexp(1, ks[i]-frame)
			if m.neg {
				scale = -scale
			}
			for j := range term[:n] {
				term[j] *= scale // exact: a power of two, and kept above 2⁻¹⁰²²
			}
			cur ^= 1
			acc = sumExpansions(acc, term[:n], bufs[cur][:])
		}
		acc = compress(acc)
		if rest == 0 {
			if len(acc) == 0 {
				return Zero
			}
			return expansionSign(acc)
		}
		// Every monomial left is below 2^(next-frame) in this window's scale.
		bound := float64(rest) * math.Ldexp(1, next-frame)
		if len(acc) > 0 {
			top, others := math.Abs(acc[len(acc)-1]), 0.0
			for _, c := range acc[:len(acc)-1] {
				others += math.Abs(c)
			}
			if top > 2*(bound+others) {
				return expansionSign(acc)
			}
		}
		// The sum is small: carry it into the window at next.
		for j := range acc {
			acc[j] = math.Ldexp(acc[j], frame-next)
		}
		frame = next
	}
}
