package gf2poly

import (
	"fmt"
	"math"
	"sort"
)

// This file computes the low tail of a CRC generator's weight spectrum —
// the number of weight-2 and weight-3 error polynomials of a given
// message length the CRC fails to detect — plus the classical burst
// coverage.  These are the analytic inputs to the polynomial census: on
// a binary symmetric channel with small flip probability p, P_ud is
// dominated by A2·p² + A3·p³ where A2/A3 are exactly the counts below,
// and the 5G NR selection papers rank candidates by where those counts
// first become nonzero (the Hamming-distance profile).

// XPowerResidues returns x^0, x^1, …, x^(n−1) reduced mod g, each packed
// into a uint64 (bit i = coefficient of x^i).  It panics if g's degree
// is outside 1..64.  An error polynomial Σ x^i is undetected exactly
// when the XOR of the corresponding residues is zero, so this table
// turns spectrum questions into word operations.
func XPowerResidues(g Poly, n int) []uint64 {
	w, low := packedGenerator(g, "XPowerResidues")
	out := make([]uint64, n)
	r := uint64(1) // x^0 mod g, already reduced since w ≥ 1
	for i := 0; i < n; i++ {
		out[i] = r
		r = mulX(r, w, low)
	}
	return out
}

// XOrder is OrderOfX for generators of degree 1..64 on packed words,
// by baby-step/giant-step: about 2·√limit multiplications and a
// √limit-entry table instead of up to limit steps, so horizons in the
// millions (the full period of a 24-bit generator) cost a few thousand
// steps.  Returns 0 if x is not invertible mod g or the order exceeds
// limit.
func XOrder(g Poly, limit uint64) uint64 {
	w, low := packedGenerator(g, "XOrder")
	if !g.Bit(0) || limit == 0 {
		return 0
	}
	// Baby steps: x^j for 0 ≤ j < m, each residue keeping its largest j.
	m := uint64(math.Ceil(math.Sqrt(float64(limit))))
	baby := make(map[uint64]uint64, m)
	r := uint64(1)
	for j := uint64(0); j < m; j++ {
		baby[r] = j
		r = mulX(r, w, low)
	}
	// Giant steps: x^(i·m) = x^j means x^(i·m−j) = 1.  The largest such
	// j gives the smallest exponent in ((i−1)·m, i·m], and every smaller
	// one would have hit at an earlier i, so the first hit is the order.
	// r = x^m now.
	step, y := r, uint64(1)
	for i := uint64(1); (i-1)*m < limit; i++ {
		y = mulMod(y, step, w, low)
		if j, ok := baby[y]; ok {
			if e := i*m - j; e <= limit {
				return e
			}
			return 0
		}
	}
	return 0
}

// xOrderLinear is XOrder by direct iteration of x^e for e = 1..limit —
// the test oracle for the baby-step/giant-step search.
func xOrderLinear(g Poly, limit uint64) uint64 {
	w, low := packedGenerator(g, "XOrder")
	if !g.Bit(0) {
		return 0
	}
	r := uint64(1)
	for e := uint64(1); e <= limit; e++ {
		if r = mulX(r, w, low); r == 1 {
			return e
		}
	}
	return 0
}

// packedGenerator returns g's degree and g minus its leading x^w term
// as a word, panicking (in caller's name) outside degrees 1..64.
func packedGenerator(g Poly, caller string) (w int, low uint64) {
	w = g.Degree()
	if w < 1 || w > 64 {
		panic(fmt.Sprintf("gf2poly: %s needs degree 1..64, got %d", caller, w))
	}
	for i := 0; i < w && i < 64; i++ {
		if g.Bit(i) {
			low |= 1 << uint(i)
		}
	}
	return w, low
}

// mulX returns r·x mod g for a packed residue r of the degree-w
// generator whose low terms are low.
func mulX(r uint64, w int, low uint64) uint64 {
	if w == 64 {
		hi := r>>63 != 0
		r <<= 1
		if hi {
			r ^= low
		}
		return r
	}
	r <<= 1
	if r>>uint(w)&1 == 1 {
		r ^= low | 1<<uint(w)
	}
	return r
}

// mulMod returns a·b mod g for packed residues, shift-and-add over b's
// bits.
func mulMod(a, b uint64, w int, low uint64) uint64 {
	var r uint64
	for ; b != 0; b >>= 1 {
		if b&1 != 0 {
			r ^= a
		}
		a = mulX(a, w, low)
	}
	return r
}

// UndetectedWeight2 returns A2: the number of weight-2 error polynomials
// spanning a message of nBits bits (bit positions 0..nBits−1) that a CRC
// with generator g fails to detect.  A pair {i, j} is undetected iff
// x^i + x^j ≡ 0 (mod g), i.e. the two positions share a residue.
func UndetectedWeight2(g Poly, nBits int) uint64 {
	res := XPowerResidues(g, nBits)
	counts := make(map[uint64]uint64, nBits)
	for _, r := range res {
		counts[r]++
	}
	var a2 uint64
	for _, c := range counts {
		a2 += c * (c - 1) / 2
	}
	return a2
}

// UndetectedWeight3 returns A3: the number of weight-3 error polynomials
// over nBits bit positions that g fails to detect — triples {i, j, k}
// with x^i + x^j + x^k ≡ 0 (mod g).  Runs in O(n² log n) time and O(n)
// memory via an index table: for each pair j < k it counts the earlier
// positions whose residue equals r_j ⊕ r_k.
func UndetectedWeight3(g Poly, nBits int) uint64 {
	res := XPowerResidues(g, nBits)
	idx := make(map[uint64][]int, nBits)
	for i, r := range res {
		idx[r] = append(idx[r], i)
	}
	var a3 uint64
	for j := 1; j < nBits; j++ {
		rj := res[j]
		for k := j + 1; k < nBits; k++ {
			positions := idx[rj^res[k]]
			if len(positions) == 0 {
				continue
			}
			a3 += uint64(sort.SearchInts(positions, j))
		}
	}
	return a3
}

// UndetectedBurstFraction returns the fraction of burst errors of exact
// span b bits (first and last bit of the span flipped, interior bits
// arbitrary) that a degree-w generator with a nonzero constant term
// fails to detect: 0 for b ≤ w, 2^−(w−1) at b = w+1 (the burst is
// undetected only when its interior matches a shift of g), and 2^−w
// beyond.  This is the classical result §2 of the paper quotes as
// "detects all bursts shorter than the CRC width".
func UndetectedBurstFraction(g Poly, b int) float64 {
	w := g.Degree()
	if w < 1 || !g.Bit(0) {
		panic("gf2poly: burst coverage needs a generator with x^0 and degree ≥ 1")
	}
	switch {
	case b <= w:
		return 0
	case b == w+1:
		return math.Ldexp(1, -(w - 1))
	default:
		return math.Ldexp(1, -w)
	}
}
