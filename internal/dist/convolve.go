package dist

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// directCostRatio is c in Convolve's dispatch rule nnz·M ≤ c·N·log₂N.
// The direct loop costs nnz·M multiply-adds; on an Intel Xeon host the
// transform path costs about as much as 8·N·log₂N of them at every M
// from 255 to 65535 (9 ms at M = 65535, where the direct loop spends
// 88 µs per non-zero entry of the sparser operand).
const directCostRatio = 8

// transformSize is N, the smallest power of two ≥ m.
func transformSize(m int) int { return 1 << bits.Len(uint(m-1)) }

// Convolve returns the distribution of X+Y mod M for independent X∼p,
// Y∼q — one step of the §4.4 prediction equation
//
//	P_k(c) = Σ_x P_{k-1}(c−x)·P_1(x)
//
// The work follows the input.  When one operand is sparse enough that
// its nnz non-zero entries cost no more than a transform (nnz·M ≤
// c·N·log₂N, with N the smallest power of two ≥ M), the direct loop
// runs and the result is exact.  Otherwise the convolution runs as a
// pointwise product of Fourier transforms in one N-point complex
// buffer (1 MB at M = 65535), and the result is masked to the exact
// sumset supp(p)+supp(q) mod M with negatives clamped to zero, so
// transform noise never adds or removes a support point.  p and q are
// probabilities: non-negative.
func (p PMF) Convolve(q PMF) PMF {
	if p.M != q.M {
		panic("dist: Convolve modulus mismatch")
	}
	np, nq := nonzeros(p.P), nonzeros(q.P)
	if np < nq {
		p, q, nq = q, p, np
	}
	n := transformSize(p.M)
	if nq*p.M <= directCostRatio*n*bits.Len(uint(n-1)) {
		return convolveDirect(p, q)
	}
	return convolveTransform(p, q)
}

// convolveTransform is the transform path of Convolve; see the split
// below.
func convolveTransform(p, q PMF) PMF {
	n := transformSize(p.M)
	out := NewPMF(p.M)
	buf := make([]complex128, n)
	tw := twiddles(n)
	cyclicHalf(buf, tw, p.P, q.P, out.P)
	if n != p.M {
		negacyclicHalf(buf, tw, p.P, q.P, out.P)
	}
	maskToSumset(out.P, p.P, q.P)
	return out
}

// convolveDirect is the dense O(nnz(q)·M) loop: the exact path for
// sparse inputs and the oracle the transform path is tested against.
func convolveDirect(p, q PMF) PMF {
	m := p.M
	out := NewPMF(m)
	for x, qx := range q.P {
		if qx == 0 {
			continue
		}
		// out[(v+x) mod m] += p[v]·qx, split to avoid the inner mod.
		o := out.P[x:]
		for v := 0; v < m-x; v++ {
			o[v] += p.P[v] * qx
		}
		o = out.P[:x]
		for v := m - x; v < m; v++ {
			o[v-(m-x)] += p.P[v] * qx
		}
	}
	return out
}

func nonzeros(p []float64) int {
	n := 0
	for _, v := range p {
		if v != 0 {
			n++
		}
	}
	return n
}

// The linear convolution L of two length-M sequences has length
// 2M−1 < 2N.  Split at N, L = L_lo + t^N·L_hi, it is recovered from
// its cyclic image C = L_lo + L_hi (mod t^N − 1) and its negacyclic
// image D = L_lo − L_hi (mod t^N + 1):
//
//	L_lo = (C + D)/2,  L_hi = (C − D)/2
//
// and out[c] = Σ L[c + jM].  Each half below adds its share of L
// straight into out, so neither C nor D is ever stored.  When M = N the
// cyclic image is already the answer and the negacyclic half is
// skipped.

// cyclicHalf adds C/2 to L_lo and L_hi.  p and q ride one transform
// as z = p + i·q; with Z its spectrum, P_k = (Z_k + conj Z_{N−k})/2
// and Q_k = (Z_k − conj Z_{N−k})/2i, and the product's inverse is
// taken as a forward transform of its conjugate.
func cyclicHalf(buf, tw []complex128, p, q, out []float64) {
	n, m := len(buf), len(out)
	for j := range buf {
		if j < m {
			buf[j] = complex(p[j], q[j])
		} else {
			buf[j] = 0
		}
	}
	fft(buf, tw)
	for k := 0; k <= n/2; k++ {
		nk := (n - k) & (n - 1)
		zk, zn := buf[k], cmplx.Conj(buf[nk])
		w := (zk + zn) * (zk - zn) * complex(0, -0.25)
		buf[k], buf[nk] = cmplx.Conj(w), w
	}
	fft(buf, tw)
	scale := 0.5 / float64(n)
	for j, z := range buf {
		v := real(z) * scale
		out[j%m] += v
		out[(j+n)%m] += v
	}
}

// negacyclicHalf adds D/2 to L_lo and −D/2 to L_hi.  Modulo
// t^{N/2} − i, a real polynomial x reduces to x_lo + i·x_hi; weighting
// coefficient j by θ^j with θ = e^{iπ/N} (θ^{N/2} = i) turns that
// modulus into s^{N/2} − 1, a cyclic convolution of length N/2.  The
// two weighted operands fill the two halves of buf.
func negacyclicHalf(buf, tw []complex128, p, q, out []float64) {
	n, m := len(buf), len(out)
	h := n / 2
	a, b := buf[:h], buf[h:]
	at := func(x []float64, j int) float64 {
		if j < len(x) {
			return x[j]
		}
		return 0
	}
	// θ^j for even j is conj(tw[j/2]); odd j take one more factor θ.
	s1, c1 := math.Sincos(math.Pi / float64(n))
	theta := func(j int) complex128 {
		w := cmplx.Conj(tw[j/2])
		if j&1 == 1 {
			w *= complex(c1, s1)
		}
		return w
	}
	for j := 0; j < h; j++ {
		w := theta(j)
		a[j] = complex(at(p, j), at(p, j+h)) * w
		b[j] = complex(at(q, j), at(q, j+h)) * w
	}
	fft(a, tw)
	fft(b, tw)
	for k := range a {
		a[k] = cmplx.Conj(a[k] * b[k])
	}
	fft(a, tw)
	// a[j]·θ^j = conj(h·(D[j] + i·D[j+h])).
	scale := 0.5 / float64(h)
	for j := 0; j < h; j++ {
		r := a[j] * theta(j)
		lo, hi := real(r)*scale, -imag(r)*scale
		out[j%m] += lo
		out[(j+n)%m] -= lo
		out[(j+h)%m] += hi
		out[(j+h+n)%m] -= hi
	}
}

// twiddles returns e^{−2πik/n} for k < n/4, the first quarter turn;
// the second is the first turned by −i.
func twiddles(n int) []complex128 {
	tw := make([]complex128, n/4)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, s)
	}
	return tw
}

// fftBlock is the span, in points, over which fft runs all of its
// small stages before moving on: 32 KB, so they stay in the L1 cache.
const fftBlock = 2048

// fft replaces a with its discrete Fourier transform
// a_k ← Σ_j a_j·e^{−2πijk/len(a)}, radix-2 and in place.  len(a) is a
// power of two dividing 4·len(tw), or at most 4.
func fft(a, tw []complex128) {
	n := len(a)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	if n == 2 {
		a[0], a[1] = a[0]+a[1], a[0]-a[1]
		return
	}
	blk := min(n, fftBlock)
	for b := 0; b < n; b += blk {
		butterflies(a[b:b+blk], tw, 4, blk)
	}
	butterflies(a, tw, 2*blk, n)
}

// butterflies runs the radix-2 stages of sizes from through to over
// every aligned group of a; from is 4 or more.
func butterflies(a, tw []complex128, from, to int) {
	if from == 4 {
		// The first two stages have twiddles 1 and −i: one radix-4 pass.
		for s := 0; s+3 < len(a); s += 4 {
			x0, x1, x2, x3 := a[s], a[s+1], a[s+2], a[s+3]
			e0, e1 := x0+x1, x0-x1
			o0, o1 := x2+x3, x2-x3
			o1 = complex(imag(o1), -real(o1))
			a[s], a[s+2] = e0+o0, e0-o0
			a[s+1], a[s+3] = e1+o1, e1-o1
		}
		from = 8
	}
	// Twiddle k of a size-s stage is e^{−2πik/s}: tw[k·step] in the
	// stage's first half and −i times tw[(k−s/4)·step] in its second.
	for size := from; size <= to; size <<= 1 {
		half, step := size/2, 4*len(tw)/size
		for s := 0; s < len(a); s += size {
			lo, hi := a[s:s+half], a[s+half:s+size]
			hi = hi[:len(lo)]
			q := half / 2
			for k := 0; k < q; k++ {
				t := hi[k] * tw[k*step]
				hi[k] = lo[k] - t
				lo[k] += t
			}
			for k := q; k < half; k++ {
				t := hi[k] * tw[(k-q)*step]
				t = complex(imag(t), -real(t))
				hi[k] = lo[k] - t
				lo[k] += t
			}
		}
	}
}

// maskToSumset zeroes every entry of out outside supp(p)+supp(q) mod
// M and clamps the rest at zero.  The sumset is built as a bitset: one
// rotate-OR of supp(p) per support point of q, read as unaligned words
// from supp(p) written out twice, and stopped early once every residue
// is covered.
func maskToSumset(out, p, q []float64) {
	m := len(out)
	dbl := make([]uint64, (2*m+63)/64+1)
	for x, v := range p {
		if v != 0 {
			dbl[x>>6] |= 1 << (x & 63)
			dbl[(x+m)>>6] |= 1 << ((x + m) & 63)
		}
	}
	set := make([]uint64, (m+63)/64)
	last := ^uint64(0) >> (uint(-m) & 63) // valid bits of set's last word
	seen := 0
	for y, v := range q {
		if v == 0 {
			continue
		}
		// Bit c of the rotation is supp(p) ∋ c−y mod M, i.e. bit c+M−y
		// of dbl.  A shift by 64 yields 0, so s = 0 needs no branch.
		for w := range set {
			off := w*64 + m - y
			i, s := off>>6, uint(off&63)
			set[w] |= dbl[i]>>s | dbl[i+1]<<(64-s)
		}
		if seen++; seen&63 == 0 && full(set, last) {
			break
		}
	}
	for c, v := range out {
		if v < 0 || set[c>>6]&(1<<(c&63)) == 0 {
			out[c] = 0
		}
	}
}

func full(set []uint64, last uint64) bool {
	for _, w := range set[:len(set)-1] {
		if w != ^uint64(0) {
			return false
		}
	}
	return set[len(set)-1]&last == last
}
