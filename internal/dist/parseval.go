package dist

import (
	"math"
	"math/cmplx"
)

// SelfMatchPowers returns SelfMatch(p^{*k}) for k = 1..K in out[k−1],
// where p^{*k} is the k-fold convolution power of p over ℤ/M: the
// Predicted columns of Tables 4 and 6.  By Parseval's identity
//
//	Σ_c p^{*k}(c)² = (1/M)·Σ_f |P̂(f)|^{2k}
//
// with P̂ the length-M DFT of p, so one transform serves every k.  This
// is the §4.4 prediction equation read in the frequency domain, and
// Appendix Theorem 4 is the same picture: |P̂(f)| < 1 for f ≠ 0 drives
// the sum to 1/M as k grows.
func SelfMatchPowers(p PMF, K int) []float64 {
	out := make([]float64, K)
	for _, z := range dftUnordered(p.P) {
		a := real(z)*real(z) + imag(z)*imag(z)
		v := a
		for k := range out {
			out[k] += v
			v *= a
		}
	}
	for k := range out {
		out[k] /= float64(p.M)
	}
	return out
}

// dftUnordered returns the length-M DFT of x, up to a permutation of
// the frequencies and a unit-modulus factor on each, neither of which
// a sum of |X_f|^{2k} can see.  It is the Good–Thomas prime-factor
// algorithm: with M = m1·m2 and gcd(m1, m2) = 1, loading
//
//	buf[n1·m2 + n2] = x[(n1·m2 + n2·m1) mod M]
//
// turns the DFT into m1 row DFTs of length m2 followed by m2 column
// DFTs of length m1, with no twiddles between the stages; by the
// Chinese remainder theorem the result is X at frequency
// (k1·m2·(m2⁻¹ mod m1) + k2·m1·(m1⁻¹ mod m2)) mod M.  The one M-point
// buffer (1 MB at M = 65535) is the only large allocation; each small
// DFT runs on a dftPlan of at most a few tens of KB.
func dftUnordered(x []float64) []complex128 {
	m := len(x)
	m1, m2 := coprimeSplit(m)
	buf := make([]complex128, m)
	for n1 := 0; n1 < m1; n1++ {
		row := buf[n1*m2 : (n1+1)*m2]
		j := n1 * m2
		for n2 := range row {
			row[n2] = complex(x[j], 0)
			if j += m1; j >= m {
				j -= m
			}
		}
	}
	if m2 > 1 {
		pl := newDFTPlan(m2)
		for n1 := 0; n1 < m1; n1++ {
			pl.dft(buf[n1*m2:], 1)
		}
	}
	if m1 > 1 {
		pl := newDFTPlan(m1)
		for n2 := 0; n2 < m2; n2++ {
			pl.dft(buf[n2:], m2)
		}
	}
	return buf
}

// coprimeSplit returns M = m1·m2 with gcd(m1, m2) = 1 and m1 the
// largest such factor not above √M: 65535 = 255·257, 255 = 15·17, and
// a prime power such as 256 = 1·256.
func coprimeSplit(m int) (m1, m2 int) {
	m1 = 1
	for d := 2; d*d <= m; d++ {
		if m%d == 0 && gcd(d, m/d) == 1 {
			m1 = d
		}
	}
	return m1, m / m1
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// dftPlan computes length-L DFTs on the radix-2 fft by Bluestein's
// chirp-z identity jk = (j² + k² − (k−j)²)/2, which makes the DFT a
// chirp-weighted cyclic convolution of length N ≥ 2L−1, N a power of
// two.
type dftPlan struct {
	chirp []complex128 // e^{−iπj²/L} for j < L
	spec  []complex128 // FFT of the conjugate chirp, wrapped to N points, over N
	work  []complex128 // N-point scratch
	tw    []complex128 // fft twiddles for N
}

func newDFTPlan(l int) *dftPlan {
	n := transformSize(2*l - 1)
	pl := &dftPlan{
		chirp: make([]complex128, l),
		spec:  make([]complex128, n),
		work:  make([]complex128, n),
		tw:    twiddles(n),
	}
	for j := range pl.chirp {
		// j² mod 2L keeps the angle exact for large j.
		s, c := math.Sincos(-math.Pi * float64(j*j%(2*l)) / float64(l))
		pl.chirp[j] = complex(c, s)
		pl.spec[j] = complex(c, -s) / complex(float64(n), 0)
		if j > 0 {
			pl.spec[n-j] = pl.spec[j]
		}
	}
	fft(pl.spec, pl.tw)
	return pl
}

// dft replaces x[0], x[s], …, x[(L−1)·s] with their DFT X_k, each
// times e^{iπk²/L}.  dftUnordered can leave that factor in place: after
// the row stage it depends only on the column, so it scales each
// column's DFT by one unit-modulus constant, and after the column stage
// only |X_f| is read.
func (pl *dftPlan) dft(x []complex128, s int) {
	w := pl.work
	for j, c := range pl.chirp {
		w[j] = x[j*s] * c
	}
	clear(w[len(pl.chirp):])
	fft(w, pl.tw)
	for k, b := range pl.spec {
		w[k] = cmplx.Conj(w[k] * b)
	}
	// A forward transform of the conjugate is the conjugate inverse.
	fft(w, pl.tw)
	for k := range pl.chirp {
		x[k*s] = cmplx.Conj(w[k])
	}
}
