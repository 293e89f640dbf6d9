package dist

// PMF is a probability mass function over ℤ/M — the residue arithmetic
// in which the paper's checksum distributions live.  Normalized
// ones-complement 16-bit sums form ℤ/65535 (0x0000 and 0xFFFF are the
// same residue), each Fletcher component lives in ℤ/255 or ℤ/256, so M
// is a parameter.
type PMF struct {
	M int
	P []float64
}

// NewPMF returns the all-zero mass function over ℤ/m (not a valid
// distribution until filled).
func NewPMF(m int) PMF {
	if m < 1 {
		panic("dist: PMF modulus must be positive")
	}
	return PMF{M: m, P: make([]float64, m)}
}

// UniformPMF returns the uniform distribution over ℤ/m.
func UniformPMF(m int) PMF {
	p := NewPMF(m)
	for i := range p.P {
		p.P[i] = 1 / float64(m)
	}
	return p
}

// PointPMF returns the distribution concentrated at v mod m.
func PointPMF(m, v int) PMF {
	p := NewPMF(m)
	p.P[((v%m)+m)%m] = 1
	return p
}

// FromHistogram converts a 16-bit checksum histogram into a PMF over
// ℤ/65535 (the normalized ones-complement residues).  Bucket 0xFFFF is
// empty by construction.
func FromHistogram(h *Histogram) PMF {
	p := NewPMF(65535)
	if h.total == 0 {
		return p
	}
	t := float64(h.total)
	for v, c := range h.counts {
		if c > 0 {
			p.P[v] += float64(c) / t
		}
	}
	return p
}

// ConvolvePow returns the distribution of the sum of k independent
// draws from p (k ≥ 1), via binary powering.
func (p PMF) ConvolvePow(k int) PMF {
	if k < 1 {
		panic("dist: ConvolvePow needs k >= 1")
	}
	result := PointPMF(p.M, 0)
	base := p
	for k > 0 {
		if k&1 == 1 {
			result = result.Convolve(base)
		}
		k >>= 1
		if k > 0 {
			base = base.Convolve(base)
		}
	}
	return result
}

// PMax returns the largest point mass.
func (p PMF) PMax() float64 {
	max := 0.0
	for _, v := range p.P {
		if v > max {
			max = v
		}
	}
	return max
}

// PMin returns the smallest point mass (including zeros).
func (p PMF) PMin() float64 {
	if len(p.P) == 0 {
		return 0
	}
	min := p.P[0]
	for _, v := range p.P[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// SelfMatch returns Σp² — the probability two independent draws from p
// are equal.  With p the k-fold convolution power of the measured
// single-cell distribution this is the "Predicted" column of Tables 4
// and 6; those tables take it for every k at once from
// SelfMatchPowers, which is tested against SelfMatch of the Convolve
// chain.
func (p PMF) SelfMatch() float64 {
	var s float64
	for _, v := range p.P {
		s += v * v
	}
	return s
}

// OffsetMatch returns P(X − Y ≡ c mod M) for independent X, Y ∼ p.
// Lemma 9: for every c this is at most SelfMatch.
func (p PMF) OffsetMatch(c int) float64 {
	m := p.M
	c = ((c % m) + m) % m
	var s float64
	for v, pv := range p.P {
		if pv == 0 {
			continue
		}
		y := v - c
		if y < 0 {
			y += m
		}
		s += pv * p.P[y]
	}
	return s
}

// TotalMass returns Σp — 1.0 for a valid distribution, up to float
// error.
func (p PMF) TotalMass() float64 {
	var s float64
	for _, v := range p.P {
		s += v
	}
	return s
}
