package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"realsum/internal/corpus"
	"realsum/internal/inet"
)

// checkAgainstDirect fails unless got has the same positive entries as
// the direct loop's want and lies within 1e-14 of it everywhere.
func checkAgainstDirect(t *testing.T, name string, got, want PMF) {
	t.Helper()
	var worst float64
	for c := range want.P {
		if (got.P[c] > 0) != (want.P[c] > 0) {
			t.Fatalf("%s: support differs at %d: got %g, direct %g", name, c, got.P[c], want.P[c])
		}
		worst = math.Max(worst, math.Abs(got.P[c]-want.P[c]))
	}
	if worst > 1e-14 {
		t.Fatalf("%s: max abs error %g against the direct loop", name, worst)
	}
}

// TestConvolveTransformMatchesDirect is the oracle test of the
// transform path: at power-of-two moduli (cyclic half alone) and odd
// ones (both halves), over supports from a single point to the whole
// group, and through chained powers where one operand is already
// dense.
func TestConvolveTransformMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 1))
	for _, m := range []int{1, 2, 3, 64, 97, 255, 256, 1000, 65535} {
		supports := []int{1, 2, 7, m / 10, m / 2, m}
		if m == 65535 {
			// Each direct step costs support·M; keep the dense end of the
			// range to the small moduli.
			supports = []int{1, 2, 7, 300, 4096}
		}
		for _, sup := range supports {
			if sup < 1 || sup > m {
				continue
			}
			p1 := randomPMF(rng, m, sup)
			q := randomPMF(rng, m, 1+rng.IntN(sup))
			name := fmt.Sprintf("M=%d support=%d", m, sup)
			checkAgainstDirect(t, name+" p⊛q", convolveTransform(p1, q), convolveDirect(p1, q))
			checkAgainstDirect(t, name+" Convolve", p1.Convolve(q), convolveDirect(p1, q))
			got, want := p1, p1
			for k := 2; k <= 5; k++ {
				got = convolveTransform(got, p1)
				want = convolveDirect(want, p1)
				checkAgainstDirect(t, fmt.Sprintf("%s k=%d", name, k), got, want)
			}
		}
	}
}

// TestConvolveExactSupportOnCorpus pins the property Figure 2's v > 0
// filter relies on: on the self-convolution of a real corpus cell
// histogram, the transform path's positive entries are exactly the
// direct loop's.  The first 256 cells give a sumset well short of the
// group, where the mask decides; the whole corpus one that covers it,
// where no true entry may be lost to noise.
func TestConvolveExactSupportOnCorpus(t *testing.T) {
	fs := corpus.StanfordU1().Scale(0.02).Build()
	for _, cells := range []int{256, math.MaxInt} {
		h := NewHistogram()
		err := fs.Walk(func(_ string, data []byte) error {
			for off := 0; off+CellSize <= len(data) && h.Total() < uint64(cells); off += CellSize {
				h.Add(inet.Sum(data[off : off+CellSize]))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		p1 := FromHistogram(h)
		got := p1.Convolve(p1)
		checkAgainstDirect(t, fmt.Sprintf("p1⊛p1 over %d cells", h.Total()), got, convolveDirect(p1, p1))
		if n := nonzeros(got.P); cells == 256 && n*2 > got.M {
			t.Fatalf("support of p1⊛p1 over 256 cells is %d of %d: the mask is not exercised", n, got.M)
		}
	}
}

// TestConvolveDispatch checks that a point mass takes the exact direct
// loop from either side, as ConvolvePow's first step relies on.
func TestConvolveDispatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 2))
	dense := randomPMF(rng, 65535, 20000)
	shifted := PointPMF(65535, 5).Convolve(dense)
	for c := range dense.P {
		if shifted.P[(c+5)%65535] != dense.P[c] {
			t.Fatalf("point mass on the left: entry %d not an exact shift", c)
		}
	}
	if got := dense.Convolve(PointPMF(65535, 0)); !equalPMF(got, dense) {
		t.Fatal("point mass on the right: not an exact identity")
	}
}

func equalPMF(a, b PMF) bool {
	for c := range a.P {
		if a.P[c] != b.P[c] {
			return false
		}
	}
	return true
}
