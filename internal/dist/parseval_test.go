package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"realsum/internal/corpus"
	"realsum/internal/inet"
)

// chainSelfMatch is the oracle SelfMatchPowers replaced: SelfMatch of
// p, p⊛p, … up to the K-fold convolution power, one Convolve per step.
func chainSelfMatch(p PMF, K int) []float64 {
	out := make([]float64, K)
	pk := p
	for k := range out {
		if k > 0 {
			pk = pk.Convolve(p)
		}
		out[k] = pk.SelfMatch()
	}
	return out
}

func checkSelfMatchPowers(t *testing.T, name string, p PMF) {
	t.Helper()
	const K = 5
	got, want := SelfMatchPowers(p, K), chainSelfMatch(p, K)
	for k := range want {
		if rel := math.Abs(got[k]-want[k]) / want[k]; !(rel <= 1e-9) {
			t.Errorf("%s k=%d: SelfMatchPowers %.17g, Convolve chain %.17g (rel err %g)",
				name, k+1, got[k], want[k], rel)
		}
	}
}

// TestSelfMatchPowersMatchesConvolveChain is the differential test of
// the Parseval path against the convolution chain, for k = 1..5: at
// M = 65535 (Good–Thomas 255·257), 255 (15·17) and 256 (one 256-point
// plan), plus the small moduli 1, 2, 3, 12, 97 and 1000, over supports
// from a point to the whole group.  Every length, a power of two or
// not, runs on the Bluestein plan.
func TestSelfMatchPowersMatchesConvolveChain(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 1))
	for _, m := range []int{1, 2, 3, 12, 97, 255, 256, 1000, 65535} {
		for _, sup := range []int{1, 2, 7, m / 10, m / 2, m} {
			if sup < 1 || sup > m {
				continue
			}
			checkSelfMatchPowers(t, fmt.Sprintf("M=%d support=%d", m, sup), randomPMF(rng, m, sup))
		}
	}
}

// TestSelfMatchPowersOnCorpus runs the same comparison on the
// distribution Tables 4 and 6 feed it: the single-cell PMF of a real
// corpus, over ℤ/65535.
func TestSelfMatchPowersOnCorpus(t *testing.T) {
	fs := corpus.StanfordU1().Scale(0.05).Build()
	h := NewHistogram()
	err := fs.Walk(func(_ string, data []byte) error {
		for off := 0; off+CellSize <= len(data); off += CellSize {
			h.Add(inet.Sum(data[off : off+CellSize]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSelfMatchPowers(t, "smeg:/u1 p1", FromHistogram(h))
}

// TestCoprimeSplit pins the factorizations the transform relies on.
func TestCoprimeSplit(t *testing.T) {
	for _, c := range []struct{ m, m1, m2 int }{
		{65535, 255, 257}, {255, 15, 17}, {256, 1, 256}, {257, 1, 257}, {12, 3, 4}, {1, 1, 1},
	} {
		if m1, m2 := coprimeSplit(c.m); m1 != c.m1 || m2 != c.m2 {
			t.Errorf("coprimeSplit(%d) = %d·%d, want %d·%d", c.m, m1, m2, c.m1, c.m2)
		}
	}
}

func BenchmarkSelfMatchPowers(b *testing.B) {
	p := randomPMF(rand.New(rand.NewPCG(17, 2)), 65535, 13000)
	b.ReportAllocs()
	for b.Loop() {
		SelfMatchPowers(p, 5)
	}
}

func BenchmarkSelfMatchChain(b *testing.B) {
	p := randomPMF(rand.New(rand.NewPCG(17, 2)), 65535, 13000)
	b.ReportAllocs()
	for b.Loop() {
		chainSelfMatch(p, 5)
	}
}
