package gf2poly

import (
	"math/bits"
	"testing"
)

// censusGenerators is the polynomial-census slate in (width, Rocksoft
// normal poly) form — duplicated here from internal/crc rather than
// imported, so the algebra is pinned independently of the CRC engine.
var censusGenerators = []struct {
	name  string
	width uint8
	poly  uint64
}{
	{"CRC-32", 32, 0x04C11DB7},
	{"CRC-32C", 32, 0x1EDC6F41},
	{"CRC-32K", 32, 0x741B8CD7},
	{"CRC-32K2", 32, 0x32583499},
	{"CRC-24/A", 24, 0x864CFB},
	{"CRC-24/B", 24, 0x800063},
	{"CRC-24/C", 24, 0xB2B117},
	{"CRC-16/XMODEM", 16, 0x1021},
	{"CRC-11/NR", 11, 0x621},
	{"CRC-6/NR", 6, 0x21},
}

// TestXPowerResiduesMatchExpMod pins the packed-word residue fast path
// against the generic ExpMod square-and-multiply path.
func TestXPowerResiduesMatchExpMod(t *testing.T) {
	for _, g := range censusGenerators {
		gen := FromCRC(g.poly, g.width)
		res := XPowerResidues(gen, 200)
		for i, r := range res {
			want := ExpMod(uint64(i), gen)
			got := Poly{}
			if r != 0 {
				got = FromWords([]uint64{r})
			}
			if !got.Equal(want) {
				t.Fatalf("%s: x^%d mod g: residues gave %v, ExpMod gave %v", g.name, i, got, want)
			}
		}
	}
}

// enumerated counts all weight-2 and weight-3 error polynomials over
// nBits ≤ 64 positions that g fails to detect, using the generic
// Poly.Mod path — a brute-force oracle independent of XPowerResidues.
func enumerated(g Poly, nBits int) (a2, a3 uint64) {
	for i := 0; i < nBits; i++ {
		for j := i + 1; j < nBits; j++ {
			e2 := Monomial(i).Add(Monomial(j))
			if e2.Mod(g).IsZero() {
				a2++
			}
			for k := j + 1; k < nBits; k++ {
				if e2.Add(Monomial(k)).Mod(g).IsZero() {
					a3++
				}
			}
		}
	}
	return a2, a3
}

// TestSpectrumMatchesExhaustiveEnumeration cross-checks the analytic A2
// and A3 counters against exhaustive enumeration of every weight-≤3
// error polynomial at message lengths up to 64 bits.  Short generators
// (CRC-6, CRC-11) actually have nonzero counts in this range, so the
// test exercises both the zero and nonzero paths.
func TestSpectrumMatchesExhaustiveEnumeration(t *testing.T) {
	for _, g := range censusGenerators {
		gen := FromCRC(g.poly, g.width)
		for _, nBits := range []int{8, 33, 64} {
			wantA2, wantA3 := enumerated(gen, nBits)
			if gotA2 := UndetectedWeight2(gen, nBits); gotA2 != wantA2 {
				t.Errorf("%s nBits=%d: UndetectedWeight2 = %d, enumeration = %d", g.name, nBits, gotA2, wantA2)
			}
			if gotA3 := UndetectedWeight3(gen, nBits); gotA3 != wantA3 {
				t.Errorf("%s nBits=%d: UndetectedWeight3 = %d, enumeration = %d", g.name, nBits, gotA3, wantA3)
			}
		}
	}
}

// TestSpectrumRandomGenerators fuzzes the A2/A3 counters against the
// enumeration oracle over random odd generators, where residue
// collisions are plentiful.
func TestSpectrumRandomGenerators(t *testing.T) {
	rng := splitmix(0x5eed)
	for trial := 0; trial < 40; trial++ {
		width := 2 + int(rng()%9) // degree 2..10: dense collision regime
		poly := (rng() | 1) & (1<<uint(width) - 1)
		gen := FromCRC(poly, uint8(width))
		nBits := 4 + int(rng()%45)
		wantA2, wantA3 := enumerated(gen, nBits)
		if gotA2 := UndetectedWeight2(gen, nBits); gotA2 != wantA2 {
			t.Fatalf("w=%d poly=%#x n=%d: A2 = %d, want %d", width, poly, nBits, gotA2, wantA2)
		}
		if gotA3 := UndetectedWeight3(gen, nBits); gotA3 != wantA3 {
			t.Fatalf("w=%d poly=%#x n=%d: A3 = %d, want %d", width, poly, nBits, gotA3, wantA3)
		}
	}
}

func splitmix(seed uint64) func() uint64 {
	return func() uint64 {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
}

// TestXOrderMatchesOrderOfX pins the packed-word order loop against the
// generic MulMod-based OrderOfX, over random generators (dense collision
// regime, including degree 1) and the census slate.
func TestXOrderMatchesOrderOfX(t *testing.T) {
	rng := splitmix(0xabc)
	for trial := 0; trial < 50; trial++ {
		width := 1 + int(rng()%10)
		poly := (rng() | 1) & (1<<uint(width) - 1)
		gen := FromCRC(poly, uint8(width))
		if got, want := XOrder(gen, 5000), OrderOfX(gen, 5000); got != want {
			t.Fatalf("w=%d poly=%#x: XOrder=%d, OrderOfX=%d", width, poly, got, want)
		}
	}
	for _, g := range censusGenerators {
		gen := FromCRC(g.poly, g.width)
		if got, want := XOrder(gen, 4096), OrderOfX(gen, 4096); got != want {
			t.Errorf("%s: XOrder=%d, OrderOfX=%d", g.name, got, want)
		}
	}
}

// TestXOrderMatchesLinearScan pins the baby-step/giant-step search
// against the direct iteration it replaced: every census generator at
// the census horizon 2^24 and at 2^10 (below the orders of the wide
// generators), and random generators of degree 1–20 — even ones
// included, whose x is not invertible — under random limits that fall
// on both sides of their orders, plus the limits just below, at and
// above an order where the search's interval arithmetic could slip.
func TestXOrderMatchesLinearScan(t *testing.T) {
	for _, g := range censusGenerators {
		gen := FromCRC(g.poly, g.width)
		for _, limit := range []uint64{1 << 10, 1 << 24} {
			if got, want := XOrder(gen, limit), xOrderLinear(gen, limit); got != want {
				t.Errorf("%s limit %d: XOrder=%d, linear scan=%d", g.name, limit, got, want)
			}
		}
	}
	rng := splitmix(0x5eed)
	for trial := 0; trial < 3000; trial++ {
		width := 1 + int(rng()%20)
		poly := rng() & (1<<uint(width) - 1)
		gen := FromCRC(poly, uint8(width))
		limit := rng() % (2 << uint(width))
		if got, want := XOrder(gen, limit), xOrderLinear(gen, limit); got != want {
			t.Fatalf("w=%d poly=%#x limit %d: XOrder=%d, linear scan=%d", width, poly, limit, got, want)
		}
		if ord := xOrderLinear(gen, 2<<uint(width)); ord > 0 {
			for _, limit := range []uint64{ord - 1, ord, ord + 1} {
				if got, want := XOrder(gen, limit), xOrderLinear(gen, limit); got != want {
					t.Fatalf("w=%d poly=%#x limit %d (order %d): XOrder=%d, linear scan=%d",
						width, poly, limit, ord, got, want)
				}
			}
		}
	}
}

// TestOrderConsistency pins, for every census generator, the three
// statements of the same fact against each other: OrderOfX,
// Detects2BitErrors, and A2 (a 2-bit error at spacing d is undetected
// iff ord(x) divides d).
func TestOrderConsistency(t *testing.T) {
	const horizon = 1 << 16
	for _, g := range censusGenerators {
		gen := FromCRC(g.poly, g.width)
		ord := OrderOfX(gen, horizon)
		for _, nBits := range []int{64, 1024, 2048} {
			a2 := UndetectedWeight2(gen, nBits)
			maxSpacing := uint64(nBits - 1)
			detects := Detects2BitErrors(gen, maxSpacing)
			if detects != (a2 == 0) {
				t.Errorf("%s nBits=%d: Detects2BitErrors=%v but A2=%d", g.name, nBits, detects, a2)
			}
			if ord != 0 && ord <= maxSpacing {
				// Closed form: Σ over multiples m of ord with m ≤ nBits−1
				// of (nBits − m) undetected pairs.
				var want uint64
				for m := ord; m <= maxSpacing; m += ord {
					want += uint64(nBits) - m
				}
				if a2 != want {
					t.Errorf("%s nBits=%d: A2=%d, order closed form gives %d (ord=%d)", g.name, nBits, a2, want, ord)
				}
			} else if a2 != 0 {
				t.Errorf("%s nBits=%d: ord(x) > %d yet A2=%d", g.name, nBits, horizon, a2)
			}
		}
	}
}

// TestBurstFraction pins the closed-form burst coverage against direct
// enumeration of every burst pattern at small widths: a burst of exact
// span b is x^i·(1 + interior + x^(b−1)), undetected iff divisible by g.
func TestBurstFraction(t *testing.T) {
	for _, g := range []struct {
		width uint8
		poly  uint64
	}{{6, 0x21}, {8, 0x07}, {10, 0x233}} {
		gen := FromCRC(g.poly, g.width)
		w := gen.Degree()
		for b := 2; b <= w+3; b++ {
			interiorBits := b - 2
			total := uint64(1) << uint(interiorBits)
			var undetected uint64
			for interior := uint64(0); interior < total; interior++ {
				e := Monomial(0).Add(Monomial(b - 1))
				for i := 0; i < interiorBits; i++ {
					if interior>>uint(i)&1 == 1 {
						e = e.Add(Monomial(i + 1))
					}
				}
				if e.Mod(gen).IsZero() {
					undetected++
				}
			}
			got := UndetectedBurstFraction(gen, b)
			want := float64(undetected) / float64(total)
			if got != want {
				t.Errorf("w=%d b=%d: UndetectedBurstFraction=%g, enumeration=%g (%d/%d)", w, b, got, want, undetected, total)
			}
		}
	}
}

// TestCensusGeneratorProperties pins the algebraic profile of each
// census generator: degree, (x+1) divisibility, and that the Koopman
// polynomials differ from IEEE in exactly the way they were selected
// for (order of x, hence 2-bit coverage horizon).
func TestCensusGeneratorProperties(t *testing.T) {
	for _, g := range censusGenerators {
		gen := FromCRC(g.poly, g.width)
		if got := gen.Degree(); got != int(g.width) {
			t.Errorf("%s: degree %d, want %d", g.name, got, g.width)
		}
		if gen.Weight()%2 == 0 != DetectsOddErrors(gen) {
			// (x+1) | g iff g has even weight.
			t.Errorf("%s: odd-error coverage disagrees with weight parity (weight %d)", g.name, gen.Weight())
		}
		if bits.OnesCount64(g.poly)+1 != gen.Weight() {
			t.Errorf("%s: FromCRC dropped terms: poly weight %d+1, generator weight %d", g.name, bits.OnesCount64(g.poly), gen.Weight())
		}
	}
}
