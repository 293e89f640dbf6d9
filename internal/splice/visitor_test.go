package splice

import (
	"math/rand/v2"
	"testing"

	"realsum/internal/tcpip"
)

func TestVisitPairMatchesEnumerate(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	cfg := Config{Opts: tcpip.BuildOptions{}, CheckCRC: true}
	flow := tcpip.NewLoopbackFlow(cfg.Opts)
	p1 := flow.NextPacket(nil, makePayload(rng, 200, 4))
	p2 := flow.NextPacket(nil, makePayload(rng, 200, 4))

	want := EnumeratePair(p1, p2, cfg)

	var visited Counts
	got := VisitPair(p1, p2, cfg, false, func(s Splice) {
		tallySplice(t, &visited, s)
	})
	visited.Pairs = got.Pairs

	if got != want {
		t.Errorf("VisitPair counts:\n got %+v\nwant %+v", got, want)
	}
	if visited != want {
		t.Errorf("visited reconstruction:\n got %+v\nwant %+v", visited, want)
	}
}

// tallySplice adds one visited splice to c the way the enumerator
// counts it, so a visitor's tally must equal the Counts VisitPair
// returns (Pairs excepted).  It also checks the splice's provenance:
// Selection holds one pool index per non-trailer slot, in increasing
// order, and at least one cell comes from packet 1.
func tallySplice(t *testing.T, c *Counts, s Splice) {
	t.Helper()
	if len(s.Selection) != s.CellsFromP1+s.CellsFromP2-1 || s.CellsFromP1 < 1 {
		t.Fatalf("provenance inconsistent: P1=%d P2=%d sel=%v", s.CellsFromP1, s.CellsFromP2, s.Selection)
	}
	for i := 1; i < len(s.Selection); i++ {
		if s.Selection[i] <= s.Selection[i-1] {
			t.Fatalf("selection not increasing: %v", s.Selection)
		}
	}
	c.Total++
	switch s.Class {
	case ClassCaughtByHeader:
		c.CaughtByHeader++
	case ClassIdentical:
		c.Identical++
		if s.PassedChecksum {
			c.IdenticalPassedChecksum++
		} else {
			c.IdenticalFailedChecksum++
		}
	case ClassDetected, ClassMissed:
		if (s.Class == ClassMissed) != s.PassedChecksum {
			t.Fatalf("class %v with PassedChecksum=%v", s.Class, s.PassedChecksum)
		}
		subLen := min(s.CellsFromP2, MaxCells-1)
		c.Remaining++
		c.RemainingByLen[subLen]++
		if s.PassedChecksum {
			c.MissedByChecksum++
			c.MissedByLen[subLen]++
		}
		if s.PassedCRC {
			c.MissedByCRC++
			if s.PassedChecksum {
				c.MissedByBoth++
			}
		}
	}
}

func TestVisitPairMaterializesSDU(t *testing.T) {
	cfg := Config{Opts: tcpip.BuildOptions{}}
	flow := tcpip.NewLoopbackFlow(cfg.Opts)
	p1 := flow.NextPacket(nil, make([]byte, 160))
	p2 := flow.NextPacket(nil, make([]byte, 160))
	n := 0
	VisitPair(p1, p2, cfg, true, func(s Splice) {
		n++
		if len(s.SDU) != len(p2) {
			t.Fatalf("SDU length %d, want %d", len(s.SDU), len(p2))
		}
	})
	if n == 0 {
		t.Fatal("no splices visited")
	}
	// Without materialize, SDU stays nil.
	VisitPair(p1, p2, cfg, false, func(s Splice) {
		if s.SDU != nil {
			t.Fatal("SDU should be nil without materialize")
		}
	})
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[Class]string{
		ClassCaughtByHeader: "caught-by-header",
		ClassIdentical:      "identical",
		ClassDetected:       "detected",
		ClassMissed:         "missed",
		Class(99):           "unknown",
	} {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q", int(c), c.String())
		}
	}
}
