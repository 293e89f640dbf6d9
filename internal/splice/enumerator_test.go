package splice

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"realsum/internal/tcpip"
)

// fullMatrixConfigs returns the complete BuildOptions cross-product:
// every algorithm × placement × inversion × IP-header fill, all with
// the CRC check enabled.
func fullMatrixConfigs() []Config {
	var out []Config
	for _, alg := range []tcpip.ChecksumAlg{tcpip.AlgTCP, tcpip.AlgFletcher255, tcpip.AlgFletcher256} {
		for _, pl := range []tcpip.Placement{tcpip.PlacementHeader, tcpip.PlacementTrailer} {
			for _, noInv := range []bool{false, true} {
				for _, zeroIP := range []bool{false, true} {
					out = append(out, Config{
						Opts: tcpip.BuildOptions{
							Alg: alg, Placement: pl,
							NoInvert: noInv, ZeroIPHeader: zeroIP,
						},
						CheckCRC: true,
					})
				}
			}
		}
	}
	return out
}

// TestDifferentialFullMatrix drives ONE reused Enumerator through the
// full 24-configuration options matrix and all payload kinds, asserting
// bit-identical Counts against the retained naive reference enumerator
// (refEnumerate materializes every splice and classifies it with the
// reference verifiers).  Reusing a single enumerator across differing
// configs and geometries is the point: stale per-pair state from a
// previous (algorithm, placement, CRC) combination must never leak.
func TestDifferentialFullMatrix(t *testing.T) {
	rng := rand.New(rand.NewPCG(1995, 95))
	e := NewEnumerator()
	cfgs := fullMatrixConfigs()
	// Interleave a CheckCRC=false variant so the contribution tables go
	// stale between CRC-checked pairs.
	for ci, cfg := range cfgs {
		noCRC := cfg
		noCRC.CheckCRC = false
		for kind := 0; kind < 5; kind++ {
			// Alternate geometries, runts included, so buffers shrink and
			// grow across calls.
			sizes := [2]int{160, 160}
			switch kind {
			case 2:
				sizes = [2]int{7, 150}
			case 4:
				sizes = [2]int{97, 53}
			}
			flow := tcpip.NewLoopbackFlow(cfg.Opts)
			p1 := flow.NextPacket(nil, makePayload(rng, sizes[0], kind))
			p2 := flow.NextPacket(nil, makePayload(rng, sizes[1], kind))
			got := e.Pair(p1, p2, cfg)
			want := refEnumerate(p1, p2, cfg)
			if got != want {
				t.Errorf("cfg[%d] %+v kind %d:\n got %+v\nwant %+v", ci, cfg.Opts, kind, got, want)
			}
			gotNo := e.Pair(p1, p2, noCRC)
			wantNo := refEnumerate(p1, p2, noCRC)
			if gotNo != wantNo {
				t.Errorf("cfg[%d] %+v (no CRC) kind %d:\n got %+v\nwant %+v", ci, cfg.Opts, kind, gotNo, wantNo)
			}
		}
	}
}

// TestDifferentialSevenCell runs the reference enumerator at the only
// geometry the tables use: 256-byte payloads, so both packets segment
// into 7 cells and each pair has 923 candidate splices.  It covers the
// full options matrix and every payload kind with the CRC on and off,
// plus a runt at either end of a pair, on one reused enumerator.  Every
// pair also goes through VisitPair, whose per-splice classes must tally
// to the Counts it returns.
func TestDifferentialSevenCell(t *testing.T) {
	rng := rand.New(rand.NewPCG(256, 7))
	e := NewEnumerator()
	check := func(what string, p1, p2 []byte, cfg Config) {
		t.Helper()
		want := refEnumerate(p1, p2, cfg)
		if got := e.Pair(p1, p2, cfg); got != want {
			t.Errorf("%s %+v crc=%v:\n got %+v\nwant %+v", what, cfg.Opts, cfg.CheckCRC, got, want)
		}
		var visited Counts
		got := e.VisitPair(p1, p2, cfg, false, func(s Splice) { tallySplice(t, &visited, s) })
		visited.Pairs = got.Pairs
		if got != want || visited != want {
			t.Errorf("%s %+v crc=%v VisitPair:\n got %+v\ntally %+v\n want %+v",
				what, cfg.Opts, cfg.CheckCRC, got, visited, want)
		}
	}
	for _, cfg := range fullMatrixConfigs() {
		for _, checkCRC := range []bool{true, false} {
			cfg.CheckCRC = checkCRC
			for kind := 0; kind < 5; kind++ {
				flow := tcpip.NewLoopbackFlow(cfg.Opts)
				p1 := flow.NextPacket(nil, makePayload(rng, 256, kind))
				p2 := flow.NextPacket(nil, makePayload(rng, 256, kind))
				check(fmt.Sprintf("kind %d", kind), p1, p2, cfg)
			}
			// A 5-byte payload makes a two-cell runt whose last cell holds
			// only padding and the AAL5 trailer: as packet 2 it forces
			// the materializing verifier, as packet 1 it offers one cell.
			flow := tcpip.NewLoopbackFlow(cfg.Opts)
			full := flow.NextPacket(nil, makePayload(rng, 256, 3))
			runt := flow.NextPacket(nil, makePayload(rng, 5, 1))
			next := flow.NextPacket(nil, makePayload(rng, 256, 3))
			check("full→runt", full, runt, cfg)
			check("runt→full", runt, next, cfg)
		}
	}
}

// TestEnumeratorMatchesEnumeratePair pins the wrapper to the reusable
// path.
func TestEnumeratorMatchesEnumeratePair(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	cfg := Config{Opts: tcpip.BuildOptions{}, CheckCRC: true}
	flow := tcpip.NewLoopbackFlow(cfg.Opts)
	p1 := flow.NextPacket(nil, makePayload(rng, 256, 3))
	p2 := flow.NextPacket(nil, makePayload(rng, 256, 3))
	e := NewEnumerator()
	if got, want := e.Pair(p1, p2, cfg), EnumeratePair(p1, p2, cfg); got != want {
		t.Errorf("Enumerator.Pair diverges from EnumeratePair:\n got %+v\nwant %+v", got, want)
	}
}

// TestEnumeratorSteadyStateZeroAllocs is the allocation regression
// gate: once warm, enumerating a pair must not allocate, for the plain
// TCP path, the Fletcher/trailer path, and the CRC-checked path alike.
func TestEnumeratorSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 21))
	cases := []struct {
		name string
		cfg  Config
	}{
		{"tcp-crc", Config{Opts: tcpip.BuildOptions{}, CheckCRC: true}},
		{"tcp-nocrc", Config{Opts: tcpip.BuildOptions{}}},
		{"fletcher256-trailer-crc", Config{
			Opts:     tcpip.BuildOptions{Alg: tcpip.AlgFletcher256, Placement: tcpip.PlacementTrailer},
			CheckCRC: true,
		}},
		{"tcp-zeroip", Config{Opts: tcpip.BuildOptions{ZeroIPHeader: true}, CheckCRC: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flow := tcpip.NewLoopbackFlow(tc.cfg.Opts)
			p1 := flow.NextPacket(nil, makePayload(rng, 256, 3))
			p2 := flow.NextPacket(nil, makePayload(rng, 256, 4))
			e := NewEnumerator()
			e.Pair(p1, p2, tc.cfg) // warm the buffers
			avg := testing.AllocsPerRun(50, func() {
				e.Pair(p1, p2, tc.cfg)
			})
			if avg != 0 {
				t.Errorf("steady-state Pair allocates %.1f objects/op, want 0", avg)
			}
		})
	}
}

// BenchmarkEnumeratorPair times the steady-state hot path the tables
// are built from: one warm enumerator classifying a 7-cell pair (923
// candidate splices) with the CRC check on.
func BenchmarkEnumeratorPair(b *testing.B) {
	flow := tcpip.NewLoopbackFlow(tcpip.BuildOptions{})
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i % 7)
	}
	p1 := flow.NextPacket(nil, payload)
	p2 := flow.NextPacket(nil, payload)
	cfg := Config{Opts: tcpip.BuildOptions{}, CheckCRC: true}
	e := NewEnumerator()
	e.Pair(p1, p2, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Pair(p1, p2, cfg)
	}
}
