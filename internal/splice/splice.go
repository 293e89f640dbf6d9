// Package splice implements the paper's central experiment: exhaustive
// enumeration of AAL5 packet splices over pairs of adjacent TCP/IP
// packets, and classification of every splice against the layered
// checks a receiver would apply — AAL5 framing, the syntactic TCP/IP
// header battery, the AAL5 CRC-32 and the transport checksum.
//
// A splice (§3.1) arises when cell losses leave an order-preserving
// subsequence of two adjacent packets' cells that still looks like one
// AAL5 packet.  Three structural constraints bound the space:
//
//   - the last cell of the splice must be an end-of-packet-marked cell,
//     and the only usable one is the second packet's trailer cell (the
//     first packet's marked cell may not appear in the interior);
//   - the splice's cell count must match the AAL5 length field carried
//     in that trailer cell;
//   - cells cannot be reordered.
//
// For two n-cell packets with the first packet's header cell kept, that
// yields C(2n−3, n−2) candidates — 462 for the 7-cell packets of a
// 256-byte transfer (§4.6).
//
// Enumeration is a split join.  Every candidate is a k-cell prefix of
// packet 1 at slots 0..k−1 (k ≥ 1; k = 0 is the identity) joined to a
// suffix of packet 2's cells at slots k..n2−2, then the pinned trailer.
// All three checks compose across that boundary: the ones-complement
// sum adds (§4.1), the Fletcher pair composes with the positional shift
// B += A·len (§5.2), and the CRC-32 register is affine over GF(2) in the
// chosen cells, the XOR of per-(cell, slot) contributions (see
// crc.SlotContribs).  So for each k the enumerator lists the C(m1, k)
// prefixes and the C(n2−1, n2−1−k) suffixes once, gives every suffix a
// normalized checksum key, and derives from every prefix the one key a
// suffix must carry for the splice to verify.  A splice is then
// classified by comparing integers — checksum key, CRC register,
// identical-data bits — with no per-splice byte or cell work, which is
// what makes whole-file-system enumeration cheap.
package splice

import (
	"bytes"
	"math/bits"

	"realsum/internal/atm"
	"realsum/internal/crc"
	"realsum/internal/fletcher"
	"realsum/internal/inet"
	"realsum/internal/onescomp"
	"realsum/internal/tcpip"
)

// MaxCells bounds the per-packet cell count the length-bucketed
// counters track (a 65535-byte SDU is 1366 cells; buckets above
// MaxCells-1 are clamped).
const MaxCells = 32

// crcCoveredTail is how many bytes of the pinned trailer cell the AAL5
// CRC-32 covers: the whole payload minus the 4-byte CRC field itself.
const crcCoveredTail = atm.PayloadSize - 4

// Counts aggregates the classification of every inspected splice, in
// the row layout of Tables 1–3.
type Counts struct {
	Pairs uint64 // adjacent packet pairs enumerated

	Total          uint64 // candidate splices (identity excluded)
	CaughtByHeader uint64 // failed the §3.1 TCP/IP header battery
	Identical      uint64 // data identical to one original packet
	Remaining      uint64 // corrupted splices only the checksums can catch

	MissedByCRC      uint64 // Remaining splices the AAL5 CRC-32 passed
	MissedByChecksum uint64 // Remaining splices the transport checksum passed
	MissedByBoth     uint64 // Remaining splices both checks passed

	// IdenticalFailedChecksum counts identical-data splices the
	// transport checksum nonetheless rejected — zero for header
	// checksums, large for trailer checksums (Table 10's asymmetry).
	IdenticalFailedChecksum uint64

	// IdenticalPassedChecksum counts identical-data splices the
	// transport checksum accepted.
	IdenticalPassedChecksum uint64

	// RemainingByLen and MissedByLen bucket Remaining splices by
	// substitution length — the number of second-packet cells in the
	// splice — feeding Table 6's "Actual" rows.
	RemainingByLen [MaxCells]uint64
	MissedByLen    [MaxCells]uint64
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.Pairs += o.Pairs
	c.Total += o.Total
	c.CaughtByHeader += o.CaughtByHeader
	c.Identical += o.Identical
	c.Remaining += o.Remaining
	c.MissedByCRC += o.MissedByCRC
	c.MissedByChecksum += o.MissedByChecksum
	c.MissedByBoth += o.MissedByBoth
	c.IdenticalFailedChecksum += o.IdenticalFailedChecksum
	c.IdenticalPassedChecksum += o.IdenticalPassedChecksum
	for i := range c.RemainingByLen {
		c.RemainingByLen[i] += o.RemainingByLen[i]
		c.MissedByLen[i] += o.MissedByLen[i]
	}
}

// MissRate returns missed/Remaining as a fraction (0 when no remaining
// splices) — the percentage columns of the tables.
func (c Counts) MissRate(missed uint64) float64 {
	if c.Remaining == 0 {
		return 0
	}
	return float64(missed) / float64(c.Remaining)
}

// Config selects which checks the enumeration applies.
type Config struct {
	// Opts describes how the packets were built; verification mirrors
	// construction (algorithm, placement, inversion, IP-header fill).
	Opts tcpip.BuildOptions
	// CheckCRC enables the AAL5 CRC-32 test (Tables 1–3, 7).  When
	// false MissedByCRC stays zero and enumeration is faster.
	CheckCRC bool
}

var crc32Table = crc.New(crc.CRC32)

// Enumerator owns the reusable per-pair state of the splice join.  One
// enumerator processes any number of pairs sequentially; after the
// first few pairs warm its buffers, enumeration allocates nothing.  An
// Enumerator is not safe for concurrent use — give each worker its own.
type Enumerator struct {
	st             pairState
	cells1, cells2 []atm.Cell
}

// NewEnumerator returns an empty enumerator; buffers grow on first use.
func NewEnumerator() *Enumerator { return &Enumerator{} }

// Pair inspects every candidate splice of two adjacent packets (full
// IPv4 packets as built by tcpip.Flow) and returns the classification
// counts.  Packets too short to segment are ignored; packets of more
// than MaxPacketCells cells panic.
func (e *Enumerator) Pair(p1, p2 []byte, cfg Config) Counts {
	return e.pair(p1, p2, cfg, nil, false)
}

// VisitPair is Pair with a per-splice callback; see the package-level
// VisitPair for the callback contract.
func (e *Enumerator) VisitPair(p1, p2 []byte, cfg Config, materialize bool, fn func(Splice)) Counts {
	return e.pair(p1, p2, cfg, fn, materialize)
}

func (e *Enumerator) pair(p1, p2 []byte, cfg Config, visit func(Splice), visitSDU bool) Counts {
	var err1, err2 error
	e.cells1, err1 = atm.AppendSegment(e.cells1[:0], p1, 0, 32)
	e.cells2, err2 = atm.AppendSegment(e.cells2[:0], p2, 0, 32)
	if err1 != nil || err2 != nil {
		return Counts{}
	}
	st := &e.st
	st.reset(p1, p2, e.cells1, e.cells2, cfg)
	st.visit = visit
	st.visitSDU = visitSDU
	st.enumerate()
	st.visit = nil
	return st.counts
}

// EnumeratePair inspects every candidate splice of two adjacent packets
// with a throwaway enumerator.  Callers processing streams of pairs
// should hold an Enumerator instead to amortize the state.
func EnumeratePair(p1, p2 []byte, cfg Config) Counts {
	var e Enumerator
	return e.Pair(p1, p2, cfg)
}

// MaxPacketCells is the largest packet, in AAL5 cells, the enumerator
// accepts: one side of a split keeps its chosen non-trailer cells as a
// bit set in a uint64.  A 64-cell pair already has C(126, 63) > 10³⁶
// splices, far past anything an enumeration could visit.
const MaxPacketCells = 64

// pairState holds the per-pair precomputation shared by every splice of
// one enumeration.  All slice fields are reusable buffers sized by
// reset; scalar fields are reassigned wholesale per pair.
type pairState struct {
	cfg Config

	l2   int // splice SDU (IP packet) length = packet 2's
	n2   int // splice cell count = cells of packet 2
	need int // chosen cells per splice: n2−1, the trailer is pinned

	pool     [][]byte // candidate cell payloads: P1[0..m1-1] then P2[0..need-1]
	m1       int      // first m1 pool entries come from packet 1
	lastCell []byte   // pinned trailer cell payload (P2's last)

	// Header validity of each packet-1 cell as the splice's first cell.
	// Every non-identity splice starts with a packet-1 cell.
	headerOK []bool

	// Transport-checksum precomputation.
	pseudo       uint16   // pseudo-header sum for an L2-byte packet
	sum48        []uint16 // whole-cell sums
	sumHead      []uint16 // packet-1 cells' slot-0 contribution
	sumLast      uint16   // last cell's SDU-prefix contribution
	lastLen      int      // SDU bytes carried by the last cell
	fmod         fletcher.Mod
	pair48       []fletcher.Pair
	pairHead     []fletcher.Pair // packet-1 cells' bytes 20..48
	pairLast     fletcher.Pair
	trailerField uint16 // stored checksum of a trailer placement
	oddField     bool   // field at an odd segment offset: adds byte-swapped

	// Equality maps for identical-data detection, flattened with stride
	// need: eq1[i*need+s] ⇔ pool cell i placed at slot s matches packet
	// 1's SDU there (checksum field bytes excluded); likewise eq2 against
	// packet 2.  Only the slots a cell can occupy are filled: packet-1
	// cell i sits at slot ≤ i, packet-2 cell j at slot ≥ max(j, 1).
	eq1, eq2     []bool
	lastEq1      bool // same length, and pinned last cell vs packet 1's final slot
	fieldOff     int  // checksum field offset within the SDU
	slowVerify   bool // keys invalid; materialize and verify instead
	p1sdu, p2sdu []byte

	// Affine CRC state: the register of a full splice decomposes as
	// base ⊕ Σ crcContrib[cell, slot], so a splice passes when the XOR
	// of its cells' contributions equals crcWant (the trailer CRC
	// unfinalized and folded with the base term).  crcContrib is
	// flattened with stride need.
	crcContrib []uint64
	crcWant    uint64

	pre, suf []half // the current k's prefixes and suffixes

	sel    []int  // pool indices of one splice, for visitors and slowVerify
	sdubuf []byte // scratch for materialized verification

	visit    func(Splice) // optional per-splice callback (VisitPair)
	visitSDU bool         // materialize SDU bytes for the callback

	counts Counts
}

// half is one side of a split splice: a prefix of k packet-1 cells at
// slots 0..k−1, or a suffix of packet-2 cells at slots k..need−1 that
// the pinned trailer completes.  Every check of a whole splice reduces
// to comparing one field of its prefix with the same field of its
// suffix.
type half struct {
	cells uint64 // chosen cells: bit i is the side's packet cell i

	// crc is, for a suffix, the XOR of its cells' CRC slot
	// contributions, and for a prefix crcWant XOR its own, so the
	// splice passes the CRC when the two are equal.
	crc uint64

	// key is, for a suffix, its checksum state in normalized form, and
	// for a prefix the suffix key with which the splice verifies.
	key uint32

	// eq has bit 0 set when the side's data matches packet 2 at its
	// slots and bit 1 when it matches packet 1 (for a prefix: and the
	// pinned last cell matches too).  The splice is identical to an
	// original packet when the two sides share a bit.
	eq uint8

	hdrOK bool // prefix: its first cell passes the header battery
}

// grow returns a length-n slice, reusing buf's capacity when possible.
// Contents are unspecified; callers overwrite every element they read.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// reset rebuilds the per-pair state in place for a new packet pair.
func (st *pairState) reset(p1, p2 []byte, cells1, cells2 []atm.Cell, cfg Config) {
	if len(cells1) > MaxPacketCells || len(cells2) > MaxPacketCells {
		panic("splice: packets over MaxPacketCells cells have too many splices to enumerate")
	}
	st.cfg = cfg
	st.l2 = len(p2)
	st.n2 = len(cells2)
	st.need = st.n2 - 1
	st.m1 = len(cells1) - 1
	st.p1sdu, st.p2sdu = p1, p2
	st.counts = Counts{Pairs: 1}
	st.slowVerify = false
	st.pseudo = 0
	st.fmod = 0
	st.trailerField = 0

	// Candidate pool: P1's cells except its marked trailer, then P2's
	// cells except the pinned trailer.
	st.pool = st.pool[:0]
	for i := 0; i < len(cells1)-1; i++ {
		st.pool = append(st.pool, cells1[i].Payload[:])
	}
	for i := 0; i < len(cells2)-1; i++ {
		st.pool = append(st.pool, cells2[i].Payload[:])
	}
	st.lastCell = cells2[len(cells2)-1].Payload[:]
	st.lastLen = st.l2 - st.need*atm.PayloadSize
	if st.lastLen < 0 {
		// The last cell carries only padding and trailer, so a chosen
		// cell at the penultimate slot straddles the end of the SDU and
		// the composed transport-checksum state overcounts.  Rare (only
		// runt packets hit it); verify those splices by materializing
		// the SDU instead.
		st.lastLen = 0
		st.slowVerify = true
	}

	if cfg.CheckCRC {
		tr := atm.DecodeTrailer(st.lastCell)
		// Fold the init-propagation and pinned-cell terms of the affine
		// decomposition into the target, so a splice's CRC test is a
		// bare comparison of its contributions' XOR against crcWant.
		totalLen := st.need*atm.PayloadSize + crcCoveredTail
		base := crc32Table.RawShift(crc32Table.RawInit(), totalLen) ^
			crc32Table.RawUpdate(0, st.lastCell[:crcCoveredTail])
		st.crcWant = crc32Table.RawFromCRC(uint64(tr.CRC)) ^ base
	}

	st.fieldOff = cfg.Opts.ChecksumOffset(st.l2)
	st.oddField = (st.fieldOff-tcpip.IPv4HeaderLen)%2 != 0
	if cfg.Opts.Placement == tcpip.PlacementTrailer {
		if off := st.fieldOff - st.need*atm.PayloadSize; off < 0 {
			// Trailer checksum field straddles the final cell boundary.
			st.slowVerify = true
		} else {
			st.trailerField = uint16(st.lastCell[off])<<8 | uint16(st.lastCell[off+1])
		}
	}
	if !cfg.Opts.ZeroIPHeader {
		// ZeroIPHeader is §6.2's artifact mode: the checksum covers the
		// whole SDU with no separate pseudo-header.
		st.pseudo = tcpip.PseudoHeaderSum([4]byte{127, 0, 0, 1}, [4]byte{127, 0, 0, 1}, st.l2-tcpip.IPv4HeaderLen)
	}

	switch cfg.Opts.Alg {
	case tcpip.AlgFletcher255:
		st.fmod = fletcher.Mod255
	case tcpip.AlgFletcher256:
		st.fmod = fletcher.Mod256
	}

	st.precomputeCells()
}

// precomputeCells fills the per-pool-cell tables.
func (st *pairState) precomputeCells() {
	n := len(st.pool)
	st.headerOK = grow(st.headerOK, st.m1)
	st.sumHead = grow(st.sumHead, st.m1)
	st.pairHead = grow(st.pairHead, st.m1)
	st.sum48 = grow(st.sum48, n)
	st.pair48 = grow(st.pair48, n)
	st.eq1 = grow(st.eq1, n*st.need)
	st.eq2 = grow(st.eq2, n*st.need)
	if st.cfg.CheckCRC {
		st.crcContrib = grow(st.crcContrib, n*st.need)
	}
	// The transport checksum starts after the IP header, unless it
	// covers the whole SDU.
	head := tcpip.IPv4HeaderLen
	if st.cfg.Opts.ZeroIPHeader {
		head = 0
	}

	for i, cell := range st.pool {
		st.sum48[i] = inet.Sum(cell)
		if st.fmod != 0 {
			st.pair48[i] = st.fmod.Sum(cell)
		}
		lo, hi := 0, min(i, st.need-1)
		if i < st.m1 {
			st.headerOK[i] = st.headerValid(cell)
			st.sumHead[i] = inet.Sum(cell[head:])
			if st.fmod != 0 {
				st.pairHead[i] = st.fmod.Sum(cell[tcpip.IPv4HeaderLen:])
			}
		} else {
			j := i - st.m1
			lo, hi = max(j, 1), min(j+st.m1, st.need-1)
		}
		for s := lo; s <= hi; s++ {
			st.eq1[i*st.need+s] = st.eqAt(st.p1sdu, cell, s)
			st.eq2[i*st.need+s] = st.eqAt(st.p2sdu, cell, s)
		}
		if st.cfg.CheckCRC {
			crc32Table.SlotContribs(st.crcContrib[i*st.need:(i+1)*st.need], cell, atm.PayloadSize, crcCoveredTail)
		}
	}
	st.sumLast = inet.Sum(st.lastCell[:st.lastLen])
	if st.fmod != 0 {
		st.pairLast = st.fmod.Sum(st.lastCell[:st.lastLen])
	}
	// Pinned last cell vs packet 1's final slot; identical-to-P1 needs
	// equal lengths too.
	st.lastEq1 = len(st.p1sdu) == st.l2 && st.eqAt(st.p1sdu, st.lastCell, st.need)
}

// headerValid reports whether cell, as the splice's first cell, yields
// a syntactically valid 40-byte TCP/IP header consistent with the
// splice length l2 (§3.1's three requirements, transport-layer part).
func (st *pairState) headerValid(cell []byte) bool {
	if st.l2 < tcpip.HeadersLen || len(cell) < tcpip.HeadersLen {
		return false
	}
	var ip tcpip.IPv4Header
	if ip.DecodeFromBytes(cell) != nil {
		return false
	}
	if int(ip.TotalLength) != st.l2 || ip.Protocol != tcpip.ProtocolTCP {
		return false
	}
	if !st.cfg.Opts.ZeroIPHeader && !inet.Verify(cell[:tcpip.IPv4HeaderLen]) {
		return false
	}
	return tcpip.ValidateTCP(cell[tcpip.IPv4HeaderLen:tcpip.HeadersLen]) == nil
}

// eqAt compares cell against orig's SDU at slot s, restricted to SDU
// bytes (offsets < l2 for P2-shaped splices; orig may be shorter) and
// excluding the checksum field at fieldOff.
func (st *pairState) eqAt(orig []byte, cell []byte, s int) bool {
	lo, hi := s*atm.PayloadSize, (s+1)*atm.PayloadSize
	a, b := len(orig), st.l2
	if a != b && min(a, b) < hi && max(a, b) > lo {
		return false // exactly one of the two SDUs ends inside this slot
	}
	end := min(hi, a, b)
	if end <= lo {
		return true // past both SDUs: padding/trailer, irrelevant
	}
	x, y := orig[lo:end], cell[:end-lo]
	f := st.fieldOff - lo
	if f+2 <= 0 || f >= len(x) {
		return bytes.Equal(x, y)
	}
	f0, f1 := max(f, 0), min(f+2, len(x))
	return bytes.Equal(x[:f0], y[:f0]) && bytes.Equal(x[f1:], y[f1:])
}

// enumerate classifies every candidate splice.  A splice takes k ≥ 1
// cells from packet 1 (k = 0 is the identity: packet 2 undamaged) and
// need−k from packet 2, so each k joins one prefix list to one suffix
// list.
func (st *pairState) enumerate() {
	for k := 1; k <= min(st.m1, st.need); k++ {
		st.listPrefixes(k)
		st.listSuffixes(k)
		st.join(k)
	}
}

// nextSubset returns the next larger bit set with x's population count
// (Gosper's hack).  The empty set has no successor: it returns all ones,
// which ends any loop bounded by 1<<m for m < MaxPacketCells.
func nextSubset(x uint64) uint64 {
	if x == 0 {
		return ^uint64(0)
	}
	c := x & -x
	r := x + c
	return r | (r^x)>>2>>bits.TrailingZeros64(c)
}

// eqBits packs a side's identical-data flags into half.eq's layout.
func eqBits(eq2, eq1 bool) uint8 {
	var b uint8
	if eq2 {
		b |= 1
	}
	if eq1 {
		b |= 2
	}
	return b
}

// listPrefixes fills st.pre with every k-subset of packet 1's
// non-trailer cells, placed at slots 0..k−1.
func (st *pairState) listPrefixes(k int) {
	st.pre = st.pre[:0]
	sufLen := (st.need-k)*atm.PayloadSize + st.lastLen // checksummed bytes after the prefix
	for cells := uint64(1)<<k - 1; cells < 1<<st.m1; cells = nextSubset(cells) {
		first := bits.TrailingZeros64(cells)
		h := half{cells: cells, hdrOK: st.headerOK[first]}
		if h.hdrOK { // a prefix the header battery rejects needs no key
			sum, fp := st.sumHead[first], st.pairHead[first]
			crcAcc := st.crcWant
			eq1, eq2 := st.lastEq1, true
			for rest, s := cells, 0; rest != 0; rest, s = rest&(rest-1), s+1 {
				i := bits.TrailingZeros64(rest)
				if s > 0 {
					sum = onescomp.Add(sum, st.sum48[i])
					if st.fmod != 0 {
						fp = st.fmod.Append(fp, atm.PayloadSize, st.pair48[i])
					}
				}
				if st.cfg.CheckCRC {
					crcAcc ^= st.crcContrib[i*st.need+s]
				}
				eq1 = eq1 && st.eq1[i*st.need+s]
				eq2 = eq2 && st.eq2[i*st.need+s]
			}
			h.key = st.wantKey(first, sum, fp, sufLen)
			h.crc = crcAcc
			h.eq = eqBits(eq2, eq1)
		}
		st.pre = append(st.pre, h)
	}
}

// listSuffixes fills st.suf with every (need−k)-subset of packet 2's
// non-trailer cells, placed at slots k..need−1.
func (st *pairState) listSuffixes(k int) {
	st.suf = st.suf[:0]
	for cells := uint64(1)<<(st.need-k) - 1; cells < 1<<st.need; cells = nextSubset(cells) {
		var sum uint16
		var fp fletcher.Pair
		var crcAcc uint64
		eq1, eq2 := true, true
		for rest, s := cells, k; rest != 0; rest, s = rest&(rest-1), s+1 {
			i := st.m1 + bits.TrailingZeros64(rest)
			sum = onescomp.Add(sum, st.sum48[i])
			if st.fmod != 0 {
				fp = st.fmod.Append(fp, atm.PayloadSize, st.pair48[i])
			}
			if st.cfg.CheckCRC {
				crcAcc ^= st.crcContrib[i*st.need+s]
			}
			eq1 = eq1 && st.eq1[i*st.need+s]
			eq2 = eq2 && st.eq2[i*st.need+s]
		}
		st.suf = append(st.suf, half{cells: cells, key: st.suffixKey(sum, fp), crc: crcAcc, eq: eqBits(eq2, eq1)})
	}
}

// suffixKey normalizes a suffix's checksum state, completed by the
// pinned last cell: the Fletcher pair in canonical residues, or the
// ones-complement sum with 0xFFFF ≡ 0x0000 folded to 0.
func (st *pairState) suffixKey(sum uint16, fp fletcher.Pair) uint32 {
	if st.fmod != 0 {
		q := st.fmod.Append(fp, st.lastLen, st.pairLast)
		return uint32(q.A)<<16 | uint32(q.B)
	}
	return uint32(onescomp.Normalize(onescomp.Add(sum, st.sumLast)))
}

// wantKey derives, from a prefix's first cell and checksum state, the
// one suffix key with which the whole splice verifies.
//
// Fletcher verifies when the splice's pair is (0, 0), so the suffix must
// carry Cancel(prefix, sufLen).  The Internet checksum works modulo
// 0xFFFF: with P the prefix sum plus pseudo-header, S the suffix sum and
// c the stored field's contribution (byte-swapped at an odd offset), an
// inverted field verifies when stored ≡ c − (P + S), and a non-inverted
// one when stored ≡ P + S − c, each fixing S.  An inverted field at an
// even offset has c = stored, so S ≡ −P and the field drops out.
func (st *pairState) wantKey(first int, sum uint16, fp fletcher.Pair, sufLen int) uint32 {
	if st.fmod != 0 {
		q := st.fmod.Cancel(fp, sufLen)
		return uint32(q.A)<<16 | uint32(q.B)
	}
	stored := st.trailerField
	if st.cfg.Opts.Placement == tcpip.PlacementHeader {
		cell := st.pool[first]
		stored = uint16(cell[st.fieldOff])<<8 | uint16(cell[st.fieldOff+1])
	}
	contrib := stored
	if st.oddField {
		contrib = onescomp.Swap(stored)
	}
	target := onescomp.Sub(contrib, stored)
	if st.cfg.Opts.NoInvert {
		target = onescomp.Add(stored, contrib)
	}
	return uint32(onescomp.Normalize(onescomp.Sub(target, onescomp.Add(sum, st.pseudo))))
}

// b2u converts a check outcome to a count.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// join classifies every prefix × suffix splice for one k.  A splice
// passes the transport checksum when its halves' keys are equal, passes
// the CRC when their crc fields are equal, and is identical data when
// their eq bits intersect.
func (st *pairState) join(k int) {
	c := &st.counts
	n := uint64(len(st.suf))
	checkCRC := st.cfg.CheckCRC
	var remaining, missed uint64
	for pi := range st.pre {
		p := &st.pre[pi]
		c.Total += n
		if !p.hdrOK {
			c.CaughtByHeader += n
			if st.visit != nil {
				for si := range st.suf {
					st.emit(k, p, &st.suf[si], ClassCaughtByHeader, false, false)
				}
			}
			continue
		}
		var ident, identPass, ck, crcOK, both uint64
		for si := range st.suf {
			s := &st.suf[si]
			ckOK := s.key == p.key
			if st.slowVerify {
				st.choose(p.cells, s.cells)
				ckOK = tcpip.VerifyPacket(st.materializeSDU(), st.cfg.Opts)
			}
			identical := p.eq&s.eq != 0
			crcPass := !identical && checkCRC && s.crc == p.crc
			if identical {
				ident++
				identPass += b2u(ckOK)
			} else {
				ck += b2u(ckOK)
				crcOK += b2u(crcPass)
				both += b2u(ckOK && crcPass)
			}
			if st.visit != nil {
				class := ClassDetected
				switch {
				case identical:
					class = ClassIdentical
				case ckOK:
					class = ClassMissed
				}
				st.emit(k, p, s, class, ckOK, crcPass)
			}
		}
		c.Identical += ident
		c.IdenticalPassedChecksum += identPass
		c.IdenticalFailedChecksum += ident - identPass
		c.MissedByCRC += crcOK
		c.MissedByBoth += both
		remaining += n - ident
		missed += ck
	}
	subLen := min(st.n2-k, MaxCells-1) // cells taken from packet 2, incl. trailer
	c.Remaining += remaining
	c.RemainingByLen[subLen] += remaining
	c.MissedByChecksum += missed
	c.MissedByLen[subLen] += missed
}

// choose sets st.sel to the pool indices of a prefix and a suffix.
func (st *pairState) choose(pre, suf uint64) {
	st.sel = st.sel[:0]
	for ; pre != 0; pre &= pre - 1 {
		st.sel = append(st.sel, bits.TrailingZeros64(pre))
	}
	for ; suf != 0; suf &= suf - 1 {
		st.sel = append(st.sel, st.m1+bits.TrailingZeros64(suf))
	}
}

// materializeSDU rebuilds the splice's SDU bytes from the selection
// plus the pinned last cell.
func (st *pairState) materializeSDU() []byte {
	if cap(st.sdubuf) < st.n2*atm.PayloadSize {
		st.sdubuf = make([]byte, 0, st.n2*atm.PayloadSize)
	}
	buf := st.sdubuf[:0]
	for _, i := range st.sel {
		buf = append(buf, st.pool[i]...)
	}
	buf = append(buf, st.lastCell...)
	st.sdubuf = buf
	return buf[:st.l2]
}

// emit invokes the visitor callback for the splice of prefix p and
// suffix s.
func (st *pairState) emit(k int, p, s *half, class Class, ckOK, crcOK bool) {
	st.choose(p.cells, s.cells)
	sp := Splice{
		CellsFromP1:    k,
		CellsFromP2:    st.n2 - k,
		Selection:      st.sel,
		Class:          class,
		PassedChecksum: ckOK,
		PassedCRC:      crcOK,
	}
	if st.visitSDU {
		sp.SDU = st.materializeSDU()
	}
	st.visit(sp)
}
