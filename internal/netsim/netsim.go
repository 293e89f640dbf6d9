// Package netsim is the Monte Carlo end-to-end fault-injection
// pipeline: it encodes real corpus files as TCP/IPv4 (or UDP/IPv4 +
// ipfrag fragmentation) packets carried in AAL5/ATM cells, pushes the
// cell train through a pluggable fault channel — cell drop, bit flips,
// solid bursts, cell misordering and misinsertion — and reassembles at
// a receiver that scores every algorithm in the algo registry, counting
// delivered/corrupted/detected/undetected outcomes per (algorithm ×
// fault model).
//
// This is the trial-based complement of the exhaustive splice
// enumeration (Tables 1–3): where enumeration is infeasible — §7's
// alternative error models — undetected-error probability is measured
// by injection, the standard methodology of the CRC-evaluation
// literature.  The scoring convention: each AAL5 PDU notionally carries
// every algorithm's checksum of its sent bytes; a delivered candidate
// (the cells up to a delivered end-of-packet cell) claims the identity
// of its trailer cell's sending packet, and an algorithm misses when
// its checksum of the received bytes equals its checksum of that sent
// PDU even though the bytes differ.
//
// ModeTCP scores every algorithm under two checksum placements over the
// same delivered cells: end to end over the whole reassembled PDU, and
// per TCP segment (the candidate's bytes at the claimed segment's
// span), plus a header-vs-trailer field-position contrast for the TCP
// sum — the paper's §8–§10 layered-checksum axis, measured by
// injection.  See Placement.
//
// Determinism contract: trials run on the sim.Collect shard engine with
// per-trial seeds derived by TrialSeed from (rootSeed, fileIdx,
// channelIdx, trialIdx) only, and the Tally holds nothing but
// commutatively-merged counters, so reports are byte-identical at any
// worker count.  The per-trial hot path (ModeTCP) performs no
// steady-state allocations; ModeUDPFrag allocates in the
// ipfrag.Reassemble stage only.
package netsim

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"

	"realsum/internal/algo"
	"realsum/internal/atm"
	"realsum/internal/corpus"
	"realsum/internal/crc"
	"realsum/internal/ipfrag"
	"realsum/internal/lz"
	"realsum/internal/onescomp"
	"realsum/internal/sim"
	"realsum/internal/tcpip"
)

// Mode selects the transport encoding of corpus bytes.
type Mode int

const (
	// ModeTCP carries each corpus chunk as one TCP/IPv4 packet per AAL5
	// PDU — the paper's §3.2 FTP-transfer framing.
	ModeTCP Mode = iota
	// ModeUDPFrag carries larger chunks as UDP/IPv4 datagrams split by
	// ipfrag.Fragment; each IP fragment rides in its own AAL5 PDU and
	// the receiver reassembles the surviving fragments.
	ModeUDPFrag
)

func (m Mode) String() string {
	if m == ModeUDPFrag {
		return "udpfrag"
	}
	return "tcp"
}

// Config parameterizes a netsim run.  The zero value runs ModeTCP with
// the default channel battery, 256-byte segments and 6 trials per
// (file × channel).
type Config struct {
	// Mode is the transport encoding.
	Mode Mode
	// SegmentSize is the TCP payload per packet in ModeTCP (default 256,
	// the paper's segment size).
	SegmentSize int
	// DatagramSize is the UDP payload per datagram in ModeUDPFrag
	// (default 1024).
	DatagramSize int
	// MTU is the fragmentation MTU in ModeUDPFrag (default 280: 256
	// payload bytes per fragment).
	MTU int
	// Trials is the trial count per (file × channel) (default 6).
	Trials int
	// Compress enables the LZ payload stage: every corpus file is
	// lz-compressed before transport encoding, so the cell train the
	// faults hit carries near-uniform bytes — the paper's Table 7 remedy
	// exercised end to end.  Compression is a pure function of the file
	// (no RNG, no clock), so per-trial seeds and worker-count
	// determinism are untouched; per-file ratio stats land in
	// Tally.Comp.
	Compress bool
	// Retrans closes the retransmission loop: a delivery a checksum lane
	// detects as corrupt (or a packet whose trailer never arrives) is
	// retransmitted through the re-rolled channel, up to MaxRetries
	// attempts per packet; a miss is accepted corrupt.  Per (channel ×
	// placement × algorithm) the tally then carries residual corrupt
	// bytes, transmissions and goodput next to a perfect-detection
	// oracle.  Retries draw from RetrySeed sub-streams, so the
	// worker-count byte-identity contract is unchanged.
	Retrans bool
	// MaxRetries caps the retransmission attempts per packet (default 8)
	// — the terminator for dead channels and never-passing checks.
	MaxRetries int
	// Seed is the root seed every per-trial seed derives from.
	Seed uint64
	// Channels is the fault battery (default DefaultChannels).
	Channels []ChannelSpec
	// Algorithms lists the scored algorithms (default algo.All()).
	Algorithms []algo.Algorithm
	// Placements selects the checksum placements scored (default
	// AllPlacements).  PlaceSegment applies to ModeTCP only and is
	// dropped in ModeUDPFrag, whose fragments are not TCP segments.
	Placements []Placement
	// Workers bounds parallelism across files (default GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives per-file throughput updates.
	Progress *sim.Progress
}

func (c Config) segmentSize() int {
	if c.SegmentSize <= 0 {
		return sim.DefaultSegmentSize
	}
	return c.SegmentSize
}

func (c Config) datagramSize() int {
	if c.DatagramSize <= 0 {
		return 1024
	}
	return c.DatagramSize
}

func (c Config) mtu() int {
	if c.MTU <= 0 {
		return 280
	}
	return c.MTU
}

func (c Config) trials() int {
	if c.Trials <= 0 {
		return 6
	}
	return c.Trials
}

func (c Config) retryCap() int {
	if c.MaxRetries <= 0 {
		return 8
	}
	return c.MaxRetries
}

func (c Config) channels() []ChannelSpec {
	if len(c.Channels) == 0 {
		return DefaultChannels()
	}
	return c.Channels
}

func (c Config) algorithms() []algo.Algorithm {
	if len(c.Algorithms) == 0 {
		return algo.All()
	}
	return c.Algorithms
}

// placements normalizes the configured placement set: default full
// battery, duplicates dropped, PlaceSegment filtered out in ModeUDPFrag
// (fragments are not TCP segments), and never empty — a run that scores
// no placement would have nothing to report, so the e2e placement is
// the floor.
func (c Config) placements() []Placement {
	src := c.Placements
	if len(src) == 0 {
		src = AllPlacements()
	}
	var out []Placement
	var seen [2]bool
	for _, p := range src {
		if p != PlaceE2E && p != PlaceSegment {
			continue
		}
		if c.Mode == ModeUDPFrag && p == PlaceSegment {
			continue
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	if len(out) == 0 {
		out = []Placement{PlaceE2E}
	}
	return out
}

func (c Config) buildOptions() tcpip.BuildOptions { return tcpip.BuildOptions{} }

// tallyNames resolves the (channel, algorithm, placement) name lists
// the config's tallies are shaped by — shared by the engine workers and
// NewTally so service aggregates always match their shards.
func (c Config) tallyNames() (channels, algos, placements []string) {
	specs := c.channels()
	channels = make([]string, len(specs))
	for i, s := range specs {
		channels[i] = s.Name
	}
	as := c.algorithms()
	algos = make([]string, len(as))
	for i, a := range as {
		algos[i] = a.Name()
	}
	pls := c.placements()
	placements = make([]string, len(pls))
	for i, p := range pls {
		placements[i] = p.String()
	}
	return channels, algos, placements
}

// fragRef queues one AAL5-accepted IP fragment for datagram reassembly:
// the datagram it belongs to and its bytes' span in the fragment arena.
type fragRef struct{ dg, off, n int }

// worker is one engine shard: the per-file sender state, the per-trial
// scratch buffers, and this shard's tally.  Every slice is reused
// across files and trials, so the steady-state trial loop allocates
// nothing (ModeTCP).
type worker struct {
	cfg   Config
	algos []algo.Algorithm
	chans []Channel
	tally *Tally
	aal5  *crc.Table

	// places lists the enabled placements, index-aligned with each
	// ChannelTally.Placements; every per-placement slice below is indexed
	// the same way.
	places []Placement

	// Compression stage (cfg.Compress): one Reset-per-file compressor
	// and its reused output buffer — the per-file cost, never per-trial.
	comp    *lz.Compressor
	compBuf []byte

	// Sender state for the current file.
	pduArena []byte // concatenated sent PDUs (cell payloads incl. padding + trailer)
	pduOff   []int  // PDU k spans pduArena[pduOff[k]:pduOff[k+1]]
	pktLen   []int  // transported packet length within PDU k
	cells    []atm.Cell
	origin   []int32
	dgArena  []byte // ModeUDPFrag: original unfragmented IP packets
	dgOff    []int
	fragDG   []int      // PDU index -> datagram index
	sent     [][]uint64 // sent[pi][k*nAlgos+a]: algorithm a's sum over PDU k's span at places[pi]
	sentCk   []uint16   // per-segment placement: sent TCP checksum field per packet
	pktBuf   []byte

	// Per-trial scratch.
	work      Stream
	pdu       []byte
	delivered []bool
	// recv[pi][a] is algorithm a's sum over the current primary arrival's
	// span at places[pi].  scorePlacement fills it wherever that span
	// differs from the sent one, and judgeArrival reads it, so each sum
	// is computed once.
	recv [][]uint64
	// intact[pi] says the current primary arrival's span at places[pi]
	// equals the sent one: compared once by scorePlacement, and read
	// again by judgeArrival.
	intact    []bool
	fragArena []byte
	fragRefs  []fragRef
	frags     [][]byte
	pcg       *rand.PCG
	rng       *rand.Rand

	// Retransmission loop (cfg.Retrans).  A lane is one RetransTally a
	// trial settles per packet: for each enabled placement, one lane per
	// algorithm plus the perfect oracle, laid out per packet as
	// placement-major groups of (nAlgos+1) — laneStride lanes per packet.
	// retPending[p*laneStride+l] says lane l of packet p has not yet
	// accepted a delivery this trial; retries run until every lane
	// settles or the retry cap exhausts them.  trialSeed feeds the
	// RetrySeed sub-stream; retWork/retPdu are the retry attempt's
	// channel stream and reassembly buffer.
	laneStride int
	trialSeed  uint64
	retPending []bool
	retWork    Stream
	retPdu     []byte
}

func newWorker(cfg Config) *worker {
	specs := cfg.channels()
	chans := make([]Channel, len(specs))
	for i, s := range specs {
		chans[i] = s.New()
	}
	pcg := rand.NewPCG(0, 0)
	var comp *lz.Compressor
	if cfg.Compress {
		comp = lz.NewCompressor()
	}
	w := &worker{
		cfg:    cfg,
		comp:   comp,
		algos:  cfg.algorithms(),
		chans:  chans,
		tally:  NewTally(cfg),
		aal5:   crc.New(crc.CRC32),
		places: cfg.placements(),
		pcg:    pcg,
		rng:    rand.New(pcg),
	}
	w.sent = make([][]uint64, len(w.places))
	w.recv = make([][]uint64, len(w.places))
	w.intact = make([]bool, len(w.places))
	for pi := range w.places {
		w.recv[pi] = make([]uint64, len(w.algos))
	}
	if cfg.Retrans {
		w.laneStride = len(w.places) * (len(w.algos) + 1)
	}
	return w
}

// file runs every (channel × trial) combination over one corpus file.
// With cfg.Compress set the file passes through the LZ stage first, so
// the transported payload — and everything downstream: sent sums, cell
// train, fault targets — is the compressed byte stream.
func (w *worker) file(idx int, data []byte) {
	w.reset()
	if w.cfg.Compress {
		w.comp.Reset()
		w.compBuf = w.comp.Compress(w.compBuf[:0], data)
		w.tally.Comp.add(uint64(len(data)), uint64(len(w.compBuf)))
		data = w.compBuf
	}
	switch w.cfg.Mode {
	case ModeUDPFrag:
		w.buildUDP(data)
	default:
		w.buildTCP(data)
	}
	w.computeSums()
	trials := w.cfg.trials()
	for c := range w.chans {
		for t := 0; t < trials; t++ {
			w.trial(idx, c, t)
		}
	}
}

func (w *worker) reset() {
	w.pduArena = w.pduArena[:0]
	w.pduOff = append(w.pduOff[:0], 0)
	w.pktLen = w.pktLen[:0]
	w.cells = w.cells[:0]
	w.origin = w.origin[:0]
	w.dgArena = w.dgArena[:0]
	w.dgOff = append(w.dgOff[:0], 0)
	w.fragDG = w.fragDG[:0]
	for pi := range w.sent {
		w.sent[pi] = w.sent[pi][:0]
	}
	w.sentCk = w.sentCk[:0]
}

// addPDU segments one transported packet into AAL5 cells and records
// its sent PDU (the exact cell payload bytes, padding and trailer
// included — the unit every algorithm is scored over).
func (w *worker) addPDU(pkt []byte) {
	base := len(w.cells)
	cells, err := atm.AppendSegment(w.cells, pkt, 0, 32)
	if err != nil {
		panic(fmt.Sprintf("netsim: segmenting %d-byte packet: %v", len(pkt), err))
	}
	w.cells = cells
	k := int32(len(w.pduOff) - 1)
	for i := base; i < len(w.cells); i++ {
		w.origin = append(w.origin, k)
		w.pduArena = append(w.pduArena, w.cells[i].Payload[:]...)
	}
	w.pduOff = append(w.pduOff, len(w.pduArena))
	w.pktLen = append(w.pktLen, len(pkt))
}

// buildTCP packetizes the file as the paper's loopback FTP transfer:
// successive 256-byte TCP/IPv4 segments, one AAL5 PDU each.
func (w *worker) buildTCP(data []byte) {
	flow := tcpip.NewLoopbackFlow(w.cfg.buildOptions())
	seg := w.cfg.segmentSize()
	for off := 0; ; off += seg {
		end := off + seg
		if end > len(data) {
			end = len(data)
		}
		w.pktBuf = flow.NextPacket(w.pktBuf[:0], data[off:end])
		w.addPDU(w.pktBuf)
		if end >= len(data) {
			break
		}
	}
}

// netsim's UDP endpoints; any fixed addresses work, they only feed the
// pseudo-header.
var udpSrc = [4]byte{10, 0, 0, 1}
var udpDst = [4]byte{10, 0, 0, 2}

// buildUDP packetizes the file as UDP/IPv4 datagrams, fragments each at
// the configured MTU, and sends every fragment as its own AAL5 PDU.
func (w *worker) buildUDP(data []byte) {
	seg := w.cfg.datagramSize()
	id := uint16(1)
	for off := 0; ; off += seg {
		end := off + seg
		if end > len(data) {
			end = len(data)
		}
		dgram := tcpip.BuildUDPDatagram(udpSrc, udpDst, 4040, 4041, data[off:end])
		total := tcpip.IPv4HeaderLen + len(dgram)
		w.pktBuf = w.pktBuf[:0]
		for i := 0; i < total; i++ {
			w.pktBuf = append(w.pktBuf, 0)
		}
		h := tcpip.IPv4Header{
			TotalLength: uint16(total),
			ID:          id,
			TTL:         64,
			Protocol:    tcpip.ProtocolUDP,
			Src:         udpSrc,
			Dst:         udpDst,
		}
		h.ComputeChecksum()
		h.SerializeTo(w.pktBuf)
		copy(w.pktBuf[tcpip.IPv4HeaderLen:], dgram)

		dgIdx := len(w.dgOff) - 1
		w.dgArena = append(w.dgArena, w.pktBuf...)
		w.dgOff = append(w.dgOff, len(w.dgArena))

		frags, err := ipfrag.Fragment(w.pktBuf, w.cfg.mtu())
		if err != nil {
			panic(fmt.Sprintf("netsim: fragmenting %d-byte packet at MTU %d: %v", total, w.cfg.mtu(), err))
		}
		for _, f := range frags {
			w.addPDU(f)
			w.fragDG = append(w.fragDG, dgIdx)
		}
		id++
		if end >= len(data) {
			break
		}
	}
}

// span returns the bytes placement pl covers for packet p: got from
// the received candidate recv, sent from the sent PDU.  PlaceE2E covers
// the whole AAL5 PDU; PlaceSegment covers the packet's first pktLen[p]
// bytes, AAL5 padding and trailer excluded.  It is the only code that
// knows a placement's bytes.
func (w *worker) span(pl Placement, p int, recv []byte) (got, sent []byte) {
	sent = w.pduArena[w.pduOff[p]:w.pduOff[p+1]]
	if pl == PlaceSegment {
		n := w.pktLen[p]
		sent = sent[:n]
		if len(recv) > n {
			recv = recv[:n]
		}
	}
	return recv, sent
}

// computeSums precomputes every algorithm's checksum of every sent PDU's
// span under every enabled placement — the notional carried check
// values — once per file, so trials only checksum the received side.
// With the per-segment placement enabled it also records the TCP
// checksum field each packet transmitted, the trailer-position check
// material.
func (w *worker) computeSums() {
	for k := 0; k+1 < len(w.pduOff); k++ {
		for pi, pl := range w.places {
			_, sent := w.span(pl, k, nil)
			for _, a := range w.algos {
				w.sent[pi] = append(w.sent[pi], algo.Sum(a, sent))
			}
			if pl == PlaceSegment {
				w.sentCk = append(w.sentCk, tcpip.StoredTCPChecksum(sent))
			}
		}
	}
}

// trial pushes the file's cell train through one channel once and
// scores what the receiver got.
func (w *worker) trial(fileIdx, chanIdx, trial int) {
	ct := &w.tally.Channels[chanIdx]
	w.trialSeed = TrialSeed(w.cfg.Seed, fileIdx, chanIdx, trial)
	w.pcg.Seed(w.trialSeed, 0xAA15)

	w.work.Cells = append(w.work.Cells[:0], w.cells...)
	w.work.Origin = append(w.work.Origin[:0], w.origin...)
	w.chans[chanIdx].Transmit(w.rng, &w.work)

	nPkts := len(w.pduOff) - 1
	ct.Trials++
	ct.PacketsSent += uint64(nPkts)
	ct.CellsSent += uint64(len(w.cells))
	ct.CellsDelivered += uint64(len(w.work.Cells))
	ct.Bytes += uint64(len(w.pduArena))

	w.delivered = w.delivered[:0]
	for i := 0; i < nPkts; i++ {
		w.delivered = append(w.delivered, false)
	}
	if w.cfg.Retrans {
		need := nPkts * w.laneStride
		if cap(w.retPending) < need {
			w.retPending = make([]bool, need)
		}
		w.retPending = w.retPending[:need]
		for i := range w.retPending {
			w.retPending[i] = true
		}
	}
	w.fragArena = w.fragArena[:0]
	w.fragRefs = w.fragRefs[:0]

	w.pdu = w.pdu[:0]
	start := 0
	for i := range w.work.Cells {
		w.pdu = append(w.pdu, w.work.Cells[i].Payload[:]...)
		if !w.work.Cells[i].Header.EndOfPacket() {
			continue
		}
		w.score(ct, int(w.work.Origin[i]), w.work.Cells[start:i+1])
		w.pdu = w.pdu[:0]
		start = i + 1
	}
	for _, d := range w.delivered {
		if !d {
			ct.Lost++
		}
	}
	if w.cfg.Retrans {
		for p := 0; p < nPkts; p++ {
			w.retryPacket(ct, chanIdx, p)
		}
	}
	if w.cfg.Mode == ModeUDPFrag {
		w.reassembleDatagrams(ct)
	}
}

// score classifies one delivered candidate (the cells up to a delivered
// trailer) against the sent PDU its trailer claims, and asks every
// algorithm under every enabled placement whether it would have caught
// the difference.
func (w *worker) score(ct *ChannelTally, origin int, cells []atm.Cell) {
	ct.PDUsDelivered++
	w.delivered[origin] = true
	sent := w.pduArena[w.pduOff[origin]:w.pduOff[origin+1]]
	corrupted := !bytes.Equal(w.pdu, sent)
	if !corrupted {
		ct.Intact++
	} else {
		ct.Corrupted++
		ct.ErrClass.note(w.pdu, sent)
	}
	for pi := range w.places {
		w.scorePlacement(&ct.Placements[pi], pi, origin, corrupted)
	}
	if w.cfg.Retrans {
		w.judgeArrival(ct, origin, w.pdu, 1, true)
	}
	w.pipeline(ct, origin, cells, corrupted)
}

// scorePlacement scores the current candidate under places[pi]: its
// received span against the claimed packet's sent span.  The spans are
// compared once, into intact[pi]; the e2e span is the whole PDU, which
// score already compared (corrupted).  A miss is counted when an
// algorithm's sum of the received span equals its sum of the sent one
// even though the bytes differ.  A candidate whose
// damage lies entirely in padding or trailer bytes is intact under
// PlaceSegment while corrupted end-to-end — the placement-blindness the
// contrast table quantifies.
//
// Under PlaceSegment each corrupted segment also scores the TCP
// one's-complement sum at both field positions via SegmentCheckValue:
// HeaderPos compares the stored field inside the received bytes,
// TrailerPos the claimed origin's transmitted field value, both against
// the sum recomputed over the received bytes.
func (w *worker) scorePlacement(pt *PlacementTally, pi, origin int, corrupted bool) {
	pl := w.places[pi]
	got, sent := w.span(pl, origin, w.pdu)
	w.intact[pi] = !corrupted
	if pl != PlaceE2E {
		w.intact[pi] = bytes.Equal(got, sent)
	}
	pt.Delivered++
	if w.intact[pi] {
		pt.Intact++
		return
	}
	pt.Corrupted++
	sentSums := w.sent[pi][origin*len(w.algos):]
	for a, alg := range w.algos {
		w.recv[pi][a] = algo.Sum(alg, got)
		if w.recv[pi][a] == sentSums[a] {
			pt.Algos[a].Undetected++
		} else {
			pt.Algos[a].Detected++
		}
	}
	if pl != PlaceSegment {
		return
	}
	stored, want, ok := tcpip.SegmentCheckValue(got)
	if ok && onescomp.Congruent(stored, want) {
		pt.HeaderPos.Undetected++
	} else {
		pt.HeaderPos.Detected++
	}
	if ok && onescomp.Congruent(w.sentCk[origin], want) {
		pt.TrailerPos.Undetected++
	} else {
		pt.TrailerPos.Detected++
	}
}

// diffBytes counts how many received bytes differ from the sent span:
// positional differences over the common prefix plus the full length
// delta — the residual-corruption currency of the retransmission loop.
func diffBytes(recv, sent []byte) uint64 {
	n := len(recv)
	if len(sent) < n {
		n = len(sent)
	}
	var d uint64
	for i := 0; i < n; i++ {
		if recv[i] != sent[i] {
			d++
		}
	}
	d += uint64(len(recv)-n) + uint64(len(sent)-n)
	return d
}

// judgeArrival lets every still-pending retransmission lane of packet p
// judge one arriving candidate (arrival = the reassembled candidate
// bytes claiming p) delivered by transmission number tx.  A lane whose
// check passes the arrival accepts it — corrupt bytes and all — and
// settles; a lane whose check fails stays pending for the next
// retransmission.  The primary per-algorithm Detected/Undetected
// counters are not touched: retransmission only ever adds to the
// Retrans/Oracle lanes.
//
// A primary arrival reads the comparisons and sums scorePlacement left
// in intact and recv, the sums valid wherever a placement's span
// differs from the sent one (the only case a sum is read); a retry
// arrival compares and sums for itself.
func (w *worker) judgeArrival(ct *ChannelTally, p int, arrival []byte, tx uint64, primary bool) {
	nAlgos := len(w.algos)
	pduLen := uint64(w.pduOff[p+1] - w.pduOff[p])
	for pi, pl := range w.places {
		pt := &ct.Placements[pi]
		lb := p*w.laneStride + pi*(nAlgos+1)
		got, sent := w.span(pl, p, arrival)
		intact := w.intact[pi]
		if !primary {
			intact = bytes.Equal(got, sent)
		}
		diff, diffDone := uint64(0), intact
		sentSums := w.sent[pi][p*nAlgos:]
		for a, alg := range w.algos {
			if !w.retPending[lb+a] {
				continue
			}
			if !intact {
				sum := w.recv[pi][a]
				if !primary {
					sum = algo.Sum(alg, got)
				}
				if sum != sentSums[a] {
					continue
				}
			}
			if !diffDone {
				diff = diffBytes(got, sent)
				diffDone = true
			}
			pt.Retrans[a].accept(tx, pduLen, uint64(len(got)), diff)
			w.retPending[lb+a] = false
		}
		if w.retPending[lb+nAlgos] && intact {
			pt.Oracle.accept(tx, pduLen, uint64(len(got)), 0)
			w.retPending[lb+nAlgos] = false
		}
	}
}

// lanesPending reports whether any retransmission lane of packet p is
// still waiting for an acceptable delivery.
func (w *worker) lanesPending(p int) bool {
	for _, pending := range w.retPending[p*w.laneStride : (p+1)*w.laneStride] {
		if pending {
			return true
		}
	}
	return false
}

// retryPacket closes the retransmission loop for one packet after the
// primary transmission settled what it could: while any lane is still
// pending (its check rejected every delivery so far, or the packet's
// trailer never arrived), the packet's own cells are retransmitted
// through the re-rolled channel — each attempt seeded from the
// RetrySeed(trialSeed, packet, attempt) sub-stream, so the fault
// pattern is a pure function of corpus position and the worker-count
// byte-identity contract holds.  All pending lanes share each attempt's
// damage (common random numbers: the channel does not care which
// checksum the receiver runs), so lane differences are pure detection
// differences.  Lanes still pending after the retry cap are exhausted —
// the dead-channel / never-passing-check terminator.
func (w *worker) retryPacket(ct *ChannelTally, chanIdx, p int) {
	if !w.lanesPending(p) {
		return
	}
	retryCap := w.cfg.retryCap()
	cellLo := w.pduOff[p] / atm.PayloadSize
	cellHi := w.pduOff[p+1] / atm.PayloadSize
	tx := uint64(1)
	for attempt := 1; attempt <= retryCap && w.lanesPending(p); attempt++ {
		tx = uint64(attempt) + 1
		w.pcg.Seed(RetrySeed(w.trialSeed, p, attempt), 0xAA15)
		w.retWork.Cells = append(w.retWork.Cells[:0], w.cells[cellLo:cellHi]...)
		w.retWork.Origin = append(w.retWork.Origin[:0], w.origin[cellLo:cellHi]...)
		w.chans[chanIdx].Transmit(w.rng, &w.retWork)

		w.retPdu = w.retPdu[:0]
		for i := range w.retWork.Cells {
			w.retPdu = append(w.retPdu, w.retWork.Cells[i].Payload[:]...)
			if !w.retWork.Cells[i].Header.EndOfPacket() {
				continue
			}
			w.judgeArrival(ct, p, w.retPdu, tx, false)
			w.retPdu = w.retPdu[:0]
		}
	}
	// Exhaust whatever never accepted: tx transmissions were spent on
	// this packet in total, none delivered for these lanes.
	nAlgos := len(w.algos)
	pduLen := uint64(w.pduOff[p+1] - w.pduOff[p])
	laneBase := p * w.laneStride
	for pi := range w.places {
		pt := &ct.Placements[pi]
		lanes := w.retPending[laneBase+pi*(nAlgos+1) : laneBase+(pi+1)*(nAlgos+1)]
		for l, pending := range lanes {
			if !pending {
				continue
			}
			r := &pt.Oracle
			if l < nAlgos {
				r = &pt.Retrans[l]
			}
			r.exhaust(tx, pduLen)
			lanes[l] = false
		}
	}
}

// pipeline runs the structural receiver battery a real endpoint
// applies: AAL5 framing and CRC-32, then either the TCP/IP header and
// checksum checks (ModeTCP) or fragment queueing for IP reassembly
// (ModeUDPFrag).  Candidates contain no interior end-of-packet cell by
// construction, so the framing checks reduce to the trailer's length
// consistency.
func (w *worker) pipeline(ct *ChannelTally, origin int, cells []atm.Cell, corrupted bool) {
	p := &ct.Pipeline
	pdu := w.pdu
	if len(pdu) < atm.TrailerSize {
		p.Framing++
		return
	}
	tr := atm.DecodeTrailer(pdu[len(pdu)-atm.TrailerSize:])
	if atm.CellCount(int(tr.Length)) != len(cells) {
		p.Framing++
		return
	}
	if uint32(w.aal5.Checksum(pdu[:len(pdu)-4])) != tr.CRC {
		p.CRC++
		return
	}
	sdu := pdu[:tr.Length]
	if w.cfg.Mode == ModeUDPFrag {
		p.FragDelivered++
		off := len(w.fragArena)
		w.fragArena = append(w.fragArena, sdu...)
		w.fragRefs = append(w.fragRefs, fragRef{dg: w.fragDG[origin], off: off, n: len(sdu)})
		return
	}
	if tcpip.ValidateHeaders(sdu, w.cfg.buildOptions()) != nil {
		p.Header++
		return
	}
	if !tcpip.VerifyPacket(sdu, w.cfg.buildOptions()) {
		p.Checksum++
		return
	}
	sentPkt := w.pduArena[w.pduOff[origin] : w.pduOff[origin]+w.pktLen[origin]]
	if bytes.Equal(sdu, sentPkt) {
		p.Accepted++
	} else {
		p.AcceptedCorrupt++
	}
}

// reassembleDatagrams feeds the AAL5-accepted fragments of each
// datagram through ipfrag.Reassemble and the UDP checksum — the
// end-to-end receiver of ModeUDPFrag.  ipfrag builds the reassembled
// packet afresh, so this stage (alone) allocates.
func (w *worker) reassembleDatagrams(ct *ChannelTally) {
	p := &ct.Pipeline
	for d := 0; d+1 < len(w.dgOff); d++ {
		w.frags = w.frags[:0]
		for _, fr := range w.fragRefs {
			if fr.dg == d {
				w.frags = append(w.frags, w.fragArena[fr.off:fr.off+fr.n])
			}
		}
		if len(w.frags) == 0 {
			p.DatagramsLost++
			continue
		}
		out, err := ipfrag.Reassemble(w.frags)
		if err != nil {
			p.FragReject++
			continue
		}
		sent := w.dgArena[w.dgOff[d]:w.dgOff[d+1]]
		if bytes.Equal(out, sent) {
			p.DatagramsIntact++
			continue
		}
		var h tcpip.IPv4Header
		if h.DecodeFromBytes(out) != nil || len(out) < tcpip.IPv4HeaderLen+tcpip.UDPHeaderLen ||
			!tcpip.VerifyUDP(h.Src, h.Dst, out[tcpip.IPv4HeaderLen:]) {
			p.UDPCaught++
		} else {
			p.UDPUndetected++
		}
	}
}

// Run executes the full pipeline over every file w yields, on the
// sim.Collect shard engine: each worker owns a private tally, merged
// commutatively after the drain.  The returned Tally is byte-identical
// (through Report) at any worker count.
func Run(ctx context.Context, w corpus.Walker, cfg Config) (*Tally, error) {
	ws, err := sim.Collect(ctx, w, sim.CollectOptions{Workers: cfg.Workers, Progress: cfg.Progress},
		func() *worker { return newWorker(cfg) },
		func(sh *worker, idx int, _ string, data []byte) { sh.file(idx, data) },
		func(dst, src *worker) { dst.tally.MustMerge(src.tally) },
	)
	return ws.tally, err
}

// Shard is one incrementally-driven engine worker — the building block
// of the cksumd service path, where a long-running stream feeds files
// one at a time instead of walking a corpus once.  A Shard is not safe
// for concurrent use; a stream runs one per pool worker.  Feeding files
// in submission order with their submission index reproduces Run's
// per-trial seeds exactly, so a stream's merged tally is byte-identical
// to the batch run over the same files at the same cfg.Seed.
type Shard struct {
	w *worker
}

// NewShard builds one engine shard for cfg.
func NewShard(cfg Config) *Shard { return &Shard{w: newWorker(cfg)} }

// File runs every (channel × trial) combination over one file.  idx
// must be the stream's running submission index — the determinism
// handle TrialSeed mixes.  After the first few files have sized the
// reusable buffers, the per-trial loop allocates nothing (ModeTCP).
func (s *Shard) File(idx int, data []byte) { s.w.file(idx, data) }

// Flush merges the shard's accumulated counts into dst and resets the
// shard — the batched-merge step of the service path.  dst must have
// been built by NewTally (or another Shard) from the same Config; a
// shape mismatch (dst from a different scenario) is returned as an
// error with dst unmodified and the shard's counts intact.  The caller
// owns dst's synchronization.  Flush allocates nothing.
func (s *Shard) Flush(dst *Tally) error {
	if err := dst.Merge(s.w.tally); err != nil {
		return err
	}
	s.w.tally.Reset()
	return nil
}

// StreamSeed derives the root seed for replica r of a scenario run at
// base seed root.  Replica 0 runs root itself, so a single-stream
// service run is byte-identical to the equivalent batch Run; further
// replicas get decorrelated fault patterns while staying pure functions
// of (root, r).
func StreamSeed(root uint64, r int) uint64 {
	if r == 0 {
		return root
	}
	return splitmix64(splitmix64(root^0x5EED570EA3) ^ uint64(r))
}
