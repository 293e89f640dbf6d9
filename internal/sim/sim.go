// Package sim drives the paper's experiments end to end: it simulates
// FTP transfers of every file in a corpus as 256-byte TCP/IP segments
// over AAL5 (§3.2), enumerates every packet splice of each adjacent
// segment pair, and aggregates the classification counts that form
// Tables 1–3 and 7–10.  It also hosts the distribution-collection
// passes behind Figures 2–3 and Tables 4–6.
package sim

import (
	"context"
	"fmt"

	"realsum/internal/atm"
	"realsum/internal/corpus"
	"realsum/internal/splice"
	"realsum/internal/tcpip"
)

// DefaultSegmentSize is the paper's TCP segment payload size: "The TCP
// segment sizes examined were 256 bytes long, except for runt packets
// at the end of files."
const DefaultSegmentSize = 256

// Options configures one simulation run.
type Options struct {
	// Build carries the packet-construction knobs (checksum algorithm,
	// placement, inversion, IP-header fill).
	Build tcpip.BuildOptions
	// SegmentSize is the TCP payload size per packet (default 256).
	SegmentSize int
	// CheckCRC enables the AAL5 CRC test on every splice.
	CheckCRC bool
	// Compress applies LZW to every file before packetization (§5.1).
	Compress bool
	// Workers bounds parallelism across files (default GOMAXPROCS).
	Workers int
	// TrackWorst, when positive, records the TrackWorst files with the
	// most checksum misses — §5.5's observation that undetected-splice
	// rates spike "at the level of individual directories or even
	// files" depends on exactly this attribution.
	TrackWorst int
	// Progress, when non-nil, receives per-file throughput updates.
	Progress *Progress
}

// FileMisses attributes splice-simulation outcomes to one file.
type FileMisses struct {
	Path      string
	Remaining uint64
	Missed    uint64
}

func (o Options) segmentSize() int {
	if o.SegmentSize <= 0 {
		return DefaultSegmentSize
	}
	return o.SegmentSize
}

// Result aggregates one system's simulation.
type Result struct {
	System  string
	Files   uint64
	Packets uint64
	Bytes   uint64
	splice.Counts
	// WorstFiles holds the files with the most checksum misses, most
	// missed first, when Options.TrackWorst was set.
	WorstFiles []FileMisses
}

// Run simulates the transfer of every file that w yields and inspects
// every splice of adjacent segments.  It is one Collect pass whose
// shard is a splice worker: each holds a private Result, a bounded
// top-K heap (TrackWorst entries) and reusable simulation state, so
// the result is deterministic — per-file state is independent and the
// merge is commutative.
//
// Compression runs on the walk goroutine, before the file reaches a
// worker, so Progress counts the compressed bytes the workers see.
// ctx cancels the run between files; the partial result and ctx.Err()
// are returned.
func Run(ctx context.Context, w corpus.Walker, name string, opt Options) (Result, error) {
	seg := opt.segmentSize()
	if n := atm.CellCount(opt.Build.PacketLen(seg)); n > splice.MaxPacketCells {
		return Result{}, fmt.Errorf("sim: %d-byte segments make %d-cell packets; splice enumeration takes at most %d",
			seg, n, splice.MaxPacketCells)
	}
	if opt.Compress {
		w = compressWalker{w}
	}
	sh, err := Collect(ctx, w, CollectOptions{Workers: opt.Workers, Progress: opt.Progress},
		func() *spliceShard {
			return &spliceShard{worst: newTopK(opt.TrackWorst), runner: newFileRunner(opt)}
		},
		func(s *spliceShard, _ int, path string, data []byte) {
			counts, packets := s.runner.run(data)
			s.res.Counts.Add(counts)
			s.res.Files++
			s.res.Packets += packets
			s.res.Bytes += uint64(len(data))
			if counts.Remaining > 0 {
				s.worst.offer(FileMisses{Path: path, Remaining: counts.Remaining, Missed: counts.MissedByChecksum})
			}
		},
		func(dst, src *spliceShard) {
			dst.res.Counts.Add(src.res.Counts)
			dst.res.Files += src.res.Files
			dst.res.Packets += src.res.Packets
			dst.res.Bytes += src.res.Bytes
			dst.worst.merge(src.worst)
		},
	)
	res := sh.res
	res.System = name
	res.WorstFiles = sh.worst.sorted()
	return res, err
}

// spliceShard is one Run worker's private state.
type spliceShard struct {
	res    Result
	worst  *topK
	runner *fileRunner
}

// compressWalker LZW-compresses every file its inner walker yields.
type compressWalker struct{ corpus.Walker }

// Walk implements corpus.Walker.
func (c compressWalker) Walk(fn func(path string, data []byte) error) error {
	return c.Walker.Walk(func(path string, data []byte) error {
		return fn(path, corpus.Compress(data))
	})
}

// fileRunner holds one worker's reusable simulation state: the splice
// enumerator and the alternating packet buffers.  After warm-up, a
// runner processes packet pairs with zero allocations.
type fileRunner struct {
	opt  Options
	seg  int
	cfg  splice.Config
	enum *splice.Enumerator
	flow tcpip.Flow
	bufs [2][]byte
}

func newFileRunner(opt Options) *fileRunner {
	return &fileRunner{
		opt:  opt,
		seg:  opt.segmentSize(),
		cfg:  splice.Config{Opts: opt.Build, CheckCRC: opt.CheckCRC},
		enum: splice.NewEnumerator(),
	}
}

// run simulates one file's transfer and enumerates splices of every
// adjacent packet pair.  Two packet buffers alternate so the whole
// transfer runs without per-packet allocation.
func (r *fileRunner) run(data []byte) (splice.Counts, uint64) {
	// Each file gets a fresh flow (sequence numbers and IP IDs restart);
	// the copy through the inlined constructor stays off the heap.
	r.flow = *tcpip.NewLoopbackFlow(r.opt.Build)

	var counts splice.Counts
	var packets uint64
	var prev []byte
	for off := 0; off < len(data); off += r.seg {
		end := off + r.seg
		if end > len(data) {
			end = len(data)
		}
		slot := int(packets) & 1
		pkt := r.flow.NextPacket(r.bufs[slot][:0], data[off:end])
		r.bufs[slot] = pkt[:0]
		packets++
		if prev != nil {
			counts.Add(r.enum.Pair(prev, pkt, r.cfg))
		}
		prev = pkt
	}
	return counts, packets
}
