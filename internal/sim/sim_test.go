package sim

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"realsum/internal/algo"
	"realsum/internal/corpus"
	"realsum/internal/tcpip"
)

// tiny returns a small deterministic corpus for fast tests.
func tiny(seed uint64, ft corpus.FileType, files, size int) *corpus.FS {
	p := corpus.Profile{
		Name:  "tiny",
		Mix:   []corpus.TypeWeight{{Type: ft, Weight: 1}},
		Files: files, MinSize: size, MaxSize: size,
		Seed: seed,
	}
	return p.Build()
}

func ctx() context.Context { return context.Background() }

func TestRunCountsFilesAndPackets(t *testing.T) {
	fs := tiny(1, corpus.UniformRandom, 4, 1024)
	res, err := Run(ctx(), fs, fs.Name, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Files != 4 {
		t.Errorf("Files = %d", res.Files)
	}
	// 1024 bytes at 256/segment = 4 packets per file.
	if res.Packets != 16 {
		t.Errorf("Packets = %d, want 16", res.Packets)
	}
	if res.Bytes != 4096 {
		t.Errorf("Bytes = %d", res.Bytes)
	}
	// 3 adjacent pairs per file.
	if res.Pairs != 12 {
		t.Errorf("Pairs = %d, want 12", res.Pairs)
	}
	if res.Total == 0 || res.Remaining == 0 {
		t.Errorf("no splices inspected: %+v", res.Counts)
	}
}

func TestRunRejectsUnenumerableSegments(t *testing.T) {
	fs := tiny(1, corpus.UniformRandom, 1, 8192)
	if _, err := Run(ctx(), fs, fs.Name, Options{SegmentSize: 4096}); err == nil {
		t.Fatal("Run accepted 4096-byte segments (87-cell packets)")
	}
}

// tiedCorpus returns a GmonOut and English-text corpus in which every
// file appears twice under different paths, so equal miss counts tie
// and the worst-file report must fall back to its path tie-break.
// GmonOut supplies the misses of a raw run; English text still has
// remaining splices after compression, where GmonOut has none.
func tiedCorpus() *corpus.FS {
	fs := corpus.Profile{
		Name: "tied",
		Mix: []corpus.TypeWeight{
			{Type: corpus.GmonOut, Weight: 1},
			{Type: corpus.EnglishText, Weight: 1},
		},
		Files: 6, MinSize: 2048, MaxSize: 4096,
		Seed: 2,
	}.Build()
	for _, s := range fs.Specs {
		s.Path = "copy/" + s.Path
		fs.Specs = append(fs.Specs, s)
	}
	return fs
}

// worstOracle ranks every file of w serially, with no heap, by the
// report order (most Missed first, then Path ascending) and keeps the
// best k — the reference for Run's sharded top-K.
func worstOracle(t *testing.T, w corpus.Walker, opt Options, k int) []FileMisses {
	t.Helper()
	r := newFileRunner(opt)
	var all []FileMisses
	err := w.Walk(func(path string, data []byte) error {
		if opt.Compress {
			data = corpus.Compress(data)
		}
		if c, _ := r.run(data); c.Remaining > 0 {
			all = append(all, FileMisses{Path: path, Remaining: c.Remaining, Missed: c.MissedByChecksum})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Missed != all[j].Missed {
			return all[i].Missed > all[j].Missed
		}
		return all[i].Path < all[j].Path
	})
	return all[:min(k, len(all))]
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	fs := tiedCorpus()
	for _, compress := range []bool{false, true} {
		opt := Options{CheckCRC: true, Compress: compress, TrackWorst: 5}
		want := worstOracle(t, fs, opt, opt.TrackWorst)
		tied := false
		for i := 1; i < len(want); i++ {
			tied = tied || want[i].Missed == want[i-1].Missed
		}
		if !tied {
			t.Fatalf("compress=%v: no Missed tie among the worst files %+v", compress, want)
		}
		var base Result
		for _, w := range []int{1, 2, 8} {
			opt.Workers = w
			res, err := Run(ctx(), fs, "x", opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.WorstFiles, want) {
				t.Errorf("compress=%v workers=%d: WorstFiles = %+v, want %+v", compress, w, res.WorstFiles, want)
			}
			if w == 1 {
				base = res
			} else if !reflect.DeepEqual(res, base) {
				t.Errorf("compress=%v: workers=%d changed the result:\n1: %+v\n%d: %+v", compress, w, base, w, res)
			}
		}
		if base.Files != uint64(len(fs.Specs)) || base.Packets == 0 || base.Bytes == 0 || base.Total == 0 {
			t.Errorf("compress=%v: empty result %+v", compress, base)
		}
	}
}

func TestCollectDeterministicAcrossWorkerCounts(t *testing.T) {
	// The distribution engine's core guarantee: identical merged shards
	// at any worker count.
	fs := tiny(21, corpus.CSource, 8, 4800)
	type snapshot struct {
		blocks  uint64
		pmax    float64
		pairs   uint64
		anyCong uint64
	}
	take := func(workers int) snapshot {
		opt := CollectOptions{Workers: workers}
		g, err := CollectGlobal(ctx(), fs, 2, opt)
		if err != nil {
			t.Fatal(err)
		}
		st, err := CollectLocal(ctx(), fs, 2, 1024, opt)
		if err != nil {
			t.Fatal(err)
		}
		ac, err := CollectLocalAnyCells(ctx(), fs, 2, 2048, 4, opt)
		if err != nil {
			t.Fatal(err)
		}
		return snapshot{g.Blocks(), g.CongruentProbability(), st.Pairs, ac.Congruent}
	}
	base := take(1)
	for _, w := range []int{2, 8} {
		if got := take(w); got != base {
			t.Errorf("workers=%d changed results: %+v vs %+v", w, got, base)
		}
	}
}

func TestCollectCancellation(t *testing.T) {
	fs := tiny(22, corpus.UniformRandom, 20, 4800)
	c, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CollectGlobal(c, fs, 1, CollectOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("CollectGlobal err = %v, want context.Canceled", err)
	}
	if _, err := Run(c, fs, "x", Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Run err = %v, want context.Canceled", err)
	}
}

func TestProgressCounters(t *testing.T) {
	fs := tiny(23, corpus.UniformRandom, 5, 1024)
	var prog Progress
	_, err := Run(ctx(), fs, "x", Options{Progress: &prog})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Files() != 5 || prog.Bytes() != 5*1024 {
		t.Errorf("progress = %d files, %d bytes; want 5 files, 5120 bytes",
			prog.Files(), prog.Bytes())
	}
	if _, err := CollectGlobal(ctx(), fs, 1, CollectOptions{Progress: &prog}); err != nil {
		t.Fatal(err)
	}
	if prog.Files() != 10 {
		t.Errorf("cumulative files = %d, want 10", prog.Files())
	}

	// A compressed run counts the compressed bytes the workers saw.
	var cprog Progress
	res, err := Run(ctx(), tiny(24, corpus.CSource, 5, 4096), "x", Options{Compress: true, Progress: &cprog})
	if err != nil {
		t.Fatal(err)
	}
	if cprog.Bytes() != res.Bytes || res.Bytes == 0 || res.Bytes >= 5*4096 {
		t.Errorf("compressed run: progress %d bytes, Result.Bytes %d; want equal and below %d",
			cprog.Bytes(), res.Bytes, 5*4096)
	}
}

func TestRunSegmentSizeAffectsPacketCount(t *testing.T) {
	fs := tiny(3, corpus.UniformRandom, 1, 1000)
	res, _ := Run(ctx(), fs, "x", Options{SegmentSize: 100})
	if res.Packets != 10 {
		t.Errorf("Packets = %d, want 10", res.Packets)
	}
}

func TestCompressReducesMissRate(t *testing.T) {
	// Table 7's effect: compression pushes the miss rate toward 2^-16.
	fs := tiny(4, corpus.GmonOut, 10, 8192)
	plain, err := Run(ctx(), fs, "plain", Options{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Run(ctx(), fs, "comp", Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	pr := plain.MissRate(plain.MissedByChecksum)
	cr := comp.MissRate(comp.MissedByChecksum)
	if pr == 0 {
		t.Skip("plain corpus produced no misses at this scale")
	}
	if cr >= pr {
		t.Errorf("compression did not reduce miss rate: %.6g -> %.6g", pr, cr)
	}
}

func TestZeroIPHeaderAblationRaisesMisses(t *testing.T) {
	// §6.2: leaving the IP header unfilled raises the miss count by
	// orders of magnitude on zero-heavy data.
	fs := tiny(5, corpus.GmonOut, 8, 8192)
	filled, _ := Run(ctx(), fs, "filled", Options{})
	zeroed, _ := Run(ctx(), fs, "zeroed", Options{Build: tcpip.BuildOptions{ZeroIPHeader: true}})
	if zeroed.MissedByChecksum <= filled.MissedByChecksum {
		t.Errorf("zeroed-header misses (%d) not above filled (%d)",
			zeroed.MissedByChecksum, filled.MissedByChecksum)
	}
}

func TestCollectCellHistogram(t *testing.T) {
	fs := tiny(6, corpus.UniformRandom, 2, 4800)
	for _, name := range []string{"tcp", "f255", "f256"} {
		h, err := CollectCellHistogram(ctx(), fs, algo.MustLookup(name), CollectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// 4800/48 = 100 cells per file, 2 files.
		if h.Total() != 200 {
			t.Errorf("alg %s: total = %d, want 200", name, h.Total())
		}
	}
}

func TestCollectGlobalAndLocal(t *testing.T) {
	fs := tiny(7, corpus.EnglishText, 3, 4800)
	g, err := CollectGlobal(ctx(), fs, 2, CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Blocks() != 3*50 {
		t.Errorf("blocks = %d, want 150", g.Blocks())
	}
	st, err := CollectLocal(ctx(), fs, 1, 512, CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs == 0 {
		t.Error("no local pairs sampled")
	}
	bh, err := CollectBlockHistogram(ctx(), fs, 2, CollectOptions{})
	if err != nil || bh.Total() != 150 {
		t.Errorf("block histogram: %v, total %d", err, bh.Total())
	}
}

// TestCollectBlockHistogramMatchesGlobal pins the histogram-only pass
// to the sampler it replaced for Figure 2 and Tables 4–6: summing each
// aligned block directly must fill the same buckets as the sampler's
// rolling k-cell windows, at every k the tables use and any worker
// count.  The corpus has odd-sized files and zero-filled blocks, where
// 0x0000 and 0xFFFF must share a bucket.
func TestCollectBlockHistogramMatchesGlobal(t *testing.T) {
	fs := corpus.StanfordU1().Scale(0.02).Build()
	for k := 1; k <= 5; k++ {
		for _, workers := range []int{1, 2} {
			opt := CollectOptions{Workers: workers}
			h, err := CollectBlockHistogram(ctx(), fs, k, opt)
			if err != nil {
				t.Fatal(err)
			}
			g, err := CollectGlobal(ctx(), fs, k, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := g.Histogram()
			if h.Total() != want.Total() || h.Total() == 0 {
				t.Fatalf("k=%d workers=%d: total %d, sampler %d", k, workers, h.Total(), want.Total())
			}
			for v := 0; v < 65536; v++ {
				if got, w := h.Count(uint16(v)), want.Count(uint16(v)); got != w {
					t.Fatalf("k=%d workers=%d: bucket %#04x = %d, sampler %d", k, workers, v, got, w)
				}
			}
		}
	}
}

func TestStructuredDataMissesMoreThanUniform(t *testing.T) {
	// The paper's central claim at the system level.
	uni := tiny(8, corpus.UniformRandom, 8, 8192)
	gmon := tiny(9, corpus.GmonOut, 8, 8192)
	u, _ := Run(ctx(), uni, "u", Options{})
	g, _ := Run(ctx(), gmon, "g", Options{})
	ur := u.MissRate(u.MissedByChecksum)
	gr := g.MissRate(g.MissedByChecksum)
	if gr <= ur {
		t.Errorf("structured data miss rate %.6g not above uniform %.6g", gr, ur)
	}
}

func TestFletcherBeatsTCPOnStructuredData(t *testing.T) {
	// Table 8's shape at miniature scale.
	gmon := tiny(10, corpus.GmonOut, 10, 8192)
	tcp, _ := Run(ctx(), gmon, "tcp", Options{})
	f256, _ := Run(ctx(), gmon, "f256", Options{Build: tcpip.BuildOptions{Alg: tcpip.AlgFletcher256}})
	tr := tcp.MissRate(tcp.MissedByChecksum)
	fr := f256.MissRate(f256.MissedByChecksum)
	if tr == 0 {
		t.Skip("no TCP misses at this scale")
	}
	if fr > tr {
		t.Errorf("Fletcher-256 miss rate %.6g above TCP %.6g", fr, tr)
	}
}

type failingWalker struct{}

func (failingWalker) Walk(fn func(string, []byte) error) error {
	fn("one", make([]byte, 512))
	return errTestWalk
}

var errTestWalk = errors.New("walk failed")

func TestRunPropagatesWalkError(t *testing.T) {
	res, err := Run(ctx(), failingWalker{}, "x", Options{})
	if err != errTestWalk {
		t.Fatalf("err = %v", err)
	}
	// The file delivered before the failure is still processed.
	if res.Files != 1 {
		t.Errorf("Files = %d", res.Files)
	}
	if _, err := CollectGlobal(ctx(), failingWalker{}, 1, CollectOptions{}); err != errTestWalk {
		t.Errorf("CollectGlobal err = %v", err)
	}
	if _, err := CollectLocal(ctx(), failingWalker{}, 1, 512, CollectOptions{}); err != errTestWalk {
		t.Errorf("CollectLocal err = %v", err)
	}
	if _, err := CollectLocalAnyCells(ctx(), failingWalker{}, 1, 512, 2, CollectOptions{}); err != errTestWalk {
		t.Errorf("CollectLocalAnyCells err = %v", err)
	}
	if _, err := CollectCellHistogram(ctx(), failingWalker{}, algo.MustLookup("tcp"), CollectOptions{}); err != errTestWalk {
		t.Errorf("CollectCellHistogram err = %v", err)
	}
}

func TestRunTrackWorst(t *testing.T) {
	fs := tiny(20, corpus.GmonOut, 6, 4096)
	res, err := Run(ctx(), fs, "x", Options{TrackWorst: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WorstFiles) == 0 || len(res.WorstFiles) > 3 {
		t.Fatalf("WorstFiles = %d", len(res.WorstFiles))
	}
	for i := 1; i < len(res.WorstFiles); i++ {
		if res.WorstFiles[i].Missed > res.WorstFiles[i-1].Missed {
			t.Fatal("not sorted by misses")
		}
	}
	// Without tracking, nothing is recorded.
	res2, _ := Run(ctx(), fs, "x", Options{})
	if res2.WorstFiles != nil {
		t.Error("WorstFiles recorded without TrackWorst")
	}
}
