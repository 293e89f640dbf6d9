package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"realsum/internal/algo"
)

// benchAlgoRecord is one line of BENCH_algo.json: the one-shot
// throughput of a registry algorithm at one input size, in the units
// `go test -bench -benchmem` reports.  CRC records additionally name
// the selected bulk kernel and, at the bulk size, carry the slicing-by-8
// baseline the kernel layer is measured against.
type benchAlgoRecord struct {
	Algo        string  `json:"algo"`
	WidthBits   int     `json:"width_bits"`
	SizeBytes   int     `json:"size_bytes"`
	Kernel      string  `json:"kernel,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	GBPerS      float64 `json:"gb_per_s"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Slicing8NsPerOp and the speedup ratio are recorded for CRC
	// algorithms on bulk input: the same buffer timed with the kernel
	// layer pinned to slicing-by-8, the pre-kernel-layer engine.
	Slicing8NsPerOp float64 `json:"slicing8_ns_per_op,omitempty"`
	KernelSpeedup   float64 `json:"kernel_speedup_vs_slicing8,omitempty"`
}

// benchAlgoSizes are the input sizes BENCH_algo.json tracks: an ATM
// cell payload's worth, an Ethernet MTU, and bulk.
var benchAlgoSizes = []int{64, 1500, 64 << 10}

// runBenchAlgoJSON times every registry algorithm's one-shot Sum at
// each size and writes the records to path.  Each measurement is the
// fastest of iters rounds; a round repeats Sum often enough to process
// a fixed byte budget, so small-buffer records are not timer-bound.
func runBenchAlgoJSON(path string, iters int) error {
	if iters < 1 {
		return fmt.Errorf("-benchiters must be >= 1 (got %d)", iters)
	}
	rng := rand.New(rand.NewPCG(42, 42))
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}

	var records []benchAlgoRecord
	for _, a := range algo.All() {
		for _, size := range benchAlgoSizes {
			buf := data[:size]
			rec := benchAlgoRecord{
				Algo:       a.Name(),
				WidthBits:  a.Width(),
				SizeBytes:  size,
				Iterations: iters,
			}
			kc, hasKernel := a.(algo.KernelControl)
			if hasKernel {
				rec.Kernel = kc.Kernel()
			}
			var allocs float64
			rec.NsPerOp, allocs = timeSum(a, buf, iters)
			rec.GBPerS = float64(size) / rec.NsPerOp
			rec.AllocsPerOp = allocs
			if hasKernel && size == 64<<10 {
				selected := kc.Kernel()
				if err := kc.SetKernel("slicing8"); err != nil {
					return fmt.Errorf("%s: pinning slicing8 baseline: %w", a.Name(), err)
				}
				rec.Slicing8NsPerOp, _ = timeSum(a, buf, iters)
				if err := kc.SetKernel(selected); err != nil {
					return fmt.Errorf("%s: restoring kernel %s: %w", a.Name(), selected, err)
				}
				rec.KernelSpeedup = rec.Slicing8NsPerOp / rec.NsPerOp
			}
			records = append(records, rec)
			fmt.Fprintf(os.Stderr, "[benchalgo %s/%d: %.0f ns/op, %.3f GB/s, %.1f allocs/op%s]\n",
				rec.Algo, size, rec.NsPerOp, rec.GBPerS, rec.AllocsPerOp, benchAlgoKernelNote(rec))
		}
	}

	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}

func benchAlgoKernelNote(rec benchAlgoRecord) string {
	if rec.Kernel == "" {
		return ""
	}
	if rec.KernelSpeedup != 0 {
		return fmt.Sprintf(", kernel %s %.2fx vs slicing8", rec.Kernel, rec.KernelSpeedup)
	}
	return ", kernel " + rec.Kernel
}

// timeSum returns the ns/op and allocs/op of a.Sum over buf: the best
// of iters rounds, each covering at least benchAlgoRoundBytes so the
// per-call overhead of the clock disappears.
func timeSum(a algo.Algorithm, buf []byte, iters int) (nsPerOp, allocsPerOp float64) {
	const benchAlgoRoundBytes = 1 << 22
	reps := benchAlgoRoundBytes / len(buf)
	if reps < 1 {
		reps = 1
	}
	var sink uint64
	runtime.GC()
	// One untimed call after the GC, so the timed region sees only
	// steady-state behavior.
	sink ^= algo.Sum(a, buf)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	best := time.Duration(1 << 62)
	for it := 0; it < iters; it++ {
		start := time.Now()
		for r := 0; r < reps; r++ {
			sink ^= algo.Sum(a, buf)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	runtime.ReadMemStats(&m1)
	benchAlgoSink ^= sink
	return float64(best.Nanoseconds()) / float64(reps),
		float64(m1.Mallocs-m0.Mallocs) / float64(iters*reps)
}

// benchAlgoSink keeps the timing loops' checksums live.
var benchAlgoSink uint64
