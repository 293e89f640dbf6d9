// distribution reproduces a miniature Figure 2: scan a synthetic file
// system, histogram the TCP checksum of every 48-byte cell, and show
// how violently the distribution departs from uniform — then watch the
// convolution prediction (§4.4) fail to explain the measured multi-cell
// distribution because real data is locally correlated.
package main

import (
	"context"
	"fmt"

	"realsum/internal/algo"
	"realsum/internal/corpus"
	"realsum/internal/dist"
	"realsum/internal/report"
	"realsum/internal/sim"
)

func main() {
	ctx := context.Background()
	fs := corpus.StanfordU1().Build()
	fmt.Printf("corpus: %s (%d files, %s bytes)\n\n", fs.Name, len(fs.Specs), report.Count(uint64(fs.TotalBytes())))

	// Single-cell histogram (Figure 2a/b).
	h1, err := sim.CollectCellHistogram(ctx, fs, algo.MustLookup("tcp"), sim.CollectOptions{})
	if err != nil {
		panic(err)
	}
	v, p := h1.PMax()
	fmt.Printf("cells scanned:    %s\n", report.Count(h1.Total()))
	fmt.Printf("distinct values:  %s of 65535\n", report.Count(uint64(h1.Distinct())))
	fmt.Printf("most common:      %#04x at %s (uniform: %s)\n",
		v, report.Percent(p), report.Percent(1.0/65535))
	fmt.Printf("top 65 (0.1%%):    %s of all cells\n\n", report.Percent(h1.TopShare(65)))

	// The most common values, Figure 2(b) style.
	fmt.Println("ten most common cell checksums:")
	for _, vc := range h1.TopK(10) {
		fmt.Printf("  %#04x  %8s  %s\n", vc.Value, report.Count(vc.Count),
			report.Percent(float64(vc.Count)/float64(h1.Total())))
	}

	// Multi-cell blocks vs the i.i.d. prediction (§4.4).
	fmt.Println("\nP(two random k-cell blocks collide):")
	predicted := dist.SelfMatchPowers(dist.FromHistogram(h1), 4)
	for k := 1; k <= 4; k++ {
		g, err := sim.CollectGlobal(ctx, fs, k, sim.CollectOptions{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("  k=%d  uniform %-12s predicted %-12s measured %s\n",
			k,
			report.Percent(1.0/65535),
			report.Percent(predicted[k-1]),
			report.Percent(g.CongruentProbability()))
	}
	fmt.Println("\nmeasured stays far above predicted: cells are locally correlated,")
	fmt.Println("which is why the global distribution cannot predict splice failures (§4.5).")
}
