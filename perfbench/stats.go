package main

import (
	"fmt"
	"sort"
	"time"
)

// tailBeyond is the number of samples the reported tail percentile must
// leave beyond it: with fewer, a single outlier would set the figure.
const tailBeyond = 10

// median returns the median of xs (the mean of the middle pair for an
// even count).  It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest nearest-rank percentile of a sample set that
// still has tailBeyond samples above it.
type tail struct {
	Percentile float64 // e.g. 97.5
	Value      float64
	Samples    int // sample count the percentile was taken over
	Beyond     int // samples strictly above the reported rank
}

// String renders the tail with its percentile and sample count.
func (t tail) String() string {
	return fmt.Sprintf("p%.2f of %d samples (%d beyond)", t.Percentile, t.Samples, t.Beyond)
}

// tailPercentile applies the tail rule: with n sorted samples, rank
// n-tailBeyond (1-based) is the highest rank that leaves tailBeyond
// samples beyond it, and it sits at percentile 100·(n-tailBeyond)/n.
// Fewer than tailBeyond+1 samples have no such rank, which is an error.
func tailPercentile(xs []float64) (tail, error) {
	n := len(xs)
	if n <= tailBeyond {
		return tail{}, fmt.Errorf("tail percentile needs more than %d samples, have %d", tailBeyond, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := n - tailBeyond
	return tail{
		Percentile: 100 * float64(rank) / float64(n),
		Value:      s[rank-1],
		Samples:    n,
		Beyond:     n - rank,
	}, nil
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
