package main

import "testing"

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		percentile float64
		value      float64
	}{
		{11, 100.0 / 11, 1},
		{100, 90, 90},
		{400, 97.5, 390},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i + 1) // descending: the rule must sort
		}
		got, err := tailPercentile(xs)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if got.Percentile != tc.percentile || got.Value != tc.value || got.Samples != tc.n || got.Beyond != tailBeyond {
			t.Errorf("n=%d: got %+v, want p%v = %v over %d samples with %d beyond", tc.n, got, tc.percentile, tc.value, tc.n, tailBeyond)
		}
		beyond := 0
		for _, x := range xs {
			if x > got.Value {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the reported value, want %d", tc.n, beyond, tailBeyond)
		}
	}
}

func TestTailPercentileNeedsElevenSamples(t *testing.T) {
	if _, err := tailPercentile(make([]float64, tailBeyond)); err == nil {
		t.Fatal("tail of 10 samples: want an error, got none")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}
