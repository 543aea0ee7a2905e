package main

import (
	"testing"
)

// ramp returns the samples 1..n.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestSummarizeChoosesHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantQ     int
		wantValue float64
	}{
		{n: 5, wantQ: 0},  // too few for any tail
		{n: 99, wantQ: 0}, // p90 would have 9 beyond
		{n: 100, wantQ: 9000, wantValue: 90},
		{n: 999, wantQ: 9000, wantValue: 900}, // p99 would have 9 beyond
		{n: 1000, wantQ: 9900, wantValue: 990},
		{n: 10000, wantQ: 9990, wantValue: 9990},
		{n: 100000, wantQ: 9999, wantValue: 99990},
	} {
		s := summarize(ramp(tc.n))
		if s.N != tc.n || s.TailQ != tc.wantQ || (tc.wantQ != 0 && s.Tail != tc.wantValue) {
			t.Errorf("n=%d: got %+v, want tail q=%d value %v", tc.n, s, tc.wantQ, tc.wantValue)
		}
		if beyond := tc.n - nearestRank(tc.n, s.TailQ); s.TailQ != 0 && beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the reported percentile", tc.n, beyond)
		}
	}
}

func TestSummarizeMedianAndOrder(t *testing.T) {
	if got := summarize([]float64{3, 1, 2}).Median; got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := summarize([]float64{4, 1, 3, 2}).Median; got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := []float64{5, 4, 3, 2, 1}
	summarize(xs)
	if xs[0] != 5 {
		t.Error("summarize reordered its input")
	}
}

func TestPercentileNames(t *testing.T) {
	for q, want := range map[int]string{9000: "p90", 9900: "p99", 9990: "p99.9", 9999: "p99.99"} {
		if got := percentileName(q); got != want {
			t.Errorf("percentileName(%d) = %q, want %q", q, got, want)
		}
	}
}
