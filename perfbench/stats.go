package main

import (
	"fmt"
	"sort"
)

// tailPerTenThousand lists the tail percentiles a timing may be reported at,
// highest first, in parts per ten thousand (p99.99, p99.9, p99, p90). Integer
// ranks avoid the float rounding of q·n at exact boundaries.
var tailPerTenThousand = []int{9999, 9990, 9900, 9000}

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: fewer than ten makes a tail a single outlier.
const minBeyond = 10

// summary reduces one timing's samples the way the benchmark reports every
// timing: the median, the highest percentile that still has at least ten
// samples beyond it, and the sample count.
type summary struct {
	N      int
	Median float64
	// TailQ is the reported percentile in parts per ten thousand, 0 when no
	// percentile has minBeyond samples beyond it.
	TailQ int
	Tail  float64
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := summary{N: len(s), Median: median(s)}
	for _, q := range tailPerTenThousand {
		if rank := nearestRank(len(s), q); len(s) > 0 && len(s)-rank >= minBeyond {
			sum.TailQ, sum.Tail = q, s[rank-1]
			break
		}
	}
	return sum
}

// String renders the summary with the percentile's name, e.g.
// "p50 1.234 p99 2.345 (n=2000)".
func (s summary) String() string {
	if s.TailQ == 0 {
		return fmt.Sprintf("p50 %.4g (n=%d, no tail with %d beyond)", s.Median, s.N, minBeyond)
	}
	return fmt.Sprintf("p50 %.4g %s %.4g (n=%d)", s.Median, percentileName(s.TailQ), s.Tail, s.N)
}

func percentileName(perTenThousand int) string {
	return fmt.Sprintf("p%g", float64(perTenThousand)/100)
}

// nearestRank is the 1-based nearest-rank position of the q/10000 percentile
// among n sorted samples: ceil(q·n/10000), at least 1.
func nearestRank(n, perTenThousand int) int {
	r := (perTenThousand*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank q/10000 percentile of sorted samples.
func percentile(sorted []float64, perTenThousand int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), perTenThousand)-1]
}

// median of sorted samples: the middle one, or the mean of the two middles.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
