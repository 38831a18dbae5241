package main

import (
	"math"
	"sort"
)

// The benchmark keeps raw samples and computes every statistic here,
// exactly, so that changes to the repository's own histograms cannot
// move the ruler.

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least a fraction q of the samples at or below it.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// medianF returns the median of xs (mean of the middle pair for an
// even count).
func medianF(xs []float64) float64 {
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

// quartiles returns the first quartile, the median and the third
// quartile of xs by the method of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so spreads
// printed here match those computed from the same values elsewhere.
// A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), medianF(s), cut(3)
}

// madJitter is the paper's Fig. 7(b) jitter: the mean absolute
// deviation of the samples from their median.
func madJitter(sorted []int64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	med := float64(quantile(sorted, 0.5))
	var sum float64
	for _, v := range sorted {
		sum += math.Abs(float64(v) - med)
	}
	return sum / float64(len(sorted))
}

// supportedQuantile reports whether n samples leave at least ten
// beyond the q-quantile.
func supportedQuantile(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

func us(ns int64) float64    { return float64(ns) / 1e3 }
func usF(ns float64) float64 { return ns / 1e3 }
