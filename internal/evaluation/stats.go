package evaluation

// The statistics of the paper's benchmarking method (Sect. 5.1):
// execution-time summaries (median, jitter, percentiles), histograms,
// distribution-shape distances and memory-footprint accounting.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Summary condenses a sample set the way Fig. 7(b) reports it.
type Summary struct {
	N      int
	Min    time.Duration
	Max    time.Duration
	Mean   time.Duration
	Median time.Duration
	P95    time.Duration
	P99    time.Duration
	// Jitter is the mean absolute deviation from the median — the
	// "average jitter" of Fig. 7(b).
	Jitter time.Duration
}

// Summarize computes summary statistics over samples.
func Summarize(samples []time.Duration) Summary {
	var s Summary
	s.N = len(samples)
	if s.N == 0 {
		return s
	}
	sorted := make([]time.Duration, s.N)
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	s.Min, s.Max = sorted[0], sorted[s.N-1]
	var total time.Duration
	for _, v := range sorted {
		total += v
	}
	s.Mean = total / time.Duration(s.N)
	s.Median = percentile(sorted, 0.50)
	s.P95 = percentile(sorted, 0.95)
	s.P99 = percentile(sorted, 0.99)

	var dev time.Duration
	for _, v := range sorted {
		if v >= s.Median {
			dev += v - s.Median
		} else {
			dev += s.Median - v
		}
	}
	s.Jitter = dev / time.Duration(s.N)
	return s
}

// percentile returns the p-quantile of sorted samples (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Bucket is one bar of a histogram.
type Bucket struct {
	Lo, Hi time.Duration
	Count  int
}

// Histogram buckets samples into n equal-width bins.
func Histogram(samples []time.Duration, n int) []Bucket {
	if len(samples) == 0 || n <= 0 {
		return nil
	}
	lo, hi := samples[0], samples[0]
	for _, v := range samples {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// Round the width up so n buckets always cover [lo, hi].
	width := (hi - lo + time.Duration(n)) / time.Duration(n)
	buckets := make([]Bucket, n)
	for i := range buckets {
		buckets[i].Lo = lo + time.Duration(i)*width
		buckets[i].Hi = buckets[i].Lo + width
	}
	buckets[n-1].Hi = hi + 1
	for _, v := range samples {
		idx := int((v - lo) / width)
		if idx >= n {
			idx = n - 1
		}
		buckets[idx].Count++
	}
	return buckets
}

// RenderHistogram writes an ASCII histogram, the textual analogue of
// Fig. 7(a)'s distribution plot.
func RenderHistogram(w io.Writer, title string, buckets []Bucket) error {
	max := 0
	total := 0
	for _, b := range buckets {
		if b.Count > max {
			max = b.Count
		}
		total += b.Count
	}
	if _, err := fmt.Fprintf(w, "%s (%d observations)\n", title, total); err != nil {
		return err
	}
	if max == 0 {
		return nil
	}
	const width = 50
	for _, b := range buckets {
		bar := strings.Repeat("#", b.Count*width/max)
		if _, err := fmt.Fprintf(w, "  %10v - %-10v %6d %s\n", b.Lo, b.Hi, b.Count, bar); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the samples as a one-column CSV (header `ns`).
func WriteCSV(w io.Writer, samples []time.Duration) error {
	if _, err := io.WriteString(w, "ns\n"); err != nil {
		return err
	}
	for _, s := range samples {
		if _, err := fmt.Fprintf(w, "%d\n", int64(s)); err != nil {
			return err
		}
	}
	return nil
}

// KSStatistic computes the two-sample Kolmogorov-Smirnov statistic —
// the maximum distance between the empirical CDFs of a and b, in
// [0,1]. The paper argues from Fig. 7(a) that the framework "does not
// introduce any non-determinism" because the OO and SOLEIL curves are
// similar; the KS distance quantifies that similarity (0 = identical
// distributions).
func KSStatistic(a, b []time.Duration) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	as := append([]time.Duration(nil), a...)
	bs := append([]time.Duration(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	var i, j int
	var maxDist float64
	for i < len(as) && j < len(bs) {
		va, vb := as[i], bs[j]
		if va <= vb {
			for i < len(as) && as[i] == va {
				i++
			}
		}
		if vb <= va {
			for j < len(bs) && bs[j] == vb {
				j++
			}
		}
		fa := float64(i) / float64(len(as))
		fb := float64(j) / float64(len(bs))
		if d := fa - fb; d > maxDist {
			maxDist = d
		} else if -d > maxDist {
			maxDist = -d
		}
	}
	return maxDist
}

// ShiftedKS computes the KS statistic after subtracting each sample
// set's median — comparing distribution *shapes* with the location
// difference (the constant framework overhead) removed.
func ShiftedKS(a, b []time.Duration) float64 {
	return KSStatistic(center(a), center(b))
}

func center(s []time.Duration) []time.Duration {
	med := Summarize(s).Median
	out := make([]time.Duration, len(s))
	for i, v := range s {
		out[i] = v - med
	}
	return out
}

// heapGrowth reports the live-heap growth attributable to build: it
// garbage-collects, snapshots the heap, runs build, garbage-collects
// again and diffs. The built value is returned so it stays reachable
// across the final collection (and so callers can keep it alive
// afterwards).
func heapGrowth(build func() any) (bytes int64, kept any) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept = build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), kept
}
