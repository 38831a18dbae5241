package evaluation

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarize(t *testing.T) {
	samples := []time.Duration{10, 20, 30, 40, 50}
	s := Summarize(samples)
	if s.N != 5 || s.Min != 10 || s.Max != 50 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Mean != 30 || s.Median != 30 {
		t.Fatalf("central = mean %v median %v", s.Mean, s.Median)
	}
	// MAD from median 30: (20+10+0+10+20)/5 = 12.
	if s.Jitter != 12 {
		t.Fatalf("jitter = %v", s.Jitter)
	}
	if s.P95 != 50 || s.P99 != 50 {
		t.Fatalf("tails = %v, %v", s.P95, s.P99)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Median != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0.5); got != 5 {
		t.Fatalf("p50 = %v", got)
	}
	if got := percentile(sorted, 0.95); got != 10 {
		t.Fatalf("p95 = %v", got)
	}
	if got := percentile(sorted, 1.0); got != 10 {
		t.Fatalf("p100 = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	samples := []time.Duration{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	buckets := Histogram(samples, 5)
	if len(buckets) != 5 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	total := 0
	for _, b := range buckets {
		total += b.Count
	}
	if total != 10 {
		t.Fatalf("histogram lost samples: %d", total)
	}
	for _, b := range buckets {
		if b.Count != 2 {
			t.Fatalf("uneven buckets: %+v", buckets)
		}
	}
	if Histogram(nil, 5) != nil || Histogram(samples, 0) != nil {
		t.Fatal("degenerate histograms should be nil")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	buckets := Histogram([]time.Duration{7, 7, 7}, 4)
	total := 0
	for _, b := range buckets {
		total += b.Count
	}
	if total != 3 {
		t.Fatalf("identical-value histogram lost samples: %d", total)
	}
}

func TestRenderHistogram(t *testing.T) {
	var sb strings.Builder
	buckets := Histogram([]time.Duration{1000, 2000, 2000, 3000}, 2)
	if err := RenderHistogram(&sb, "test", buckets); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "test (4 observations)") {
		t.Fatalf("header missing: %q", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("bars missing: %q", out)
	}
	var empty strings.Builder
	if err := RenderHistogram(&empty, "none", nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, []time.Duration{1500, 2500}); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "ns\n1500\n2500\n" {
		t.Fatalf("csv = %q", sb.String())
	}
}

func TestHeapGrowth(t *testing.T) {
	const size = 1 << 20
	bytes, kept := heapGrowth(func() any {
		return make([]byte, size)
	})
	if kept == nil {
		t.Fatal("built value lost")
	}
	if bytes < size/2 {
		t.Fatalf("footprint = %d, want >= %d", bytes, size/2)
	}
}

// Property: histogram conserves the sample count, and the summary's
// min/median/max are consistent with the sorted samples.
func TestStatsConsistencyProperty(t *testing.T) {
	f := func(raw []uint16, n8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, v := range raw {
			samples[i] = time.Duration(v)
		}
		n := int(n8%10) + 1
		total := 0
		for _, b := range Histogram(samples, n) {
			total += b.Count
		}
		if total != len(samples) {
			return false
		}
		s := Summarize(samples)
		sorted := append([]time.Duration(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if s.Min != sorted[0] || s.Max != sorted[len(sorted)-1] {
			return false
		}
		return s.Median >= s.Min && s.Median <= s.Max && s.P95 >= s.Median
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestKSStatistic(t *testing.T) {
	a := []time.Duration{1, 2, 3, 4, 5}
	if got := KSStatistic(a, a); got != 0 {
		t.Fatalf("identical KS = %v", got)
	}
	b := []time.Duration{101, 102, 103, 104, 105}
	if got := KSStatistic(a, b); got != 1 {
		t.Fatalf("disjoint KS = %v", got)
	}
	if got := KSStatistic(nil, a); got != 1 {
		t.Fatalf("empty KS = %v", got)
	}
	// A pure location shift disappears under ShiftedKS.
	shifted := make([]time.Duration, len(a))
	for i, v := range a {
		shifted[i] = v + 100
	}
	if got := ShiftedKS(a, shifted); got != 0 {
		t.Fatalf("shifted-shape KS = %v", got)
	}
}

func TestKSStatisticPartialOverlap(t *testing.T) {
	a := []time.Duration{1, 2, 3, 4}
	b := []time.Duration{3, 4, 5, 6}
	got := KSStatistic(a, b)
	if got <= 0 || got >= 1 {
		t.Fatalf("partial overlap KS = %v", got)
	}
}
