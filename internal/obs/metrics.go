// Package obs is the framework's runtime observability layer: an
// allocation-free metrics core safe to update from real-time paths,
// a causal tracer whose span contexts travel through membranes,
// across asynchronous buffers and over distributed bindings, an
// always-on flight recorder, and an exposition surface (Prometheus
// text, health, architecture introspection, Chrome trace_event
// export).
//
// The paper's membrane reifies every non-functional concern as a
// controller or interceptor; obs is the concern the membrane attaches
// for "seeing what a running system is doing". The package depends
// only on the standard library so every layer of the framework —
// including the RTSJ thread runtime — can carry its types.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. Updates are
// single atomic adds with no allocation, so counters are safe to
// bump from real-time paths.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
//
//soleil:noheap
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//soleil:noheap
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, health). Like
// Counter, updates are single atomic operations.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
//
//soleil:noheap
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n.
//
//soleil:noheap
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram bucket geometry: log-linear, HdrHistogram-style. Values
// (nanoseconds) are split into exponential "buckets" each covered by
// subBucketCount linearly spaced sub-buckets, so the relative
// quantile error is bounded by 1/subBucketCount (~3.1% here) at every
// magnitude while the whole structure stays a fixed array — no
// allocation, no resizing, bounded work per update. The RTSJ
// discipline applied to measurement.
const (
	subBucketBits      = 6
	subBucketCount     = 1 << subBucketBits // 64
	subBucketHalfCount = subBucketCount / 2 // 32
	subBucketMask      = int64(subBucketCount - 1)
	bucketCount        = 33
	// countsLen is the number of counter slots. Bucket 0 contributes
	// subBucketCount slots, every further bucket subBucketHalfCount
	// (its lower half aliases the previous bucket's upper half).
	countsLen = (bucketCount + 1) * subBucketHalfCount // 1088
	// maxTrackable is the largest recordable value: ~4.6 minutes in
	// nanoseconds. Larger observations clamp to it.
	maxTrackable = int64(subBucketCount)<<(bucketCount-1) - 1
)

// NumBuckets is the number of histogram counter slots; digests and
// snapshots are indexed 0..NumBuckets-1.
const NumBuckets = countsLen

// countsIndex maps a non-negative nanosecond value to its slot.
//
//soleil:noheap
func countsIndex(v int64) int {
	if v > maxTrackable {
		v = maxTrackable
	}
	// Position of the highest set bit, with the sub-bucket span
	// forced in so small values land in bucket 0.
	bucketIdx := bits.Len64(uint64(v)|uint64(subBucketMask)) - subBucketBits
	subBucketIdx := int(v >> uint(bucketIdx))
	return (bucketIdx+1)*subBucketHalfCount + (subBucketIdx - subBucketHalfCount)
}

// BucketValue returns the largest nanosecond value that slot i
// covers (the bucket's inclusive upper bound).
func BucketValue(i int) int64 {
	bucketIdx := i>>5 - 1 // i / subBucketHalfCount
	subBucketIdx := i&(subBucketHalfCount-1) + subBucketHalfCount
	if bucketIdx < 0 {
		subBucketIdx -= subBucketHalfCount
		bucketIdx = 0
	}
	lowest := int64(subBucketIdx) << uint(bucketIdx)
	return lowest + 1<<uint(bucketIdx) - 1
}

// expoBounds are the Prometheus exposition bucket upper bounds in
// nanoseconds. The HDR slots are far too fine-grained to emit one
// `le` series each; exposition re-bins the 1088 slots into these
// familiar bounds while quantiles are computed from the full
// resolution.
var expoBounds = [...]int64{
	1_000, 2_000, 5_000, // 1µs .. 5µs
	10_000, 20_000, 50_000, // 10µs .. 50µs
	100_000, 200_000, 500_000, // 100µs .. 500µs
	1_000_000, 2_000_000, 5_000_000, // 1ms .. 5ms
	10_000_000, 20_000_000, 50_000_000, // 10ms .. 50ms
	100_000_000, 500_000_000, // 100ms, 500ms
	1_000_000_000, 5_000_000_000, // 1s, 5s
}

// BucketBounds returns a copy of the exposition bucket upper bounds
// in nanoseconds (exposition uses it to render `le` labels).
func BucketBounds() []int64 {
	out := make([]int64, len(expoBounds))
	copy(out, expoBounds[:])
	return out
}

// expoBinOf[i] is the index into expoBounds of the first exposition
// bound that covers slot i's upper value, or len(expoBounds) for the
// overflow bin. Computed once; exposition uses it to re-bin
// snapshots exactly.
var expoBinOf = func() [countsLen]uint8 {
	var m [countsLen]uint8
	for i := 0; i < countsLen; i++ {
		v := BucketValue(i)
		b := 0
		for b < len(expoBounds) && v > expoBounds[b] {
			b++
		}
		m[i] = uint8(b)
	}
	return m
}()

// Histogram is a fixed-size log-linear latency histogram. Observe is
// a bit-scan plus a handful of atomic adds — zero allocations, no
// locks — so it sits on the membrane dispatch hot path, and the
// resolution (~3.1% relative error) makes p99/p99.9 real quantiles
// rather than bucket-bound guesses.
type Histogram struct {
	counts [countsLen]atomic.Int64
	sum    atomic.Int64 // nanoseconds
	n      atomic.Int64
	max    atomic.Int64 // nanoseconds, high watermark
}

// Observe records one latency observation.
//
//soleil:noheap
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[countsIndex(ns)].Add(1)
	h.sum.Add(ns)
	h.n.Add(1)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// ObserveSince records the latency elapsed since the *intended* start
// of the operation. Open-loop load drivers pass the wall-clock instant
// the arrival schedule said the operation should have begun — not the
// instant it actually did — so queueing delay accumulated before the
// operation was even issued lands in the recorded value. This is what
// makes the measurement coordinated-omission-safe: a stalled system
// cannot silence the arrivals it delayed.
//
//soleil:noheap
func (h *Histogram) ObserveSince(intendedStart time.Time) {
	h.Observe(time.Since(intendedStart))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the mean observation.
func (h *Histogram) Mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns an upper-bound estimate of the q-quantile: the
// upper value of the slot holding the q-ranked observation, clamped
// to the observed maximum. With the log-linear geometry the estimate
// is within ~3.1% of the true rank value.
//
//soleil:noheap
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	max := h.max.Load()
	var cum int64
	for i := 0; i < countsLen; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			if v := BucketValue(i); v < max {
				return time.Duration(v)
			}
			return time.Duration(max)
		}
	}
	return time.Duration(max)
}

// HistogramSnapshot is a consistent-enough copy for exposition and
// federation (slots are read one by one; scrapes tolerate the skew).
// It is also the unit of cross-node digest transfer: see
// AppendDigest / DecodeDigest.
type HistogramSnapshot struct {
	Counts [countsLen]int64
	Sum    int64 // nanoseconds
	Count  int64
	Max    int64 // nanoseconds
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	h.SnapshotInto(&s)
	return s
}

// SnapshotInto copies the histogram state into s without allocating,
// for callers that reuse a snapshot buffer on a periodic path. Count
// is the sum of the slot counts read, not the live total, so it
// always equals the snapshot's own slots (see MergeInto).
//
//soleil:noheap
func (h *Histogram) SnapshotInto(s *HistogramSnapshot) {
	var n int64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		n += c
	}
	s.Sum = h.sum.Load()
	s.Count = n
	s.Max = h.max.Load()
}

// MergeInto adds the histogram's live state into s without an
// intermediate snapshot, so periodic digest providers can fold many
// series into one snapshot allocation-free. Observe keeps running
// while the slots are read one by one, so the live total n can
// differ from the slots read; Count is therefore summed from those
// slots, which keeps a snapshot of a loaded histogram a valid digest.
//
//soleil:noheap
func (h *Histogram) MergeInto(s *HistogramSnapshot) {
	var n int64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] += c
		n += c
	}
	s.Sum += h.sum.Load()
	s.Count += n
	if m := h.max.Load(); m > s.Max {
		s.Max = m
	}
}

// Quantile is the snapshot analogue of Histogram.Quantile.
func (s *HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range s.Counts {
		c := s.Counts[i]
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			if v := BucketValue(i); v < s.Max {
				return time.Duration(v)
			}
			return time.Duration(s.Max)
		}
	}
	return time.Duration(s.Max)
}

// Merge adds o's observations into s. Histograms with identical
// fixed geometry merge slot-by-slot, which is what makes per-node
// digests federable into one cluster-wide distribution regardless of
// each node's recording window.
func (s *HistogramSnapshot) Merge(o *HistogramSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Sum += o.Sum
	s.Count += o.Count
	if o.Max > s.Max {
		s.Max = o.Max
	}
}
