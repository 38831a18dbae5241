package obs

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestCountsIndexGeometry pins the log-linear slot math: every value
// lands in a slot whose range contains it, slots are monotone, and
// the extremes map inside the array.
func TestCountsIndexGeometry(t *testing.T) {
	if got := countsIndex(0); got != 0 {
		t.Errorf("countsIndex(0) = %d, want 0", got)
	}
	if got := countsIndex(maxTrackable); got != countsLen-1 {
		t.Errorf("countsIndex(max) = %d, want %d", got, countsLen-1)
	}
	if got := countsIndex(maxTrackable + 12345); got != countsLen-1 {
		t.Errorf("over-max not clamped: slot %d", got)
	}
	// Exhaustive low range, then exponential samples: the slot's
	// value range must contain the value, with ~3.1% width.
	check := func(v int64) {
		t.Helper()
		i := countsIndex(v)
		if i < 0 || i >= countsLen {
			t.Fatalf("countsIndex(%d) = %d out of range", v, i)
		}
		ub := BucketValue(i)
		if v > ub {
			t.Errorf("value %d above its slot upper bound %d (slot %d)", v, ub, i)
		}
		if i > 0 {
			if lb := BucketValue(i - 1); v <= lb {
				t.Errorf("value %d at or below previous slot bound %d (slot %d)", v, lb, i)
			}
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	for v := int64(1); v > 0 && v <= maxTrackable/3; v *= 3 {
		check(v)
		check(v + v/7)
	}
	check(maxTrackable)

	// Monotone slot upper bounds.
	prev := int64(-1)
	for i := 0; i < countsLen; i++ {
		ub := BucketValue(i)
		if ub <= prev {
			t.Fatalf("BucketValue not monotone at slot %d: %d <= %d", i, ub, prev)
		}
		prev = ub
	}
}

// TestHistogramHighResolutionQuantiles proves the point of the HDR
// upgrade: p99 and p99.9 of a bimodal distribution are separable and
// within ~3.1% of the true rank values — the old 19-bucket histogram
// would have collapsed both onto one bucket bound.
func TestHistogramHighResolutionQuantiles(t *testing.T) {
	var h Histogram
	// 9800 fast ops at 100µs, 185 at 3ms, 15 at 9ms: p99 lands in
	// the 3ms mode, p99.9 in the 9ms tail.
	for i := 0; i < 9800; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 185; i++ {
		h.Observe(3 * time.Millisecond)
	}
	for i := 0; i < 15; i++ {
		h.Observe(9 * time.Millisecond)
	}

	within := func(got, want time.Duration) bool {
		return got >= want && got <= want+want*32/1000
	}
	if p99 := h.Quantile(0.99); !within(p99, 3*time.Millisecond) {
		t.Errorf("p99 = %v, want ~3ms", p99)
	}
	if p999 := h.Quantile(0.999); !within(p999, 9*time.Millisecond) {
		t.Errorf("p99.9 = %v, want ~9ms", p999)
	}
	if p50 := h.Quantile(0.50); !within(p50, 100*time.Microsecond) {
		t.Errorf("p50 = %v, want ~100µs", p50)
	}
}

func TestHistogramSnapshotQuantileMatches(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	snap := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		if hq, sq := h.Quantile(q), snap.Quantile(q); hq != sq {
			t.Errorf("q=%v: histogram %v != snapshot %v", q, hq, sq)
		}
	}
}

func TestDigestRoundTrip(t *testing.T) {
	var h Histogram
	for i := 0; i < 500; i++ {
		h.Observe(50 * time.Microsecond)
	}
	for i := 0; i < 5; i++ {
		h.Observe(20 * time.Millisecond)
	}
	snap := h.Snapshot()

	buf := AppendDigest(nil, &snap, DigestFlagBreached)
	if len(buf) > 256 {
		t.Errorf("digest is %d bytes; want compact (<= 256) for heartbeat piggybacking", len(buf))
	}
	var back HistogramSnapshot
	flags, err := DecodeDigest(buf, &back)
	if err != nil {
		t.Fatal(err)
	}
	if flags&DigestFlagBreached == 0 {
		t.Error("breached flag lost in transit")
	}
	if back != snap {
		t.Error("decoded snapshot differs from original")
	}
	if p99a, p99b := snap.Quantile(0.99), back.Quantile(0.99); p99a != p99b {
		t.Errorf("p99 changed in transit: %v != %v", p99a, p99b)
	}
}

func TestDigestDecodeRejectsGarbage(t *testing.T) {
	var s HistogramSnapshot
	if _, err := DecodeDigest(nil, &s); err == nil {
		t.Error("nil digest accepted")
	}
	if _, err := DecodeDigest([]byte{99, 0, 1}, &s); err == nil {
		t.Error("unknown version accepted")
	}
	var h Histogram
	h.Observe(time.Millisecond)
	snap := h.Snapshot()
	buf := AppendDigest(nil, &snap, 0)
	if _, err := DecodeDigest(buf[:len(buf)-1], &s); err == nil {
		t.Error("truncated digest accepted")
	}
	for _, c := range corruptDigests() {
		if _, err := DecodeDigest(c.digest, &s); !errors.Is(err, ErrDigestCorrupt) {
			t.Errorf("%s: DecodeDigest = %v, want ErrDigestCorrupt", c.name, err)
		}
	}
}

// corruptDigests are well-framed digests whose values a decoder must
// refuse.
func corruptDigests() []struct {
	name   string
	digest []byte
} {
	const huge = 1<<63 + 12345 // decodes to a negative int64
	return []struct {
		name   string
		digest []byte
	}{
		{"max beyond int64, no slots", rawDigest(1, 0, huge)},
		{"max beyond int64", rawDigest(1, 0, huge, 1, 1)},
		{"sum beyond int64", rawDigest(1, huge, 1, 1, 1)},
		{"count above its slots", rawDigest(1000, 0, 1, 1, 1, 1, 2)},
		{"count below its slots", rawDigest(2, 0, 1, 1, 1, 1, 2)},
		{"slot counts overflowing", rawDigest(1, 0, 1, 1, 1<<64-1, 1, 2)},
		{"slot moving backwards", rawDigest(8, 0, 1, 6, 1, 1<<64-1, 2, 1, 5)},
		{"slot past the last", rawDigest(1, 0, 1, NumBuckets+1, 1)},
	}
}

// FuzzDecodeDigest feeds arbitrary heartbeat payloads to the digest
// decoder. It must never panic; a digest it accepts must be
// self-consistent (Count is the sum of the slot counts, Sum and Max
// are not negative) and must survive re-encoding unchanged.
func FuzzDecodeDigest(f *testing.F) {
	var h Histogram
	for _, d := range []time.Duration{0, time.Microsecond, 50 * time.Microsecond, 20 * time.Millisecond, time.Hour} {
		h.Observe(d)
		snap := h.Snapshot()
		f.Add(AppendDigest(nil, &snap, 0))
		f.Add(AppendDigest(nil, &snap, DigestFlagBreached))
	}
	for _, c := range corruptDigests() {
		f.Add(c.digest)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s HistogramSnapshot
		flags, err := DecodeDigest(data, &s)
		if err != nil {
			return
		}
		var total int64
		for _, c := range s.Counts {
			if c < 0 {
				t.Fatalf("negative slot count %d", c)
			}
			total += c
		}
		if s.Count != total || s.Sum < 0 || s.Max < 0 {
			t.Fatalf("accepted inconsistent digest: count %d (slots %d), sum %d, max %d", s.Count, total, s.Sum, s.Max)
		}
		var back HistogramSnapshot
		if bflags, err := DecodeDigest(AppendDigest(nil, &s, flags), &back); err != nil || bflags != flags || back != s {
			t.Fatalf("re-encoded digest does not decode to itself: %v", err)
		}
	})
}

// rawDigest encodes a version-1 digest field by field, trusting its
// arguments: count, sum, max, then (slot delta, count) pairs.
func rawDigest(count, sum, max uint64, pairs ...uint64) []byte {
	b := []byte{digestVersion, 0}
	for _, v := range []uint64{count, sum, max, uint64(len(pairs) / 2)} {
		b = binary.AppendUvarint(b, v)
	}
	for _, v := range pairs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestSnapshotCountMatchesSlotsUnderObserve takes snapshots while
// writers observe: each snapshot's Count must equal the slots it
// read, or its own digest would not decode.
func TestSnapshotCountMatchesSlotsUnderObserve(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(time.Duration(i%4096) * time.Microsecond)
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	var s, back HistogramSnapshot
	var buf []byte
	for i := 0; i < 500; i++ {
		if i%2 == 0 {
			h.SnapshotInto(&s)
		} else {
			s = HistogramSnapshot{}
			h.MergeInto(&s)
		}
		var sum int64
		for _, c := range s.Counts {
			sum += c
		}
		if s.Count != sum {
			t.Fatalf("snapshot %d: Count = %d, slots sum to %d", i, s.Count, sum)
		}
		buf = AppendDigest(buf[:0], &s, 0)
		if _, err := DecodeDigest(buf, &back); err != nil {
			t.Fatalf("snapshot %d: own digest rejected: %v", i, err)
		}
	}
}

// TestDigestEncodeSteadyStateAllocs proves the periodic heartbeat
// path reuses its buffer without growing it.
func TestDigestEncodeSteadyStateAllocs(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	var snap HistogramSnapshot
	h.SnapshotInto(&snap)
	buf := AppendDigest(nil, &snap, 0)
	allocs := testing.AllocsPerRun(100, func() {
		h.SnapshotInto(&snap)
		buf = AppendDigest(buf[:0], &snap, 0)
	})
	if allocs != 0 {
		t.Errorf("steady-state digest encode allocates %.1f objects per op, want 0", allocs)
	}
}

// TestSnapshotMergeAcrossWindows merges digests from two nodes with
// very different recording windows (one long-lived, one freshly
// restarted) and checks the merged distribution is coherent.
func TestSnapshotMergeAcrossWindows(t *testing.T) {
	var longWindow, shortWindow Histogram
	for i := 0; i < 10000; i++ {
		longWindow.Observe(200 * time.Microsecond)
	}
	for i := 0; i < 50; i++ {
		shortWindow.Observe(8 * time.Millisecond)
	}
	a, b := longWindow.Snapshot(), shortWindow.Snapshot()

	merged := a
	merged.Merge(&b)
	if merged.Count != a.Count+b.Count {
		t.Errorf("merged count = %d, want %d", merged.Count, a.Count+b.Count)
	}
	if merged.Sum != a.Sum+b.Sum {
		t.Errorf("merged sum = %d, want %d", merged.Sum, a.Sum+b.Sum)
	}
	if merged.Max != b.Max {
		t.Errorf("merged max = %d, want the slow node's %d", merged.Max, b.Max)
	}
	// The short window's slow tail must surface in the merged p99.9
	// even though the long window dominates by count.
	if p999 := merged.Quantile(0.999); p999 < 8*time.Millisecond {
		t.Errorf("merged p99.9 = %v, want >= 8ms (tail from the short window)", p999)
	}
	if p50 := merged.Quantile(0.50); p50 > 210*time.Microsecond {
		t.Errorf("merged p50 = %v, want ~200µs (bulk from the long window)", p50)
	}

	// Merge must be order-independent.
	other := b
	other.Merge(&a)
	if other != merged {
		t.Error("merge is order-dependent")
	}
}
