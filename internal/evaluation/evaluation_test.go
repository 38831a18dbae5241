package evaluation

import (
	"testing"
	"time"
)

func TestUnknownVariant(t *testing.T) {
	if _, err := New("FANCY"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestAllVariantsFunctionallyEquivalent(t *testing.T) {
	const n = 320 // 20 anomaly cycles
	sums := make(map[string]uint64)
	for _, name := range VariantNames {
		v, err := New(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < n; i++ {
			if err := v.Transaction(); err != nil {
				t.Fatalf("%s transaction %d: %v", name, i, err)
			}
		}
		sums[name] = v.Checksum()
		v.Close()
	}
	for _, name := range VariantNames[1:] {
		if sums[name] != sums["OO"] {
			t.Errorf("%s checksum %d != OO checksum %d — variants diverge functionally",
				name, sums[name], sums["OO"])
		}
	}
	if sums["OO"] == 0 {
		t.Error("checksum never advanced")
	}
}

func TestMeasureTiming(t *testing.T) {
	v, err := New("ULTRA-MERGE")
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	r, err := MeasureTiming(v, 50, 200)
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.N != 200 {
		t.Fatalf("N = %d", r.Summary.N)
	}
	if r.Summary.Median <= 0 {
		t.Fatalf("median = %v", r.Summary.Median)
	}
	if len(r.Samples) != 200 {
		t.Fatalf("samples = %d", len(r.Samples))
	}
	if r.Variant != "ULTRA-MERGE" {
		t.Fatalf("variant = %s", r.Variant)
	}
}

func TestMeasureTimingDiscardsWarmup(t *testing.T) {
	// The cold-start prefix is discarded: none of the slow warmup
	// transactions is among the samples, and exactly the asked-for number
	// of steady-state samples is kept.
	const slow = 20 * time.Millisecond
	n := 0
	coldStart := &Variant{Name: "cold-start", Transaction: func() error {
		if n++; n <= 3 {
			time.Sleep(slow)
		}
		return nil
	}}
	r, err := MeasureTiming(coldStart, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("transactions run = %d, want 3 warmup + 5 observed", n)
	}
	if len(r.Samples) != 5 || r.Summary.N != 5 || r.Summary.Max >= slow {
		t.Fatalf("warmup not discarded: %d samples, %+v", len(r.Samples), r.Summary)
	}
}

func TestMeasureAllTimingsSmall(t *testing.T) {
	rs, err := MeasureAllTimings(20, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("results = %d", len(rs))
	}
	for i, r := range rs {
		if r.Variant != VariantNames[i] {
			t.Errorf("order: %s at %d", r.Variant, i)
		}
		if r.Summary.Median <= 0 {
			t.Errorf("%s median = %v", r.Variant, r.Summary.Median)
		}
	}
}

func TestMeasureFootprint(t *testing.T) {
	r, err := MeasureFootprint("SOLEIL")
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes <= 0 {
		t.Fatalf("footprint = %d", r.Bytes)
	}
}

func TestFrameworkVariantScopeHygiene(t *testing.T) {
	// After any number of transactions, the console scope must be
	// fully reclaimed (no leak across iterations).
	v, err := New("SOLEIL")
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for i := 0; i < 100; i++ {
		if err := v.Transaction(); err != nil {
			t.Fatal(err)
		}
	}
}
