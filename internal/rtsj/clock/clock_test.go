package clock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualStartsAtZero(t *testing.T) {
	c := NewVirtual()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestVirtualAdvance(t *testing.T) {
	c := NewVirtual()
	if err := c.Advance(10 * Millisecond); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if got := c.Now(); got != Time(10*Millisecond) {
		t.Fatalf("Now() = %v, want 10ms", got)
	}
	if err := c.Advance(5 * Microsecond); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	want := Time(10*Millisecond + 5*Microsecond)
	if got := c.Now(); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestVirtualAdvanceNegativeRefused(t *testing.T) {
	c := NewVirtual()
	if err := c.Advance(-time.Nanosecond); err == nil {
		t.Fatal("Advance(-1ns) succeeded, want error")
	}
	if got := c.Now(); got != 0 {
		t.Fatalf("clock moved on refused advance: %v", got)
	}
}

func TestVirtualAdvanceTo(t *testing.T) {
	c := NewVirtual()
	if err := c.AdvanceTo(Time(42)); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	if err := c.AdvanceTo(Time(41)); err == nil {
		t.Fatal("AdvanceTo backwards succeeded, want error")
	}
	if got := c.Now(); got != Time(42) {
		t.Fatalf("Now() = %v, want 42", got)
	}
}

func TestVirtualConcurrentAdvance(t *testing.T) {
	c := NewVirtual()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				if err := c.Advance(Nanosecond); err != nil {
					t.Errorf("Advance: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != Time(workers*perWorker) {
		t.Fatalf("Now() = %v, want %d", got, workers*perWorker)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(100)
	b := a.Add(50 * Nanosecond)
	if b != Time(150) {
		t.Fatalf("Add: got %v", b)
	}
	if d := b.Sub(a); d != 50*Nanosecond {
		t.Fatalf("Sub: got %v", d)
	}
	if !a.Before(b) || b.Before(a) {
		t.Fatal("Before ordering wrong")
	}
	if !b.After(a) || a.After(b) {
		t.Fatal("After ordering wrong")
	}
}

// Property: Add then Sub is identity for non-negative durations.
func TestTimeAddSubRoundTrip(t *testing.T) {
	f := func(base int64, delta uint32) bool {
		tm := Time(base)
		d := Duration(delta)
		return tm.Add(d).Sub(tm) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a virtual clock is monotonic across any sequence of valid
// advances.
func TestVirtualMonotonicProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		c := NewVirtual()
		last := c.Now()
		for _, s := range steps {
			if err := c.Advance(Duration(s)); err != nil {
				return false
			}
			now := c.Now()
			if now.Before(last) {
				return false
			}
			last = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMonoMonotonic(t *testing.T) {
	a := Mono()
	time.Sleep(time.Millisecond)
	b := Mono()
	if !b.After(a) || b.Sub(a) < time.Millisecond {
		t.Fatalf("Mono not monotonic: %v then %v across a 1ms sleep", a, b)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1500).String(); got != "1.5µs" {
		t.Fatalf("String() = %q", got)
	}
}
