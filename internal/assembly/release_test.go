package assembly

import (
	"testing"
	"time"

	"soleil/internal/rtsj/clock"
)

// Deadlines armed out of order each fire at or after their own
// instant, and a cancelled one does not fire.
func TestReleaseClockFiresEachSlotAtItsDeadline(t *testing.T) {
	c := releaseClock{report: func(err error) { t.Error(err) }}
	defer c.close()
	slots := make([]releaseSlot, 4)
	dues := make([]clock.Time, len(slots))
	base := clock.Mono()
	for i, ms := range []time.Duration{3, 1, 2, 1} {
		slots[i].rel = make(chan struct{}, 1)
		dues[i] = base.Add(ms * time.Millisecond)
		c.arm(&slots[i], dues[i])
	}
	c.cancel(&slots[3])
	for i := range slots[:3] {
		select {
		case <-slots[i].rel:
			if now := clock.Mono(); now.Before(dues[i]) {
				t.Fatalf("slot %d released %v before its deadline", i, dues[i].Sub(now))
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("slot %d not released within 2s", i)
		}
	}
	time.Sleep(5 * time.Millisecond)
	select {
	case <-slots[3].rel:
		t.Fatal("cancelled slot released")
	default:
	}
}

// One release deadline armed on a pacer's release clock and fired into
// its slot's channel; the alarm is already open, as it is after a
// pacer's first timed release.
func BenchmarkReleaseClockHotPath(b *testing.B) {
	c := releaseClock{report: func(err error) { b.Error(err) }}
	defer c.close()
	s := &releaseSlot{rel: make(chan struct{}, 1)}
	c.arm(s, clock.Mono())
	<-s.rel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.arm(s, clock.Mono().Add(time.Microsecond))
		<-s.rel
	}
}
