// Package clock provides the time bases of the RTSJ runtime.
//
// The Real-Time Specification for Java assumes a high-resolution,
// monotonic clock with well-defined semantics for absolute and relative
// times (RTSJ chapter 9). The runtime runs its real-time machinery in
// two ways, and each has its own time base:
//
//   - Virtual: a logical clock advanced explicitly by the scheduler.
//     It is fully deterministic and is what every scheduling decision,
//     release time and deadline in the simulated runtime is expressed
//     against.
//   - Mono and Alarm: the host monotonic clock, read as an instant
//     since process start, and a one-shot alarm set against it that
//     wakes its waiter within microseconds of the deadline. The
//     wall-clock pacer releases periodic and sporadic components on
//     them.
package clock

import (
	"fmt"
	"sync"
	"time"
)

// Time is an instant on a Clock, expressed in nanoseconds since the
// clock's epoch. The virtual clock's epoch is its creation; Mono's is
// process start.
type Time int64

// Duration re-exports time.Duration for call-site convenience.
type Duration = time.Duration

// Common durations used throughout the runtime.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// String renders the instant as a duration since the epoch.
func (t Time) String() string { return Duration(t).String() }

// Clock is the time source used by the scheduler and threads.
type Clock interface {
	// Now returns the current instant.
	Now() Time
}

// Virtual is a deterministic logical clock. It only moves when Advance
// or AdvanceTo is called — typically by the scheduler when every task
// is waiting for a future release.
//
// The zero value is ready to use and starts at instant 0.
type Virtual struct {
	mu  sync.Mutex
	now Time
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock starting at instant 0.
func NewVirtual() *Virtual { return &Virtual{} }

// Now returns the current virtual instant.
func (c *Virtual) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d. Advancing by a negative
// duration is a programming error and returns an error without moving
// the clock.
func (c *Virtual) Advance(d Duration) error {
	if d < 0 {
		return fmt.Errorf("clock: advance by negative duration %v", d)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return nil
}

// AdvanceTo moves the clock to instant t. Moving backwards is refused.
func (c *Virtual) AdvanceTo(t Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t < c.now {
		return fmt.Errorf("clock: cannot move backwards from %v to %v", c.now, t)
	}
	c.now = t
	return nil
}

// epoch is the instant Mono reads as zero.
var epoch = time.Now()

// Mono returns the host monotonic clock's reading as an instant since
// process start. Alarm deadlines are instants of Mono.
func Mono() Time { return Time(time.Since(epoch)) }
