package assembly

import (
	"errors"
	"sync"

	"soleil/internal/rtsj/clock"
)

// releaseClock fires a pacer's timed releases: a periodic driver's
// next period, a sporadic driver's minimum interarrival time and the
// retry of a failed drain. Each driver owns one slot, kept in its
// component's taskHolder, that holds at most one deadline; when the
// deadline passes, the clock posts on the slot's one-slot release
// channel, which is the channel the driver waits on. One alarm, set for
// the earliest pending deadline, wakes the clock's goroutine. The first
// arm opens the alarm and starts that goroutine, so a pacer with no
// timed release opens no descriptor and starts no goroutine.
type releaseClock struct {
	mu      sync.Mutex
	pending *releaseSlot // slots with a deadline, unordered
	alarm   *clock.Alarm // open while pending is non-empty
	armed   clock.Time   // the deadline the alarm is set for, 0 if none
	report  func(error)
	wg      sync.WaitGroup
}

// releaseSlot is one driver's place on the release clock.
type releaseSlot struct {
	rel  chan struct{} // the driver's release channel
	due  clock.Time    // the pending deadline, 0 if none
	next *releaseSlot  // the clock's pending list, while due != 0
}

// arm sets s's deadline in place of any pending one.
func (c *releaseClock) arm(s *releaseSlot, due clock.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.due == 0 {
		s.next, c.pending = c.pending, s
	}
	s.due = due
	if c.alarm == nil {
		c.alarm = clock.NewAlarm()
		c.wg.Add(1)
		go c.run(c.alarm)
	}
	if c.armed == 0 || due < c.armed {
		c.setAlarm(due)
	}
}

// cancel clears s's pending deadline, if it has one. The alarm stays
// set; if it was set for s, it wakes the clock for nothing.
func (c *releaseClock) cancel(s *releaseSlot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.due == 0 {
		return
	}
	for p := &c.pending; *p != nil; p = &(*p).next {
		if *p == s {
			*p = s.next
			break
		}
	}
	s.due, s.next = 0, nil
}

// run waits on the alarm until it is closed.
func (c *releaseClock) run(a *clock.Alarm) {
	defer c.wg.Done()
	for {
		if err := a.Wait(); err != nil {
			if !errors.Is(err, clock.ErrAlarmClosed) {
				c.report(err)
			}
			return
		}
		c.fire()
	}
}

// fire posts a release to every slot whose deadline has passed and
// sets the alarm for the earliest deadline left.
func (c *releaseClock) fire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := clock.Mono()
	var next clock.Time
	for p := &c.pending; *p != nil; {
		s := *p
		if s.due > now {
			if next == 0 || s.due < next {
				next = s.due
			}
			p = &s.next
			continue
		}
		*p, s.next, s.due = s.next, nil, 0
		select {
		case s.rel <- struct{}{}:
		default: // a release is already pending
		}
	}
	c.armed = 0
	if next != 0 {
		c.setAlarm(next)
	}
}

func (c *releaseClock) setAlarm(due clock.Time) {
	c.armed = due
	if err := c.alarm.Arm(due); err != nil {
		c.report(err)
	}
}

// close closes the alarm, joins the clock's goroutine and drops every
// pending deadline; the next arm opens a new alarm.
func (c *releaseClock) close() {
	c.mu.Lock()
	a := c.alarm
	for s := c.pending; s != nil; {
		next := s.next
		s.next, s.due = nil, 0
		s = next
	}
	c.pending, c.alarm, c.armed = nil, nil, 0
	c.mu.Unlock()
	if a != nil {
		a.Close()
		c.wg.Wait()
	}
}
