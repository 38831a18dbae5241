package clock

import (
	"errors"
	"os"
	"sync"
	"time"
)

// ErrAlarmClosed is what Wait returns once its alarm is closed.
var ErrAlarmClosed = errors.New("clock: alarm closed")

// Alarm is a one-shot alarm on Mono that wakes its waiter within
// microseconds of the deadline. Go's timers are serviced by the
// runtime's network poller, whose wait has millisecond resolution, so
// on an otherwise idle process a sub-millisecond time.Timer fires up
// to a millisecond late. On Linux the alarm is a CLOCK_MONOTONIC
// timerfd read through that same poller: a blocked Wait parks its
// goroutine as a socket read does, holding no thread and spinning on
// nothing, and the kernel's high-resolution timer makes the descriptor
// readable. Elsewhere, or where no timerfd can be opened, it is a
// time.Timer.
//
// Arm and Close may be called from any goroutine; one goroutine at a
// time may Wait.
type Alarm struct {
	mu     sync.Mutex
	closed bool

	// The timerfd path: the descriptor as a file on the poller (nil on
	// the timer path), its number and the buffer a read of its
	// expiration count lands in.
	f   *os.File
	fd  int
	buf [8]byte

	// The timer path: the armed deadline (0 when none), a one-slot
	// channel its expiry is posted on, and the channel Close closes.
	timer *time.Timer
	due   Time
	fired chan struct{}
	done  chan struct{}
}

// NewAlarm returns an unarmed alarm.
func NewAlarm() *Alarm {
	if f, fd, err := openTimerFD(); err == nil {
		return &Alarm{f: f, fd: fd}
	}
	return newTimerAlarm()
}

// newTimerAlarm returns an unarmed alarm on a time.Timer.
func newTimerAlarm() *Alarm {
	return &Alarm{fired: make(chan struct{}, 1), done: make(chan struct{})}
}

// Arm sets the alarm to fire at deadline, an instant of Mono, in place
// of any earlier setting, fired or not. A deadline already passed
// fires at once. The alarm never fires before its deadline. Arming a
// closed alarm does nothing.
func (a *Alarm) Arm(deadline Time) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	// The delay is taken relative to a reading made before the alarm
	// is set, so it can only end at or after the deadline. A zero
	// delay would disarm a timerfd.
	d := deadline.Sub(Mono())
	if d <= 0 {
		d = Nanosecond
	}
	if a.f != nil {
		return setTimerFD(a.fd, d)
	}
	a.due = deadline
	select {
	case <-a.fired: // posted for the setting this one replaces
	default:
	}
	if a.timer == nil {
		a.timer = time.AfterFunc(d, a.expire)
	} else {
		a.timer.Reset(d)
	}
	return nil
}

// expire posts the timer path's expiry, unless the alarm was re-armed
// for a later deadline after this run of the timer was scheduled.
func (a *Alarm) expire() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.due == 0 || Mono() < a.due {
		return
	}
	a.due = 0
	select {
	case a.fired <- struct{}{}:
	default:
	}
}

// Wait blocks until the alarm fires. It returns ErrAlarmClosed once
// the alarm is closed, including when Close interrupts it.
func (a *Alarm) Wait() error {
	if a.f == nil {
		select {
		case <-a.fired:
			return nil
		case <-a.done:
			return ErrAlarmClosed
		}
	}
	if _, err := a.f.Read(a.buf[:]); err != nil {
		if errors.Is(err, os.ErrClosed) {
			return ErrAlarmClosed
		}
		return err
	}
	return nil
}

// Close disarms the alarm, releases its descriptor and wakes a blocked
// Wait. Closing a closed alarm does nothing.
func (a *Alarm) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	if a.f != nil {
		return a.f.Close()
	}
	if a.timer != nil {
		a.timer.Stop()
	}
	close(a.done)
	return nil
}
