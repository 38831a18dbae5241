package clock

import (
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
)

// alarmKind is one way to open an alarm, and how many arms the
// never-early test makes of it (a time.Timer wakes about a millisecond
// late, so it gets fewer).
type alarmKind struct {
	name string
	open func() *Alarm
	arms int
}

// alarmKinds lists NewAlarm's alarm and the time.Timer one, which is
// what NewAlarm returns outside Linux or without a timerfd.
func alarmKinds() []alarmKind {
	return []alarmKind{
		{"default", NewAlarm, 1000},
		{"timer", newTimerAlarm, 200},
	}
}

func TestAlarmNeverFiresEarly(t *testing.T) {
	for _, k := range alarmKinds() {
		t.Run(k.name, func(t *testing.T) {
			a := k.open()
			defer a.Close()
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < k.arms; i++ {
				due := Mono().Add(time.Duration(50+rng.Intn(451)) * Microsecond)
				if err := a.Arm(due); err != nil {
					t.Fatal(err)
				}
				if err := a.Wait(); err != nil {
					t.Fatal(err)
				}
				if now := Mono(); now.Before(due) {
					t.Fatalf("arm %d fired %v before its deadline", i, due.Sub(now))
				}
			}
		})
	}
}

// A waiter blocked on a far deadline wakes at the earlier one it is
// re-armed for.
func TestAlarmRearmEarlierFiresAtEarlier(t *testing.T) {
	for _, k := range alarmKinds() {
		t.Run(k.name, func(t *testing.T) {
			a := k.open()
			defer a.Close()
			if err := a.Arm(Mono().Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			type wake struct {
				at  Time
				err error
			}
			woke := make(chan wake, 1)
			go func() {
				err := a.Wait()
				woke <- wake{Mono(), err}
			}()
			time.Sleep(10 * time.Millisecond) // let the waiter block
			early := Mono().Add(2 * Millisecond)
			if err := a.Arm(early); err != nil {
				t.Fatal(err)
			}
			select {
			case w := <-woke:
				if w.err != nil {
					t.Fatal(w.err)
				}
				if w.at.Before(early) {
					t.Fatalf("fired %v before the earlier deadline", early.Sub(w.at))
				}
			case <-time.After(5 * time.Second):
				t.Fatal("re-armed alarm did not fire within 5s of its 2ms deadline")
			}
		})
	}
}

func TestAlarmCloseUnblocksWait(t *testing.T) {
	for _, k := range alarmKinds() {
		t.Run(k.name, func(t *testing.T) {
			a := k.open()
			if err := a.Arm(Mono().Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- a.Wait() }()
			time.Sleep(10 * time.Millisecond) // let the waiter block
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if !errors.Is(err, ErrAlarmClosed) {
					t.Fatalf("Wait = %v, want ErrAlarmClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not unblock Wait")
			}
			if err := a.Close(); err != nil {
				t.Fatalf("second Close = %v, want nil", err)
			}
			if err := a.Arm(Mono()); err != nil {
				t.Fatalf("Arm after Close = %v, want nil", err)
			}
			if err := a.Wait(); !errors.Is(err, ErrAlarmClosed) {
				t.Fatalf("Wait after Close = %v, want ErrAlarmClosed", err)
			}
		})
	}
}

// On Linux the alarm is a timerfd and wakes within microseconds: a
// 200µs time.Timer on an idle process waits out the poller's 1ms
// granularity instead.
func TestAlarmOvershootLinux(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the timerfd alarm is Linux-only")
	}
	a := NewAlarm()
	defer a.Close()
	if a.f == nil {
		t.Fatal("NewAlarm fell back to a time.Timer on Linux")
	}
	const arms, wait = 200, 200 * Microsecond
	over := make([]Duration, 0, arms)
	for i := 0; i < arms; i++ {
		due := Mono().Add(wait)
		if err := a.Arm(due); err != nil {
			t.Fatal(err)
		}
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
		over = append(over, Mono().Sub(due))
	}
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	med := over[arms/2]
	t.Logf("overshoot of %d arms at %v: median %v, p90 %v, max %v", arms, wait, med, over[arms*9/10], over[arms-1])
	if med >= 200*Microsecond {
		t.Fatalf("median overshoot %v, want < 200µs", med)
	}
}
