//go:build !linux

package clock

import (
	"errors"
	"os"
	"time"
)

var errNoTimerFD = errors.New("clock: timerfd is Linux-only")

// openTimerFD fails: outside Linux every alarm is on a time.Timer.
func openTimerFD() (*os.File, int, error) { return nil, -1, errNoTimerFD }

func setTimerFD(int, time.Duration) error { return errNoTimerFD }
