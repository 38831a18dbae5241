package clock

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// clockMonotonic is CLOCK_MONOTONIC, the clock Go's own monotonic
// readings come from on Linux.
const clockMonotonic = 1

// openTimerFD opens a non-blocking CLOCK_MONOTONIC timerfd as a file
// on the runtime's poller, and returns it with its descriptor number.
func openTimerFD() (*os.File, int, error) {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, -1, errno
	}
	f := os.NewFile(fd, "timerfd")
	// A descriptor the poller did not take would block a thread in
	// read(2), and closing it would not wake that read.
	if err := f.SetReadDeadline(time.Time{}); err != nil {
		f.Close()
		return nil, -1, err
	}
	return f, int(fd), nil
}

// itimerspec is the kernel's struct itimerspec; syscall.Timespec has
// the platform's layout, 32-bit fields included.
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

// setTimerFD sets fd to expire once, d from now.
func setTimerFD(fd int, d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		return errno
	}
	return nil
}
