package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// lockPrecise pins the calling goroutine to its thread and shrinks the
// thread's timer slack, so sleepUntil wakes within microseconds. The
// runtime's own timers on this path wake up to a millisecond late,
// which would show as generator lateness on every request.
func lockPrecise() {
	runtime.LockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
}

// sleepUntil blocks the thread until t. Long waits sleep in two steps,
// because a long sleep wakes later than a short one.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > time.Millisecond {
			d -= 500 * time.Microsecond
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// daemonAttr makes the kernel kill tbaad if the benchmark dies before
// it can stop the daemon itself.
func daemonAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
