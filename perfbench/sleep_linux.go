package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The runtime's timers wake sub-millisecond
// sleeps up to a millisecond late, which would swamp the open loop's
// schedule, so the thread sleeps in nanosleep instead.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop re-checks the clock
	}
}
