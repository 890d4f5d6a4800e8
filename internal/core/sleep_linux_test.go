package core

import (
	"syscall"
	"time"
)

// sleepPrecise blocks the calling goroutine's thread for d. A Go timer
// is no use for a test device's latency or a test's commit pace: with
// every other goroutine parked the runtime waits for it in epoll_wait,
// whose timeout is in whole milliseconds, so a 200 µs sleep returns
// after 1.08 ms. nanosleep(2) uses a high-resolution timer.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
