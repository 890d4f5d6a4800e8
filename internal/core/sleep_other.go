//go:build !linux

package core

import "time"

// sleepPrecise blocks for d, as precisely as the runtime's timers allow.
func sleepPrecise(d time.Duration) { time.Sleep(d) }
