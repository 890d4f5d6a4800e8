package bench

import (
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/metrics"
	"aether/internal/storage"
	"aether/internal/txn"
)

// newRigWithFlushInterval builds a rig whose flush daemon looks for
// pending detached commits every interval (the AblationGroupCommit knob).
func newRigWithFlushInterval(interval time.Duration) (*Rig, error) {
	dev := logdev.NewMem(logdev.ProfileFlash)
	lm, err := core.New(core.Config{
		Buffer:        logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 24},
		Device:        dev,
		FlushInterval: interval,
		// Disable the X-commits and L-bytes triggers: the first look that
		// finds a group then holds it until its commits stop arriving or
		// the group window has passed, and flushes it.
		FlushTxns:  1 << 30,
		FlushBytes: 1 << 30,
	})
	if err != nil {
		return nil, err
	}
	eng, err := txn.NewEngine(txn.Config{
		Log:     core.OneLane(lm),
		Locks:   lockmgr.New(lockmgr.Config{DeadlockTimeout: 250 * time.Millisecond, SLI: true}),
		Store:   storage.NewStore(),
		Archive: storage.NewMemArchive(),
	})
	if err != nil {
		lm.Close()
		return nil, err
	}
	return &Rig{Eng: eng, Dev: dev, Breakdown: &metrics.Breakdown{}, lm: lm}, nil
}
