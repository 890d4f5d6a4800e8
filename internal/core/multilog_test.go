package core

import (
	"strings"
	"testing"
	"time"

	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
)

// newTestMulti builds a 2-partition MultiLog over the given devices with
// flush triggers disarmed (huge thresholds, long interval) so the tests
// control exactly when each daemon flushes via Flush() pokes.
func newTestMulti(t *testing.T, devs []logdev.Device) *MultiLog {
	t.Helper()
	lms := make([]*LogManager, len(devs))
	for i, dev := range devs {
		lm, err := New(Config{
			Buffer:        logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 18},
			Device:        dev,
			FlushTxns:     1 << 20,
			FlushBytes:    1 << 30,
			FlushInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		lms[i] = lm
	}
	ml, err := NewMultiLog(lms, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ml.Close() })
	return ml
}

func mlUpdate(page uint64) *logrec.Record {
	return logrec.NewUpdate(1, lsn.Undefined, page, logrec.UpdatePayload{
		Op: logrec.OpSet, After: []byte("value"),
	})
}

// TestMultiLogDeadPartitionPoisonsDependents is the regression test for
// a hang found by the partitioned soak storm: when one partition's
// device dies, a commit on a *different* partition whose flush was
// clamped by a dependency edge on the dead log must fail with an error,
// not wait forever for a durable horizon that can never advance.
func TestMultiLogDeadPartitionPoisonsDependents(t *testing.T) {
	// Partition 0 has a filesystem of its own, so its power can be cut
	// while partition 1 keeps running.
	dev0, fs0 := faultDev(t)
	ml := newTestMulti(t, []logdev.Device{dev0, logdev.NewMem(logdev.ProfileMemory)})

	// Page 42's first update lands on partition 0 and is left buffered
	// (triggers are disarmed), so partition 1's conflicting update below
	// records an enforced cross-log edge.
	if _, _, _, err := ml.Append(0, mlUpdate(42)); err != nil {
		t.Fatal(err)
	}
	_, end1, _, err := ml.Append(1, mlUpdate(42))
	if err != nil {
		t.Fatal(err)
	}
	if got := ml.EdgesEnforced(); got != 1 {
		t.Fatalf("enforced edges = %d, want 1", got)
	}

	// Partition 0's device dies before its buffered record hardens; its
	// next flush attempt poisons partition 0.
	fs0.PowerCut()
	ml.Part(0).Flush()
	waitFor(t, time.Second, func() bool { return ml.Part(0).Failed() != nil })

	// A committer on partition 1 waits past the clamped edge. Without
	// poison propagation this blocks forever: partition 0 can never reach
	// the edge's target, so partition 1's flush stays clamped below end1.
	errCh := make(chan error, 1)
	go func() { errCh <- ml.Part(1).WaitDurable(end1) }()
	ml.Part(1).Flush()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("dependent commit reported durable past an edge into a dead log")
		}
		if !strings.Contains(err.Error(), "failed log partition 0") {
			t.Fatalf("dependent commit error = %v, want the dependency-poison error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dependent commit still waiting on a dead partition's durable horizon")
	}
}

// TestMultiLogClampedCommitPokesTargetLane: with every timer and
// threshold disarmed, a blocking commit whose home lane is clamped by a
// cross-lane edge must still return — the parked thread wakes its own
// lane, whose clamp pokes the edge's target lane, whose durable notify
// pokes the home lane back.
func TestMultiLogClampedCommitPokesTargetLane(t *testing.T) {
	ml := newTestMulti(t, []logdev.Device{
		logdev.NewMem(logdev.ProfileMemory),
		logdev.NewMem(logdev.ProfileMemory),
	})
	// Page 7 is updated on lane 0 and left buffered there; the
	// conflicting update on lane 1 registers an enforced edge.
	if _, _, _, err := ml.Append(0, mlUpdate(7)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ml.Append(1, mlUpdate(7)); err != nil {
		t.Fatal(err)
	}
	_, end, _, err := ml.Append(1, logrec.NewCommit(1, lsn.Undefined))
	if err != nil {
		t.Fatal(err)
	}
	if got := ml.EdgesEnforced(); got != 1 {
		t.Fatalf("enforced edges = %d, want 1", got)
	}
	done := make(chan error, 1)
	go func() { done <- ml.Part(1).WaitDurable(end) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("clamped blocking commit hung: nothing flushed the edge's target lane")
	}
	if ml.DepStalls(1) == 0 {
		t.Fatal("lane 1 was never clamped: the test did not exercise the edge")
	}
	if got := ml.Part(0).Durable(); got != ml.Part(0).AppendEnd() {
		t.Fatalf("target lane durable %v, want its append end %v", got, ml.Part(0).AppendEnd())
	}
}

// waitFor polls cond until it is true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
