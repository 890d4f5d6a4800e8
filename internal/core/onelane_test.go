package core

import (
	"errors"
	"testing"
	"time"

	"aether/internal/logdev"
)

// TestOneLaneConsumesNoSeq: the 32-bit global sequence space is a
// resource of N >= 2 lanes only. A coordinator whose counter already
// sits at the last assignable seq still appends on one lane — stamping
// with LSNs, leaving Record.Seq 0 and the counter where it was — while
// on two lanes the very next append is refused.
func TestOneLaneConsumesNoSeq(t *testing.T) {
	mem := func() logdev.Device { return logdev.NewMem(logdev.ProfileMemory) }
	one, err := NewMultiLog(Config{}, []logdev.Device{mem()}, maxSeq)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	ap := one.NewAppender()
	for i := 0; i < 3; i++ {
		rec := mlUpdate(42)
		at, end, pageStamp, recStamp, err := ap.Append(0, rec)
		if err != nil {
			t.Fatalf("one-lane append %d: %v", i, err)
		}
		if pageStamp != end || recStamp != at || rec.Seq != 0 || rec.Aux != 0 {
			t.Fatalf("one-lane append %d: stamps (%v, %v) for a record at [%v, %v), seq %d aux %d; want (end, start), 0, 0",
				i, pageStamp, recStamp, at, end, rec.Seq, rec.Aux)
		}
	}
	if got := one.LastSeq(); got != maxSeq {
		t.Fatalf("one-lane appends moved the seq counter from %d to %d", uint64(maxSeq), got)
	}

	two, err := NewMultiLog(Config{}, []logdev.Device{mem(), mem()}, maxSeq)
	if err != nil {
		t.Fatal(err)
	}
	defer two.Close()
	if _, _, _, _, err := two.NewAppender().Append(0, mlUpdate(42)); !errors.Is(err, ErrSeqExhausted) {
		t.Fatalf("two-lane append past the last seq: %v, want ErrSeqExhausted", err)
	}
}

// TestOneLaneAppendTakesNoCoordinatorLock: with the coordinator's
// dependency lock and lane 0's append lock both held by somebody else, a
// one-lane append, the durable horizon, a force and the stamp floor all
// complete — none of them may pass through the N-lane machinery, which
// would serialize the inserts the consolidation array runs in parallel.
func TestOneLaneAppendTakesNoCoordinatorLock(t *testing.T) {
	ml, err := NewMultiLog(Config{}, []logdev.Device{logdev.NewMem(logdev.ProfileMemory)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()
	ap := ml.NewAppender()

	ml.depMu.Lock()
	ml.parts[0].appendMu.Lock()
	done := make(chan error, 1)
	go func() {
		_, end, pageStamp, _, err := ap.Append(0, mlUpdate(7))
		if err == nil {
			err = ml.Force(pageStamp)
		}
		if err == nil && (ml.Durable() < end || ml.StampFloor() != end) {
			err = errors.New("durable horizon or stamp floor is not lane 0's")
		}
		ml.SampleHorizon()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("a one-lane append, Force, Durable or StampFloor waited on a coordinator lock")
	}
	ml.parts[0].appendMu.Unlock()
	ml.depMu.Unlock()
}
