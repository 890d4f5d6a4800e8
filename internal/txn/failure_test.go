package txn

import (
	"errors"
	"testing"
	"time"

	"aether/internal/lockmgr"
	"aether/internal/vfs"
)

// TestDeviceFailureFailsCommits injects a log-device failure mid-run and
// checks that committing transactions observe the error instead of
// silently "succeeding" without durability.
func TestDeviceFailureFailsCommits(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()
	defer ag.Close()

	tx := ag.Begin()
	if err := tx.Insert(tbl, 1, row(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk on fire")
	h.fs.AddRule(vfs.Rule{Path: "*.seg", Err: boom})

	tx = ag.Begin()
	if err := tx.Insert(tbl, 2, row(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(CommitSync, nil); !errors.Is(err, boom) {
		t.Fatalf("commit on failed device: %v", err)
	}
}

// TestDeviceFailurePipelinedCallbacksGetError checks the detached
// (pipelined) path delivers device errors through the completion
// callback.
func TestDeviceFailurePipelinedCallbacksGetError(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()
	defer ag.Close()

	boom := errors.New("controller reset")
	h.fs.AddRule(vfs.Rule{Path: "*.seg", Err: boom})

	tx := ag.Begin()
	if err := tx.Insert(tbl, 1, row(1, 1)); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	if err := tx.Commit(CommitPipelined, func(err error) { errCh <- err }); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, boom) {
			t.Fatalf("callback error: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("callback never delivered the failure")
	}
}

// TestDeadlockVictimCanRetry exercises the full deadlock → abort →
// retry loop applications use.
func TestDeadlockVictimCanRetry(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	agA := h.eng.NewAgent()
	agB := h.eng.NewAgent()
	defer agA.Close()
	defer agB.Close()

	seed := agA.Begin()
	seed.Insert(tbl, 1, row(1, 1))
	seed.Insert(tbl, 2, row(2, 2))
	if err := seed.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}

	// Build a real deadlock: A holds 1 wants 2; B holds 2 wants 1.
	txA := agA.Begin()
	txB := agB.Begin()
	if err := txA.Update(tbl, 1, func(r []byte) ([]byte, error) { return row(1, 10), nil }); err != nil {
		t.Fatal(err)
	}
	if err := txB.Update(tbl, 2, func(r []byte) ([]byte, error) { return row(2, 20), nil }); err != nil {
		t.Fatal(err)
	}
	resA := make(chan error, 1)
	resB := make(chan error, 1)
	go func() {
		resA <- txA.Update(tbl, 2, func(r []byte) ([]byte, error) { return row(2, 21), nil })
	}()
	go func() {
		resB <- txB.Update(tbl, 1, func(r []byte) ([]byte, error) { return row(1, 11), nil })
	}()
	errA, errB := <-resA, <-resB
	// At least one side must have timed out.
	if !errors.Is(errA, lockmgr.ErrLockTimeout) && !errors.Is(errB, lockmgr.ErrLockTimeout) {
		t.Fatalf("no deadlock victim: %v / %v", errA, errB)
	}
	finish := func(tx *Txn, err error) {
		if err != nil {
			if aerr := tx.Abort(); aerr != nil {
				t.Fatalf("victim abort: %v", aerr)
			}
			return
		}
		if cerr := tx.Commit(CommitSync, nil); cerr != nil {
			t.Fatalf("survivor commit: %v", cerr)
		}
	}
	finish(txA, errA)
	finish(txB, errB)

	// Retry the victim's work; it must succeed now.
	retry := agA.Begin()
	if err := retry.Update(tbl, 1, func(r []byte) ([]byte, error) { return row(1, 100), nil }); err != nil {
		t.Fatal(err)
	}
	if err := retry.Update(tbl, 2, func(r []byte) ([]byte, error) { return row(2, 200), nil }); err != nil {
		t.Fatal(err)
	}
	if err := retry.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAbortDuringDeviceFailure ensures rollback still works (in memory)
// when the log device is failing: the transaction's effects are undone
// even though CLRs cannot be made durable.
func TestAbortDuringDeviceFailure(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()
	defer ag.Close()

	seed := ag.Begin()
	seed.Insert(tbl, 1, row(1, 50))
	if err := seed.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}

	tx := ag.Begin()
	if err := tx.Update(tbl, 1, func(r []byte) ([]byte, error) { return row(1, 999), nil }); err != nil {
		t.Fatal(err)
	}
	h.fs.AddRule(vfs.Rule{Path: "*.seg", Err: errors.New("gone")})
	// Abort may fail to log its CLRs, but must still restore memory
	// state (recovery would handle the durable side after a crash).
	_ = tx.Abort()
	h.fs.ClearRules()

	check := ag.Begin()
	got, err := check.Read(tbl, 1)
	if err != nil || rowValue(got) != 50 {
		t.Fatalf("abort under failing device: %d %v", rowValue(got), err)
	}
	check.Commit(CommitSync, nil)
}
