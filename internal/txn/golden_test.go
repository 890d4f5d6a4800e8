package txn

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
)

// oneLaneLogGolden is the SHA-256 of the log goldenScript leaves behind,
// taken from the writer of the commit before the engine's two log paths
// became one (PR 19, where a single log never met core.MultiLog). A
// one-lane log must stay byte-identical to it: same records, same
// addresses, no sequence stamps.
const oneLaneLogGolden = "1370349a56215aefdb2859ee74ff9fd4d9dc0d28ae7b5d7da682da3f8649b58a"

// goldenScript is a fixed single-agent history touching every record
// kind the engine writes: inserts, updates, one commit in each mode, an
// abort with CLRs, and a checkpoint that names an active transaction. It
// waits out every background completion before the checkpoint, so the
// checkpoint's tables — and with them every byte — are the same on every
// run.
func goldenScript(t *testing.T, eng *Engine) {
	t.Helper()
	quiesce := func() {
		eng.Log().Flush()
		if err := eng.Log().WaitDurable(eng.Log().AppendEnd()); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := eng.CreateTable("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	ag := eng.NewAgent()
	defer ag.Close()

	tx := ag.Begin()
	for k := uint64(1); k <= 6; k++ {
		if err := tx.Insert(tbl, k, row(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
	for i, mode := range []CommitMode{CommitSync, CommitSyncELR, CommitAsync, CommitPipelined, CommitPipelinedHoldLocks} {
		tx := ag.Begin()
		k := uint64(i + 1)
		if err := tx.Update(tbl, k, func([]byte) ([]byte, error) { return row(k, 100+k), nil }); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		if err := tx.Commit(mode, func(err error) { done <- err }); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		quiesce()
	}

	tx = ag.Begin()
	if err := tx.Update(tbl, 1, func([]byte) ([]byte, error) { return row(1, 999), nil }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(tbl, 7, row(7, 7)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(tbl, 6); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	quiesce() // the aborted transaction leaves the ATT once its end record is durable

	active := ag.Begin()
	if err := active.Update(tbl, 3, func([]byte) ([]byte, error) { return row(3, 333), nil }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := active.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
	quiesce()
}

// TestOneLaneLogGoldenBytes pins the one-lane hot path by what it
// writes: the coordinator in front of the log must cost it nothing that
// shows in the log.
func TestOneLaneLogGoldenBytes(t *testing.T) {
	h := newHarness(t)
	goldenScript(t, h.eng)
	data, base, err := logdev.ReadTail(h.devs[0])
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[logrec.Kind]int)
	it := logrec.NewIterator(data, lsn.LSN(base))
	for rec, ok := it.Next(); ok; rec, ok = it.Next() {
		kinds[rec.Kind]++
		if rec.Seq != 0 {
			t.Errorf("record at %v carries seq %d on a one-lane log", rec.LSN, rec.Seq)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []logrec.Kind{logrec.KindUpdate, logrec.KindCLR, logrec.KindCommit, logrec.KindAbort,
		logrec.KindEnd, logrec.KindCheckpointBegin, logrec.KindCheckpointEnd} {
		if kinds[k] == 0 {
			t.Errorf("script wrote no %v record", k)
		}
	}
	if seq := h.eng.Multi().LastSeq(); seq != 0 {
		t.Errorf("a one-lane log consumed %d global seqs", seq)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != oneLaneLogGolden {
		t.Fatalf("one-lane log bytes changed: %d bytes, sha256 %s, want %s", len(data), got, oneLaneLogGolden)
	}
}
