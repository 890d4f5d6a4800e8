package txn

import (
	"encoding/hex"
	"os"
	"testing"
	"time"

	"aether/internal/core"
	"aether/internal/logrec"
)

// oneLaneLogGolden holds, as a hex dump, the log goldenScript leaves
// behind: record format 10 (a varint length and no checksum, compact
// header, no back-pointer on any record but a kind-byte bit on a
// transaction's first, which alone names the transaction in full and
// binds its one-byte slot, the later records carrying the slot, an
// update's changed bytes logged once as before ⊕ after, insert and
// delete rows without their zero tail, a CLR's undo-next stored plus
// one, each flush's batch closed by a seal, a checkpoint's tables in
// chunks), 410 bytes, where the same script wrote 394 in format 9 (its
// checkpoint's one chunk has a 24-byte header where format 9's record
// had 8), 386 in format 8 (its transaction IDs are one byte, so a
// slot saves nothing and costs each first record a byte), 439 in format
// 7, 456 in format 6, 475 in format 5, 577 in format 4, 648 in format 3
// and 2 065 in format 2. A one-lane log must stay byte-identical to it: same records, same
// addresses, no sequence stamps. A failure prints the dump to paste here
// — after reading the diff: every changed byte is a format change.
const oneLaneLogGolden = "testdata/one_lane_log.golden"

// goldenLogConfig is the harness's log with a flush daemon that flushes
// only when a commit waits or somebody asks.
var goldenLogConfig = core.Config{Buffer: harnessLogConfig.Buffer, FlushInterval: time.Hour}

// goldenScript is a fixed single-agent history touching every record
// kind the engine writes: inserts, updates, one commit in each mode, an
// abort with CLRs, and a checkpoint that names an active transaction. It
// waits out every background completion before the checkpoint, so the
// checkpoint's tables — and with them every byte — are the same on every
// run. It flushes the log itself after a detached commit, so it runs
// under goldenLogConfig, whose daemon flushes only when asked: a flush
// seals its batch, and where the seals fall must not be the timer's
// choice.
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
		eng.Log().Flush()
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
	h := newHarnessN(t, 1, goldenLogConfig)
	goldenScript(t, h.eng)
	// The script's checkpoint truncates the log; read it from byte 0,
	// below the truncation base, which the live segment still holds.
	dev := h.devs[0]
	data := make([]byte, dev.DurableSize())
	if _, err := dev.RawReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[logrec.Kind]int)
	it := logrec.NewIterator(data, 0)
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
	want, err := os.ReadFile(oneLaneLogGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.Dump(data); got != string(want) {
		t.Fatalf("one-lane log bytes changed: %d bytes, differing from %s; got:\n%s", len(data), oneLaneLogGolden, got)
	}
}
