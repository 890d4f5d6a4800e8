package recovery

import (
	"bytes"
	"testing"

	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/storage"
)

// TestRecoverMultiCheckpointAheadOfHomeLog is the Appendix A.5 cut seen
// from recovery: partition 0 hardened a checkpoint whose transaction
// table names txn 7 as precommitted, last record seq 3 (its commit) —
// but txn 7's home log, partition 1, lost that commit record with its
// tail. The checkpoint's entry is a claim about a log that is not its
// own; what partition 1's durable tail says (an update, no commit)
// decides, so txn 7 is a loser and its durable update is rolled back.
// Txn 8, named before it logged anything durable, leaves nothing to do.
// Txn 9, whose commit below the checkpoint IS durable on its home log,
// stays a winner.
func TestRecoverMultiCheckpointAheadOfHomeLog(t *testing.T) {
	pidLoser := storage.MakePageID(1, 1)
	pidWinner := storage.MakePageID(1, 2)
	stamp := func(rec *logrec.Record, seq uint32) *logrec.Record {
		rec.Seq = seq
		return rec
	}
	var lane0, lane1 logBuilder
	wAt, _ := lane1.add(t, stamp(logrec.NewUpdate(9, lsn.Undefined, pidWinner,
		logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("kept")}), 1))
	lane1.add(t, stamp(logrec.NewCommit(9, wAt), 2))
	lane1.add(t, stamp(logrec.NewUpdate(7, lsn.Undefined, pidLoser,
		logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("gone")}), 3))
	// seq 4, txn 7's commit record, was appended to partition 1 but
	// never became durable there.
	beginAt, _ := lane0.add(t, stamp(&logrec.Record{Header: logrec.Header{Kind: logrec.KindCheckpointBegin}}, 5))
	payload := logrec.CheckpointPayload{
		ActiveTxns: []logrec.TxnTableEntry{
			{TxnID: 7, LastLSN: 4, Precommitted: true},
			{TxnID: 8, LastLSN: lsn.Undefined},
			{TxnID: 9, LastLSN: 1}, // trails the txn: stamped before its commit was published
		},
		DirtyPages: []logrec.DirtyPageEntry{{PageID: pidLoser, RecLSN: 3}, {PageID: pidWinner, RecLSN: 1}},
	}
	lane0.add(t, stamp(&logrec.Record{
		Header:  logrec.Header{Kind: logrec.KindCheckpointEnd, Aux: uint64(beginAt)},
		Payload: payload.Encode(nil),
	}, 6))

	st := storage.NewStore()
	res, err := RecoverMulti(MultiOptions{
		Logs:  [][]byte{lane0.buf, lane1.buf},
		Bases: []lsn.LSN{0, 0},
		Store: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losers) != 1 || res.Losers[0] != 7 {
		t.Fatalf("losers = %v, want [7]", res.Losers)
	}
	if len(res.Winners) != 1 || res.Winners[0] != 9 {
		t.Fatalf("winners = %v, want [9]", res.Winners)
	}
	if _, err := mustPage(t, st, pidLoser).Get(0); err == nil {
		t.Fatal("update of a transaction whose commit never hardened survived recovery")
	}
	if got, err := mustPage(t, st, pidWinner).Get(0); err != nil || !bytes.Equal(got, []byte("kept")) {
		t.Fatalf("durably committed row: %q %v", got, err)
	}
	if res.MaxTxnID != 9 {
		t.Fatalf("MaxTxnID = %d, want 9", res.MaxTxnID)
	}
}
