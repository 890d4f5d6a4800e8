package recovery

import (
	"bytes"
	"fmt"
	"testing"

	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/storage"
)

// laneLogs assembles the durable tails of an n-lane log the way the
// coordinator would have written them: on one lane every record goes to
// lane 0 unstamped; on N each record goes to the lane asked for under
// the next global seq.
type laneLogs struct {
	lanes []logBuilder
	seq   uint32
}

func newLaneLogs(n int) *laneLogs { return &laneLogs{lanes: make([]logBuilder, n)} }

// add appends rec and returns its home-lane address and its record
// stamp (what a DPT or transaction-table entry would hold for it).
func (ll *laneLogs) add(t *testing.T, lane int, rec *logrec.Record) (at, stamp lsn.LSN) {
	t.Helper()
	if len(ll.lanes) == 1 {
		at, _ = ll.lanes[0].add(t, rec)
		return at, at
	}
	ll.seq++
	rec.Seq = ll.seq
	at, _ = ll.lanes[lane].add(t, rec)
	return at, lsn.LSN(ll.seq)
}

// skipSeq spends a seq on a record that never became durable.
func (ll *laneLogs) skipSeq() lsn.LSN {
	ll.seq++
	return lsn.LSN(ll.seq)
}

// point returns the current end of the log as a restore point: the log
// offset on one lane, the last seq handed out on N.
func (ll *laneLogs) point() uint64 {
	if len(ll.lanes) == 1 {
		return uint64(len(ll.lanes[0].buf))
	}
	return uint64(ll.seq)
}

func (ll *laneLogs) checkpoint(t *testing.T, p logrec.CheckpointPayload) {
	t.Helper()
	beginAt, _ := ll.add(t, 0, &logrec.Record{Header: logrec.Header{Kind: logrec.KindCheckpointBegin}})
	ll.add(t, 0, &logrec.Record{
		Header:  logrec.Header{Kind: logrec.KindCheckpointEnd, Aux: uint64(beginAt)},
		Payload: p.Encode(nil),
	})
}

func (ll *laneLogs) tails() []Lane {
	out := make([]Lane, len(ll.lanes))
	for i := range ll.lanes {
		out[i] = Lane{Log: ll.lanes[i].log()}
	}
	return out
}

// TestCheckpointTableIsNamesNotFacts: what a checkpoint's transaction
// table says about a transaction — its last record, whether it
// precommitted — is published by the engine after the append it
// describes returns, and on N lanes the checkpoint can harden ahead of
// the transaction's home lane. So an entry can trail the transaction's
// records or run ahead of them, and recovery must take from it the name
// only and the facts from the durable tails, at every lane count.
func TestCheckpointTableIsNamesNotFacts(t *testing.T) {
	pid := storage.MakePageID(1, 1)
	pidKept := storage.MakePageID(1, 2)
	ins := func(slot uint16, v string) logrec.UpdatePayload {
		return logrec.UpdatePayload{Op: logrec.OpInsert, Slot: slot, After: []byte(v)}
	}
	type want struct {
		losers, winners []uint64
		undo            int
		gone            []uint16 // slots of pid that must be empty
		kept            string   // row 0 of pidKept, if any
		maxTxn          uint64
	}
	cases := []struct {
		name  string
		lanes []int
		build func(t *testing.T, ll *laneLogs)
		want  want
	}{
		{
			// The window between appendRec returning and lastStamp.Store:
			// the checkpoint names txn 3 with no last record at all, yet
			// its update is durable below the begin record.
			name: "entry-undefined", lanes: []int{1, 2},
			build: func(t *testing.T, ll *laneLogs) {
				_, u := ll.add(t, 1, logrec.NewUpdate(3, lsn.Undefined, pid, ins(0, "x")))
				ll.checkpoint(t, logrec.CheckpointPayload{
					ActiveTxns: []logrec.TxnTableEntry{{TxnID: 3, LastLSN: lsn.Undefined}},
					DirtyPages: []logrec.DirtyPageEntry{{PageID: pid, RecLSN: u}},
				})
			},
			want: want{losers: []uint64{3}, undo: 1, gone: []uint16{0}, maxTxn: 3},
		},
		{
			// The same window one record later: the entry still points at
			// the first update when the second is already in the log.
			name: "entry-one-record-stale", lanes: []int{1, 2},
			build: func(t *testing.T, ll *laneLogs) {
				at1, u1 := ll.add(t, 1, logrec.NewUpdate(3, lsn.Undefined, pid, ins(0, "x")))
				ll.add(t, 1, logrec.NewUpdate(3, at1, pid, ins(1, "y")))
				ll.checkpoint(t, logrec.CheckpointPayload{
					ActiveTxns: []logrec.TxnTableEntry{{TxnID: 3, LastLSN: u1}},
					DirtyPages: []logrec.DirtyPageEntry{{PageID: pid, RecLSN: u1}},
				})
			},
			want: want{losers: []uint64{3}, undo: 2, gone: []uint16{0, 1}, maxTxn: 3},
		},
		{
			// A precommitted entry whose commit record is durable below
			// the begin record stays a winner: the tail says so.
			name: "entry-precommitted-commit-durable", lanes: []int{1, 2},
			build: func(t *testing.T, ll *laneLogs) {
				_, u := ll.add(t, 1, logrec.NewUpdate(9, lsn.Undefined, pidKept, ins(0, "kept")))
				_, c := ll.add(t, 1, logrec.NewCommit(9))
				ll.checkpoint(t, logrec.CheckpointPayload{
					ActiveTxns: []logrec.TxnTableEntry{{TxnID: 9, LastLSN: c, Precommitted: true}},
					DirtyPages: []logrec.DirtyPageEntry{{PageID: pidKept, RecLSN: u}},
				})
			},
			want: want{winners: []uint64{9}, kept: "kept", maxTxn: 9},
		},
		{
			// The Appendix A.5 cut seen from recovery: lane 0 hardened a
			// checkpoint whose table names txn 7 as precommitted, last
			// record its commit — but txn 7's home lane lost that commit
			// record with its tail. The entry is a claim about a log that
			// is not the checkpoint's own; what the home lane's durable
			// tail says (an update, no commit) decides, so txn 7 is a
			// loser and its durable update is rolled back. Txn 8, named
			// before it logged anything durable, leaves nothing to do.
			// Txn 9, whose commit below the checkpoint IS durable on its
			// home lane, stays a winner though its entry trails it.
			name: "entry-ahead-of-home-lane", lanes: []int{2},
			build: func(t *testing.T, ll *laneLogs) {
				_, u9 := ll.add(t, 1, logrec.NewUpdate(9, lsn.Undefined, pidKept, ins(0, "kept")))
				ll.add(t, 1, logrec.NewCommit(9))
				_, u7 := ll.add(t, 1, logrec.NewUpdate(7, lsn.Undefined, pid, ins(0, "gone")))
				lostCommit := ll.skipSeq()
				ll.checkpoint(t, logrec.CheckpointPayload{
					ActiveTxns: []logrec.TxnTableEntry{
						{TxnID: 7, LastLSN: lostCommit, Precommitted: true},
						{TxnID: 8, LastLSN: lsn.Undefined},
						{TxnID: 9, LastLSN: u9},
					},
					DirtyPages: []logrec.DirtyPageEntry{{PageID: pid, RecLSN: u7}, {PageID: pidKept, RecLSN: u9}},
				})
			},
			want: want{losers: []uint64{7}, winners: []uint64{9}, undo: 1, gone: []uint16{0}, kept: "kept", maxTxn: 9},
		},
	}
	for _, c := range cases {
		for _, n := range c.lanes {
			t.Run(fmt.Sprintf("%s/N=%d", c.name, n), func(t *testing.T) {
				ll := newLaneLogs(n)
				c.build(t, ll)
				a, err := Analyze(ll.tails(), nil)
				if err != nil {
					t.Fatal(err)
				}
				st := storage.NewStore()
				res, err := a.Recover(st, nil)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(res.Losers) != fmt.Sprint(c.want.losers) || fmt.Sprint(res.Winners) != fmt.Sprint(c.want.winners) || res.UndoApplied != c.want.undo {
					t.Fatalf("losers=%v winners=%v undo=%d redo=%d, want losers=%v winners=%v undo=%d",
						res.Losers, res.Winners, res.UndoApplied, res.RedoApplied, c.want.losers, c.want.winners, c.want.undo)
				}
				for _, slot := range c.want.gone {
					if row, err := mustPage(t, st, pid).Get(int(slot)); err == nil {
						t.Fatalf("uncommitted row %q in slot %d survived recovery", row, slot)
					}
				}
				if c.want.kept != "" {
					if got, err := mustPage(t, st, pidKept).Get(0); err != nil || !bytes.Equal(got, []byte(c.want.kept)) {
						t.Fatalf("durably committed row: %q %v", got, err)
					}
				}
				if res.MaxTxnID != c.want.maxTxn {
					t.Fatalf("MaxTxnID = %d, want %d", res.MaxTxnID, c.want.maxTxn)
				}
			})
		}
	}
}
