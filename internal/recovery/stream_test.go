package recovery

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/storage"
)

// TestRecoveryStreamsTheTail: recovery reads the tails through a merge
// that holds one record per lane, and remembers of each transaction only
// where its first and newest records sit, and of a loser the address and
// order of each update it has still to undo (16 bytes a record) — so
// what it allocates is bounded by the lanes, the transactions, the
// losers' updates and the pages, not by the length of the tail. A tail
// of 200 000 updates by six long transactions (one of them a loser with
// 33 000 updates to undo) over 16 pages recovers within 4 MiB of
// allocation in total, at one lane and at three. (The
// engines this core replaced held every decoded record of an N-lane tail
// in a slice, plus a map from seq to slice index: a hundred bytes a
// record.)
func TestRecoveryStreamsTheTail(t *testing.T) {
	const (
		records = 200_000
		txns    = 6
		pages   = 16
		budget  = 4 << 20
	)
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			ll := newLaneLogs(n)
			val := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
			lastOnPage := make([]uint32, pages) // seq of each page's previous update (N lanes)
			prev := make([]lsn.LSN, txns+1)
			cur := make([]uint64, pages) // value each page's row holds
			committed := make([]uint64, pages)
			stamp := func(rec *logrec.Record, pg int) *logrec.Record {
				if n > 1 {
					rec.Aux = uint64(lastOnPage[pg])
					lastOnPage[pg] = ll.seq + 1
				}
				return rec
			}
			setup := uint64(txns + 1)
			var at lsn.LSN = lsn.Undefined
			for pg := 0; pg < pages; pg++ {
				at, _ = ll.add(t, 0, stamp(logrec.NewUpdate(setup, at, storage.MakePageID(1, uint64(pg+1)),
					logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: val(0)}), pg))
			}
			ll.add(t, 0, logrec.NewCommit(setup))
			for id := 1; id <= txns; id++ {
				prev[id] = lsn.Undefined
			}
			// Every transaction owns the pages its ID picks, so the loser's
			// inverses restore what the winners never touched.
			for i := 0; i < records; i++ {
				id := 1 + i%txns
				pg := (id - 1) + txns*((i/txns)%2)
				next := uint64(i + 1)
				prev[id], _ = ll.add(t, id%n, stamp(logrec.NewUpdate(uint64(id), prev[id], storage.MakePageID(1, uint64(pg+1)),
					logrec.Splice(nil, 0, val(cur[pg]), val(next))), pg))
				cur[pg] = next
				if id != txns { // the last transaction never commits
					committed[pg] = next
				}
			}
			for id := 1; id < txns; id++ {
				ll.add(t, id%n, logrec.NewCommit(uint64(id)))
			}
			tails := ll.tails()

			st := storage.NewStore()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			a, err := Analyze(tails, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Recover(st, nil)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Scanned < records || len(res.Losers) != 1 || res.UndoApplied != records/txns {
				t.Fatalf("scanned %d records, losers %v, %d undone; want >= %d, one loser, %d", res.Scanned, res.Losers, res.UndoApplied, records, records/txns)
			}
			for pg := 0; pg < 2*txns; pg++ {
				row, err := mustPage(t, st, storage.MakePageID(1, uint64(pg+1))).Get(0)
				if err != nil || binary.LittleEndian.Uint64(row) != committed[pg] {
					t.Fatalf("page %d holds %v (%v), want %d", pg+1, row, err, committed[pg])
				}
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > budget {
				t.Fatalf("recovering %d records allocated %d bytes (%.1f per record), budget %d", res.Scanned, got, float64(got)/float64(res.Scanned), budget)
			} else {
				t.Logf("recovering %d records allocated %d bytes", res.Scanned, got)
			}
		})
	}
}
