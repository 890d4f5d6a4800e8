package recovery

import (
	"bytes"
	"fmt"
	"testing"

	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/storage"
)

// storesEqual compares two stores page-image by page-image.
func storesEqual(t *testing.T, want, got *storage.Store, ctx string) {
	t.Helper()
	wantSnap, err := (&replayer{store: want}).dumpPages()
	if err != nil {
		t.Fatal(err)
	}
	gotSnap, err := (&replayer{store: got}).dumpPages()
	if err != nil {
		t.Fatal(err)
	}
	if len(wantSnap) != len(gotSnap) {
		t.Fatalf("%s: %d pages vs %d", ctx, len(wantSnap), len(gotSnap))
	}
	for i := range wantSnap {
		if wantSnap[i].PID != gotSnap[i].PID {
			t.Fatalf("%s: page %d: pid %d vs %d", ctx, i, wantSnap[i].PID, gotSnap[i].PID)
		}
		if !bytes.Equal(wantSnap[i].Image, gotSnap[i].Image) {
			t.Fatalf("%s: page %d image diverged", ctx, wantSnap[i].PID)
		}
	}
}

// buildPITRLog assembles a log exercising every stash transition:
// committed inserts and sets, a rolled-back transaction (CLR + End),
// and a transaction left in flight at the end — whose chain is an insert
// and then ranged updates of every shape (same length, shorter, longer),
// so a snapshot cut inside it stashes splices that only undo correctly in
// reverse order against exactly the row they were logged on. Returns the
// log and every record boundary.
func buildPITRLog(t *testing.T) ([]byte, []uint64) {
	t.Helper()
	var lb logBuilder
	var cuts []uint64
	add := func(rec *logrec.Record) lsn.LSN {
		at, end := lb.add(t, rec)
		cuts = append(cuts, uint64(end))
		return at
	}
	pidA := storage.MakePageID(1, 1)
	pidB := storage.MakePageID(1, 2)

	// txn 1: insert, commit.
	a1 := add(logrec.NewUpdate(1, lsn.Undefined, pidA,
		logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("alpha")}))
	add(logrec.NewCommit(1, a1))
	// txn 2: insert + set, commit later.
	b1 := add(logrec.NewUpdate(2, lsn.Undefined, pidA,
		logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 1, After: []byte("beta")}))
	// txn 3: insert, then rolled back via CLR + End.
	c1 := add(logrec.NewUpdate(3, lsn.Undefined, pidB,
		logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("gamma")}))
	b2 := add(logrec.NewUpdate(2, b1, pidA,
		logrec.Splice(1, []byte("beta"), []byte("beta2"))))
	clr := add(logrec.NewCLR(3, c1, pidB, lsn.Undefined,
		logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("gamma")}.Inverse()))
	add(logrec.NewEnd(3, clr))
	add(logrec.NewCommit(2, b2))
	// txn 4: still in flight at the end of the log.
	prev := add(logrec.NewUpdate(4, lsn.Undefined, pidB,
		logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 1, After: []byte("delta")}))
	for _, step := range [][2]string{{"delta", "deLTa"}, {"deLTa", "da"}, {"da", "data, longer"}, {"data, longer", "dAta, longer"}} {
		prev = add(logrec.NewUpdate(4, prev, pidB, logrec.Splice(1, []byte(step[0]), []byte(step[1]))))
	}
	return lb.buf, cuts
}

// TestReplayToPointSnapshotEquivalence is the PITR correctness core:
// for every pair of record boundaries C <= T, restoring to T via a
// snapshot cut at C must equal the full from-genesis replay to T.
func TestReplayToPointSnapshotEquivalence(t *testing.T) {
	log, cuts := buildPITRLog(t)
	bounds := append([]uint64{0}, cuts...)
	ranged := 0 // stashed updates that are splices, over all snapshots
	for _, target := range bounds {
		full, err := ReplayToPoint(nil, []Lane{{Log: log[:target]}}, target)
		if err != nil {
			t.Fatalf("full replay to %d: %v", target, err)
		}
		for _, cut := range bounds {
			if cut > target {
				break
			}
			snap, err := BuildSnapshot(nil, log[:cut], 0)
			if err != nil {
				t.Fatalf("BuildSnapshot at %d: %v", cut, err)
			}
			if snap.Cut != cut {
				t.Fatalf("BuildSnapshot cut = %d, want %d", snap.Cut, cut)
			}
			for _, sr := range snap.Stash {
				if up, err := logrec.DecodeUpdate(sr.Payload); err != nil {
					t.Fatalf("snapshot at %d stashed an undecodable payload: %v", cut, err)
				} else if up.Op == logrec.OpSet {
					ranged++
				}
			}
			chained, err := ReplayToPoint(snap, []Lane{{Log: log[cut:target], Base: lsn.LSN(cut)}}, target)
			if err != nil {
				t.Fatalf("chained replay %d -> %d: %v", cut, target, err)
			}
			storesEqual(t, full, chained, "snapshot at "+itoa(cut)+" to "+itoa(target))
		}
	}
	if ranged == 0 {
		t.Fatal("test invalid: no snapshot stashed a ranged update")
	}
	// And the state all of them agree on is the right one: at the end of
	// the log transaction 4 is rolled back, splice by splice, to nothing.
	final, err := ReplayToPoint(nil, []Lane{{Log: log}}, uint64(len(log)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mustPage(t, final, storage.MakePageID(1, 2)).Get(1); err == nil {
		t.Fatal("in-flight transaction's row survived the restore")
	}
	if got, _ := mustPage(t, final, storage.MakePageID(1, 1)).Get(1); string(got) != "beta2" {
		t.Fatalf("committed ranged update restored as %q, want beta2", got)
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestBuildSnapshotIncremental: chaining snapshots cut by cut must
// produce the same materialized object as one build from genesis.
func TestBuildSnapshotIncremental(t *testing.T) {
	log, cuts := buildPITRLog(t)
	var prev *logdev.Snapshot
	var base uint64
	for _, cut := range cuts {
		chained, err := BuildSnapshot(prev, log[base:cut], base)
		if err != nil {
			t.Fatalf("incremental snapshot at %d: %v", cut, err)
		}
		direct, err := BuildSnapshot(nil, log[:cut], 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(logdev.EncodeSnapshot(chained), logdev.EncodeSnapshot(direct)) {
			t.Fatalf("snapshot at %d: incremental and direct builds diverge", cut)
		}
		prev, base = chained, cut
	}
}

// TestReplayToPointRollsBackInflight: at every lane count, a target
// before a transaction's commit record must not show its updates — even
// when they are durable in the log — and a target after must; records
// past the target are ignored, wherever in the lanes they sit, and a
// target may be a seq no record carries.
func TestReplayToPointRollsBackInflight(t *testing.T) {
	pidA := storage.MakePageID(1, 1)
	pidB := storage.MakePageID(1, 2)
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			ll := newLaneLogs(n)
			aAt, _ := ll.add(t, 0, logrec.NewUpdate(1, lsn.Undefined, pidA,
				logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("a")}))
			bAt, _ := ll.add(t, 1, logrec.NewUpdate(2, lsn.Undefined, pidB,
				logrec.UpdatePayload{Op: logrec.OpInsert, Slot: 0, After: []byte("b")}))
			ll.add(t, 0, logrec.NewCommit(1, aAt))
			if n > 1 {
				ll.skipSeq() // the point below is then a stamp no record carries
			}
			before2 := ll.point()
			ll.add(t, 1, logrec.NewCommit(2, bAt))
			after2 := ll.point()

			// Txn 1 committed; txn 2's commit is beyond the target.
			st, err := ReplayToPoint(nil, ll.tails(), before2)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := mustPage(t, st, pidA).Get(0); err != nil || !bytes.Equal(got, []byte("a")) {
				t.Fatalf("committed insert missing after its commit point: %q %v", got, err)
			}
			if _, err := mustPage(t, st, pidB).Get(0); err == nil {
				t.Fatal("uncommitted insert visible before its commit point")
			}
			st, err = ReplayToPoint(nil, ll.tails(), after2)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := mustPage(t, st, pidB).Get(0); err != nil || !bytes.Equal(got, []byte("b")) {
				t.Fatalf("committed insert missing after its commit point: %q %v", got, err)
			}
		})
	}
}
