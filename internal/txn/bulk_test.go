package txn

import (
	"testing"
)

// TestInsertKeepsNoUndoImage: an insert-only transaction leaves no bytes
// in its undo arena — each insert's undo entry names the slot and the
// CLR is built from the row on the page — while a delete keeps its
// before image there.
func TestInsertKeepsNoUndoImage(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()
	defer ag.Close()

	tx := ag.Begin()
	for k := uint64(1); k <= 1_000; k++ {
		if err := tx.Insert(tbl, k, row(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	if n, arena := len(tx.sc.undo), len(tx.sc.arena); n != 1_000 || arena != 0 {
		t.Fatalf("1 000 inserts left %d undo entries and %d arena bytes, want 1 000 and 0", n, arena)
	}
	if err := tx.Delete(tbl, 1); err != nil {
		t.Fatal(err)
	}
	if arena := len(tx.sc.arena); arena != len(row(1, 1)) {
		t.Fatalf("a delete kept %d arena bytes, want its %d-byte row", arena, len(row(1, 1)))
	}
	if err := tx.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEscalatedCommitReleasesAtInsert: under ELR an escalated bulk
// transaction gives its table lock and its row locks back when its commit
// record is inserted, not when it hardens: once a pipelined Commit
// returns the lock table is empty, and another agent's transaction takes
// the table at once.
func TestEscalatedCommitReleasesAtInsert(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.eng.CreateTable("t", nil)
	ag := h.eng.NewAgent()
	defer ag.Close()
	bulk := ag.Begin()
	for k := uint64(1); k <= 1_000; k++ {
		if err := bulk.Insert(tbl, k, row(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	locks := h.eng.Locks()
	if locks.Stats().Escalations.Load() != 1 {
		t.Fatalf("%d escalations, want 1", locks.Stats().Escalations.Load())
	}
	hardened := make(chan error, 1)
	if err := bulk.Commit(CommitPipelined, func(err error) { hardened <- err }); err != nil {
		t.Fatal(err)
	}
	if heads := locks.Heads(); heads != 0 {
		t.Fatalf("%d lock heads left once the commit record is in", heads)
	}
	other := h.eng.NewAgent()
	defer other.Close()
	reader := other.Begin()
	if _, err := reader.Read(tbl, 500); err != nil {
		t.Fatal(err)
	}
	if err := reader.Commit(CommitSync, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-hardened; err != nil {
		t.Fatal(err)
	}
}
