package lockmgr

import (
	"errors"
	"testing"
	"time"
)

// insertLocks takes table IX and then row X on rows 1..n of space, as
// an insert transaction does, stopping at the first request that errs.
func insertLocks(l *Locker, space uint32, n int) error {
	for k := 1; k <= n; k++ {
		if err := l.Acquire(TableKey(space), ModeIX); err != nil {
			return err
		}
		if err := l.Acquire(RowKey(space, uint64(k)), ModeX); err != nil {
			return err
		}
	}
	return nil
}

// bulkRows is insertLocks, failing the test if any request errs.
func bulkRows(t *testing.T, l *Locker, space uint32, n int) {
	t.Helper()
	if err := insertLocks(l, space, n); err != nil {
		t.Fatal(err)
	}
}

// TestEscalationCoversRows: a 10 000-row insert transaction escalates to
// X on its table at its 65th row and leaves at most 65 lock heads of its
// own — the table and the 64 rows before it — and the rows after the
// escalation never reach the lock table.
func TestEscalationCoversRows(t *testing.T) {
	m := newMgr(t, Config{})
	l := m.NewLocker(1, nil)
	bulkRows(t, l, 1, escalateAfter)
	if got := checkTable(t, m); got != escalateAfter+1 {
		t.Fatalf("%d heads before the escalation, want %d", got, escalateAfter+1)
	}
	bulkRows(t, l, 1, 10_000)
	if got := checkTable(t, m); got > escalateAfter+1 {
		t.Fatalf("a 10 000-row transaction linked %d lock heads, want ≤ %d", got, escalateAfter+1)
	}
	if got := m.HeldModes(TableKey(1)); len(got) != 1 || got[0] != ModeX {
		t.Fatalf("table grants %v, want one X", got)
	}
	if got := m.HeldModes(RowKey(1, escalateAfter+1)); len(got) != 0 {
		t.Fatalf("row %d, past the escalation, is in the lock table: %v", escalateAfter+1, got)
	}
	if st := m.Stats(); st.Escalations.Load() != 1 || st.EscalationsRefused.Load() != 0 {
		t.Fatalf("%d escalations, %d refused; want 1 and 0", st.Escalations.Load(), st.EscalationsRefused.Load())
	}
	if got := l.HeldCount(); got != escalateAfter+1 {
		t.Fatalf("locker holds %d locks, want %d", got, escalateAfter+1)
	}

	// Reads escalate to S, which covers reads but not writes.
	r := m.NewLocker(2, nil)
	for k := uint64(1); k <= 200; k++ {
		if err := r.Acquire(TableKey(2), ModeIS); err != nil {
			t.Fatal(err)
		}
		if err := r.Acquire(RowKey(2, k), ModeS); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.HeldModes(TableKey(2)); len(got) != 1 || got[0] != ModeS {
		t.Fatalf("read table grants %v, want one S", got)
	}
	if err := r.Acquire(RowKey(2, 500), ModeX); err != nil {
		t.Fatal(err)
	}
	if got := m.HeldModes(RowKey(2, 500)); len(got) != 1 || got[0] != ModeX {
		t.Fatalf("a write under an S escalation took %v, want its own X row lock", got)
	}

	l.ReleaseAll()
	r.ReleaseAll()
	if got := checkTable(t, m); got != 0 {
		t.Fatalf("%d heads linked after release", got)
	}
}

// TestRowZeroIsARow: row key 0 is a row like any other, not its table's
// key — a transaction holding X on row 0 leaves the table free for
// another's intention lock — and it counts toward escalation: 65 row
// requests that include row 0 escalate at the 65th.
func TestRowZeroIsARow(t *testing.T) {
	if RowKey(1, 0) == TableKey(1) || RowKey(1, 0).IsTable() || !TableKey(1).IsTable() {
		t.Fatalf("RowKey(1, 0) = %v aliases TableKey(1) = %v", RowKey(1, 0), TableKey(1))
	}
	if RowKey(1, 0).hash() == TableKey(1).hash() {
		t.Fatalf("row 0 and its table hash alike")
	}
	m := newMgr(t, Config{DeadlockTimeout: time.Hour})
	w := m.NewLocker(1, nil)
	if err := w.Acquire(TableKey(1), ModeIX); err != nil {
		t.Fatal(err)
	}
	if err := w.Acquire(RowKey(1, 0), ModeX); err != nil {
		t.Fatal(err)
	}
	r := m.NewLocker(2, nil)
	done := make(chan error, 1)
	go func() {
		if err := r.Acquire(TableKey(1), ModeIS); err != nil {
			done <- err
			return
		}
		done <- r.Acquire(RowKey(1, 5), ModeS)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a read of row 5 waits behind an update of row 0")
	}
	r.ReleaseAll()
	w.ReleaseAll()

	b := m.NewLocker(3, nil)
	for k := uint64(0); k < escalateAfter+1; k++ {
		if err := b.Acquire(TableKey(2), ModeIX); err != nil {
			t.Fatal(err)
		}
		if err := b.Acquire(RowKey(2, k), ModeX); err != nil {
			t.Fatal(err)
		}
		escalated := m.Stats().Escalations.Load() == 1
		if want := k == escalateAfter; escalated != want {
			t.Fatalf("after %d row requests from row 0 up, escalated %v, want %v", k+1, escalated, want)
		}
	}
	if got := m.HeldModes(TableKey(2)); len(got) != 1 || got[0] != ModeX {
		t.Fatalf("table grants %v after the escalation, want one X", got)
	}
	b.ReleaseAll()
}

// TestEscalationRefusedWithoutWaiting: while another transaction holds IS
// or IX on the table, every escalation is refused at once — the bulk
// transaction goes on with row locks, asking again every 64 rows, and
// never waits, even with a deadlock timeout of an hour.
func TestEscalationRefusedWithoutWaiting(t *testing.T) {
	for _, mode := range []Mode{ModeIS, ModeIX} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMgr(t, Config{DeadlockTimeout: time.Hour})
			other := m.NewLocker(99, nil)
			if err := other.Acquire(TableKey(1), mode); err != nil {
				t.Fatal(err)
			}
			l := m.NewLocker(1, nil)
			const rows = 1_000
			done := make(chan error, 1)
			go func() { done <- insertLocks(l, 1, rows) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("a %d-row transaction waited on a table held %v", rows, mode)
			}
			st := m.Stats()
			if want := int64((rows - 1) / escalateAfter); st.EscalationsRefused.Load() != want || st.Escalations.Load() != 0 || st.Blocks.Load() != 0 {
				t.Fatalf("%d refused (want %d), %d granted, %d blocked", st.EscalationsRefused.Load(), want, st.Escalations.Load(), st.Blocks.Load())
			}
			if got := l.HeldCount(); got != rows+1 {
				t.Fatalf("locker holds %d locks, want %d rows and the table", got, rows)
			}
			if got := m.HeldModes(TableKey(1)); len(got) != 2 {
				t.Fatalf("table grants %v, want the two intention locks", got)
			}
			l.ReleaseAll()
			other.ReleaseAll()
			if got := checkTable(t, m); got != 0 {
				t.Fatalf("%d heads linked after release", got)
			}
		})
	}
}

// TestEscalatedLockBlocksIntentions: once a transaction holds its table
// in X by escalation, another transaction's IS on the table waits for
// that transaction's release, and is granted by it.
func TestEscalatedLockBlocksIntentions(t *testing.T) {
	m := newMgr(t, Config{DeadlockTimeout: 20 * time.Millisecond})
	l := m.NewLocker(1, nil)
	bulkRows(t, l, 1, 100)
	reader := m.NewLocker(2, nil)
	if err := reader.Acquire(TableKey(1), ModeIS); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("IS on an escalated table: %v, want a timeout", err)
	}

	m = newMgr(t, Config{DeadlockTimeout: 10 * time.Second})
	l = m.NewLocker(1, nil)
	bulkRows(t, l, 1, 100)
	reader = m.NewLocker(2, nil)
	granted := make(chan error, 1)
	go func() { granted <- reader.Acquire(TableKey(1), ModeIS) }()
	select {
	case err := <-granted:
		t.Fatalf("IS granted under the escalated X (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	l.ReleaseAll()
	if err := <-granted; err != nil {
		t.Fatalf("IS after the release: %v", err)
	}
	reader.ReleaseAll()
}

// TestEscalatedLockSkipsAgentCache: a table lock the agent inherited and
// then escalated goes back to the lock table when the transaction
// releases, never into the agent cache, and the agent's next
// transaction asks the table for it again.
func TestEscalatedLockSkipsAgentCache(t *testing.T) {
	m := newMgr(t, Config{SLI: true})
	cache := NewAgentCache(0)
	l := m.NewLocker(1, cache)
	bulkRows(t, l, 1, 1)
	l.ReleaseAll()
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want the table's IX", cache.Len())
	}

	l.Reset(2)
	bulkRows(t, l, 1, 200) // adopts the cached IX, then escalates
	if m.Stats().SLIHits.Load() != 1 || m.Stats().Escalations.Load() != 1 {
		t.Fatalf("%d SLI hits, %d escalations; want 1 and 1", m.Stats().SLIHits.Load(), m.Stats().Escalations.Load())
	}
	if got := m.HeldModes(TableKey(1)); len(got) != 1 || got[0] != ModeX {
		t.Fatalf("table grants %v, want one X", got)
	}
	l.ReleaseAll()
	if cache.Len() != 0 {
		t.Fatalf("cache holds %d entries after an escalated transaction", cache.Len())
	}
	if got := checkTable(t, m); got != 0 {
		t.Fatalf("%d heads linked after release", got)
	}

	// The next transaction takes IX from the table, and caches it again.
	l.Reset(3)
	bulkRows(t, l, 1, 1)
	l.ReleaseAll()
	if m.Stats().SLIHits.Load() != 1 || cache.Len() != 1 {
		t.Fatalf("%d SLI hits, %d cached after an ordinary transaction", m.Stats().SLIHits.Load(), cache.Len())
	}
	m.DropCache(cache)
}

// TestEscalationReleasesEverything: the one ReleaseAll that ELR calls at
// the commit record's insert returns an escalated transaction's table
// lock and its row locks together, and leaves the locker ready for an
// ordinary transaction that starts counting from zero.
func TestEscalationReleasesEverything(t *testing.T) {
	m := newMgr(t, Config{})
	l := m.NewLocker(1, nil)
	bulkRows(t, l, 1, 1_000)
	bulkRows(t, l, 2, 1_000)
	if got := checkTable(t, m); got != 2*(escalateAfter+1) {
		t.Fatalf("%d heads, want %d", got, 2*(escalateAfter+1))
	}
	l.ReleaseAll()
	if got := checkTable(t, m); got != 0 || l.HeldCount() != 0 {
		t.Fatalf("%d heads linked, %d held after release", got, l.HeldCount())
	}
	other := m.NewLocker(2, nil)
	if err := other.Acquire(TableKey(1), ModeIS); err != nil {
		t.Fatal(err)
	}
	l.Reset(3)
	bulkRows(t, l, 1, escalateAfter+1)
	if got := l.HeldCount(); got != escalateAfter+2 {
		t.Fatalf("the next transaction holds %d locks, want %d rows and the table", got, escalateAfter+1)
	}
	l.ReleaseAll()
	other.ReleaseAll()
}
