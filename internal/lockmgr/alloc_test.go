package lockmgr

import (
	"reflect"
	"testing"
)

// tpcbLocks is the lock footprint of one TPC-B transaction, the shape
// the repository benchmark's lockmgr probe times: table IX and row X on
// four spaces, rows drawn from 100 000, released through the locker.
func tpcbLocks(t testing.TB, l *Locker, x *uint32) {
	for space := uint32(1); space <= 4; space++ {
		*x = *x*1664525 + 1013904223
		if err := l.Acquire(TableKey(space), ModeIX); err != nil {
			t.Fatal(err)
		}
		if err := l.Acquire(RowKey(space, uint64(*x>>8)%100_000+1), ModeX); err != nil {
			t.Fatal(err)
		}
	}
	l.ReleaseAll()
}

// TestLockPathAllocations is the lock manager's allocation budget: in
// steady state a transaction's acquires and releases allocate nothing,
// with or without lock inheritance — lock heads and grants come back
// from the partition free lists, a waiter exists only for a request that
// queues, cache entries are recycled by the agent cache, its eviction
// order is a fixed ring, and a cached lock evicted while in use is
// returned to the table instead of piling up on the key's grant list.
func TestLockPathAllocations(t *testing.T) {
	for name, sli := range map[string]bool{"sli-off": false, "sli-on": true} {
		t.Run(name, func(t *testing.T) {
			m := New(Config{SLI: sli})
			l := m.NewLocker(0, NewAgentCache(0))
			id, x := uint64(0), uint32(1)
			txn := func() {
				id++
				l.Reset(id)
				tpcbLocks(t, l, &x)
			}
			for i := 0; i < 2_000; i++ {
				txn()
			}
			if got := testing.AllocsPerRun(2_000, txn); got != 0 {
				t.Fatalf("%.0f allocations per transaction, budget 0", got)
			}
		})
	}
}

// TestLockerDropsOutgrownMap: a Go map never shrinks, so the held-lock
// map a bulk transaction grew must not be what Reset re-arms for the
// session's next transactions; an ordinary transaction's map must be.
func TestLockerDropsOutgrownMap(t *testing.T) {
	m := New(Config{})
	l := m.NewLocker(1, nil)
	heldMap := func() uintptr { return reflect.ValueOf(l.held).Pointer() }

	small := heldMap()
	for k := uint64(1); k <= maxHeldReuse; k++ {
		if err := l.Acquire(RowKey(1, k), ModeX); err != nil {
			t.Fatal(err)
		}
	}
	l.ReleaseAll()
	l.Reset(2)
	if heldMap() != small {
		t.Fatalf("map replaced after a %d-lock transaction", maxHeldReuse)
	}
	for k := uint64(1); k <= 20_000; k++ {
		if err := l.Acquire(RowKey(1, k), ModeX); err != nil {
			t.Fatal(err)
		}
	}
	l.ReleaseAll()
	l.Reset(3)
	if heldMap() == small {
		t.Fatal("map that held 20 000 locks kept for reuse")
	}
	if l.HeldCount() != 0 {
		t.Fatalf("%d locks held after release", l.HeldCount())
	}
}
