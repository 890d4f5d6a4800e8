package lockmgr

import (
	"sync"
	"testing"
	"time"
)

func TestSLIRetainsUncontendedLock(t *testing.T) {
	m := newMgr(t, Config{SLI: true})
	cache := NewAgentCache(16)
	k := TableKey(7)

	l := m.NewLocker(1, cache)
	if err := l.Acquire(k, ModeIX); err != nil {
		t.Fatal(err)
	}
	l.ReleaseAll()

	// The grant stays in the table, attached to the cache.
	if got := len(m.HeldModes(k)); got != 1 {
		t.Fatalf("cached grant missing: %d grants", got)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache len %d", cache.Len())
	}

	// Next transaction on the same agent hits the cache.
	l.Reset(2)
	if err := l.Acquire(k, ModeIX); err != nil {
		t.Fatal(err)
	}
	if m.Stats().SLIHits.Load() != 1 {
		t.Fatalf("SLI hits: %d", m.Stats().SLIHits.Load())
	}
	l.ReleaseAll()
}

func TestSLIStealByConflictingTxn(t *testing.T) {
	m := newMgr(t, Config{SLI: true, DeadlockTimeout: time.Second})
	cache := NewAgentCache(16)
	k := TableKey(7)

	l := m.NewLocker(1, cache)
	l.Acquire(k, ModeIX)
	l.ReleaseAll() // cached, inactive

	// A different transaction reads the whole table: its S conflicts with
	// the cached IX, so it must steal the inactive cached grant without
	// waiting.
	other := m.NewLocker(2, nil)
	start := time.Now()
	if err := other.Acquire(k, ModeS); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 200*time.Millisecond {
		t.Fatal("steal should be immediate")
	}
	if m.Stats().SLISteals.Load() != 1 {
		t.Fatalf("steals: %d", m.Stats().SLISteals.Load())
	}
	other.ReleaseAll()

	// The agent's next acquire must notice the theft and go through the
	// table.
	l.Reset(3)
	if err := l.Acquire(k, ModeIX); err != nil {
		t.Fatal(err)
	}
	if m.Stats().SLIHits.Load() != 0 {
		t.Fatal("stolen entry must not hit")
	}
	l.ReleaseAll()
}

func TestSLIReclaimWhileInUse(t *testing.T) {
	m := newMgr(t, Config{SLI: true, DeadlockTimeout: 2 * time.Second})
	cache := NewAgentCache(16)
	k := TableKey(7)

	l := m.NewLocker(1, cache)
	l.Acquire(k, ModeIX)
	l.ReleaseAll()
	l.Reset(2)
	l.Acquire(k, ModeIX) // adopt from cache (in use now)

	got := make(chan error, 1)
	go func() {
		other := m.NewLocker(3, nil)
		got <- other.Acquire(k, ModeS)
	}()
	select {
	case <-got:
		t.Fatal("conflicting acquire succeeded while lock in use")
	case <-time.After(20 * time.Millisecond):
	}

	// At commit, the agent must surrender the lock instead of re-caching.
	l.ReleaseAll()
	if err := <-got; err != nil {
		t.Fatalf("reclaim never happened: %v", err)
	}
	if cache.Len() != 0 {
		t.Fatalf("reclaimed entry still cached: %d", cache.Len())
	}
}

func TestSLICompatibleRequestsCoexistWithCachedS(t *testing.T) {
	m := newMgr(t, Config{SLI: true})
	cache := NewAgentCache(16)
	k := TableKey(7)
	l := m.NewLocker(1, cache)
	l.Acquire(k, ModeS)
	l.ReleaseAll() // cached S grant stays

	// Another reader coexists with the cached S grant.
	other := m.NewLocker(2, nil)
	if err := other.Acquire(k, ModeIS); err != nil {
		t.Fatal(err)
	}
	if got := len(m.HeldModes(k)); got != 2 {
		t.Fatalf("grants: %d, want cached S + live IS", got)
	}
	other.ReleaseAll()
}

func TestSLIUpgradeOfCachedLock(t *testing.T) {
	m := newMgr(t, Config{SLI: true})
	cache := NewAgentCache(16)
	k := TableKey(7)
	l := m.NewLocker(1, cache)
	l.Acquire(k, ModeIS)
	l.ReleaseAll()
	if cache.Len() != 1 {
		t.Fatalf("cache len %d before the upgrade", cache.Len())
	}
	l.Reset(2)
	// Request IX on a key cached in IS: adopt + upgrade.
	if err := l.Acquire(k, ModeIX); err != nil {
		t.Fatal(err)
	}
	modes := m.HeldModes(k)
	if len(modes) != 1 || modes[0] != ModeIX {
		t.Fatalf("modes after cached upgrade: %v", modes)
	}
	// Entry left the cache (it was consumed by the upgrade).
	if cache.Len() != 0 {
		t.Fatalf("cache len %d", cache.Len())
	}
	l.ReleaseAll()
}

func TestSLIUpgradeOfAdoptedLockMidTxn(t *testing.T) {
	m := newMgr(t, Config{SLI: true})
	cache := NewAgentCache(16)
	k := TableKey(7)
	l := m.NewLocker(1, cache)
	l.Acquire(k, ModeIX)
	l.ReleaseAll()
	l.Reset(2)
	if err := l.Acquire(k, ModeIX); err != nil { // adopt in IX
		t.Fatal(err)
	}
	if m.Stats().SLIHits.Load() != 1 {
		t.Fatalf("SLI hits: %d, want the adoption", m.Stats().SLIHits.Load())
	}
	if err := l.Acquire(k, ModeS); err != nil { // upgrade the adopted lock
		t.Fatal(err)
	}
	modes := m.HeldModes(k)
	if len(modes) != 1 || modes[0] != ModeSIX {
		t.Fatalf("modes: %v", modes)
	}
	l.ReleaseAll()
	// After the upgrade consumed the entry, release is a normal release
	// (or re-cache): either way the agent can still lock again.
	l.Reset(3)
	if err := l.Acquire(k, ModeX); err != nil {
		t.Fatal(err)
	}
	l.ReleaseAll()
}

func TestSLICacheEviction(t *testing.T) {
	m := newMgr(t, Config{SLI: true})
	cache := NewAgentCache(4)
	l := m.NewLocker(1, cache)
	for i := 1; i <= 10; i++ {
		if err := l.Acquire(TableKey(uint32(i)), ModeIX); err != nil {
			t.Fatal(err)
		}
	}
	l.ReleaseAll()
	if cache.Len() > 4 {
		t.Fatalf("cache exceeded capacity: %d", cache.Len())
	}
	// Evicted keys must be fully released (no grants left behind).
	held := 0
	for i := 1; i <= 10; i++ {
		held += len(m.HeldModes(TableKey(uint32(i))))
	}
	if held != 4 {
		t.Fatalf("%d grants remain, want 4 cached", held)
	}
}

func TestSLIDropCache(t *testing.T) {
	m := newMgr(t, Config{SLI: true})
	cache := NewAgentCache(16)
	l := m.NewLocker(1, cache)
	for i := 1; i <= 5; i++ {
		l.Acquire(TableKey(uint32(i)), ModeIX)
	}
	l.ReleaseAll()
	if cache.Len() != 5 {
		t.Fatalf("cache len %d before the drop", cache.Len())
	}
	l.DropCache()
	if cache.Len() != 0 {
		t.Fatalf("cache not empty: %d", cache.Len())
	}
	for i := 1; i <= 5; i++ {
		if got := len(m.HeldModes(TableKey(uint32(i)))); got != 0 {
			t.Fatalf("key %d still has %d grants", i, got)
		}
	}
}

func TestSLIDisabledByConfig(t *testing.T) {
	m := newMgr(t, Config{SLI: false})
	cache := NewAgentCache(16)
	l := m.NewLocker(1, cache) // cache ignored when SLI off
	k := TableKey(7)
	l.Acquire(k, ModeIX)
	l.ReleaseAll()
	if len(m.HeldModes(k)) != 0 {
		t.Fatal("lock retained with SLI disabled")
	}
}

// TestSLIStressHotKey runs many agents, each with a private hot table
// (cache hits guaranteed) plus one shared table they all lock exclusively
// (mutual exclusion under steal/reclaim churn).
func TestSLIStressHotKey(t *testing.T) {
	m := newMgr(t, Config{SLI: true, DeadlockTimeout: 5 * time.Second})
	shared := TableKey(1)
	var counter int
	const agents = 8
	const perA = 150
	var wg sync.WaitGroup
	var nextTxn struct {
		sync.Mutex
		n uint64
	}
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			cache := NewAgentCache(16)
			private := TableKey(uint32(a + 2))
			l := m.NewLocker(0, cache)
			defer l.DropCache()
			for i := 0; i < perA; i++ {
				nextTxn.Lock()
				nextTxn.n++
				id := nextTxn.n
				nextTxn.Unlock()
				l.Reset(id)
				if err := l.Acquire(private, ModeIX); err != nil {
					t.Errorf("acquire private: %v", err)
					return
				}
				if err := l.Acquire(shared, ModeX); err != nil {
					t.Errorf("acquire shared: %v", err)
					return
				}
				counter++
				l.ReleaseAll()
			}
		}(a)
	}
	wg.Wait()
	if counter != agents*perA {
		t.Fatalf("lost updates with SLI: %d, want %d", counter, agents*perA)
	}
	// Each agent's private key misses once (first acquire) and hits
	// thereafter — unless stolen, which cannot happen to private keys.
	wantHits := int64(agents * (perA - 1))
	if got := m.Stats().SLIHits.Load(); got < wantHits {
		t.Fatalf("SLI hits: %d, want at least %d", got, wantHits)
	}
}

// TestSLIReleaseDoesNotLoseSteal runs two agents with lock caches over a
// few table keys, every transaction locking one of eight "tellers" and
// then the one "branch", all exclusively — a fixed order, so no wait can be a deadlock
// and each lasts as long as the other agent's transaction. A steal
// request that arrives while ReleaseAll is handing an adopted lock back
// to the cache must still be honoured: ReleaseAll used to read the
// entry's reclaim flag and then publish sliValid, and a request between
// the two was lost. The requester then queued on the branch behind a
// lock nobody was going to release, holding a teller; when its peer's
// next transaction drew that teller, both sat out the deadlock timeout
// (about ten times in the rounds run here).
func TestSLIReleaseDoesNotLoseSteal(t *testing.T) {
	m := newMgr(t, Config{SLI: true, DeadlockTimeout: 50 * time.Millisecond})
	branch := TableKey(100)
	rounds := 1_500_000
	if testing.Short() {
		rounds = 100_000
	}
	var wg sync.WaitGroup
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			l := m.NewLocker(0, NewAgentCache(0))
			defer l.DropCache()
			x := uint32(a*7919 + 1)
			for i := 0; i < rounds; i++ {
				l.Reset(uint64(2*i + a + 1))
				x = x*1664525 + 1013904223
				if l.Acquire(TableKey(uint32(x>>16)%8+1), ModeX) == nil {
					_ = l.Acquire(branch, ModeX) // a timeout is counted below
				}
				l.ReleaseAll()
			}
		}(a)
	}
	wg.Wait()
	if n := m.Stats().Timeouts.Load(); n != 0 {
		t.Fatalf("%d lock waits timed out", n)
	}
}

// TestSLINeverInheritsRowLocks: a transaction's table lock stays with
// its agent at commit, its row lock goes back to the table, and the next
// transaction's request for the same row goes to the table too.
func TestSLINeverInheritsRowLocks(t *testing.T) {
	m := newMgr(t, Config{SLI: true})
	cache := NewAgentCache(16)
	table, row := TableKey(1), RowKey(1, 7)
	l := m.NewLocker(1, cache)
	for id := uint64(1); id <= 2; id++ {
		l.Reset(id)
		if err := l.Acquire(table, ModeIX); err != nil {
			t.Fatal(err)
		}
		if err := l.Acquire(row, ModeX); err != nil {
			t.Fatal(err)
		}
		l.ReleaseAll()
		if got := m.HeldModes(row); len(got) != 0 {
			t.Fatalf("txn %d: row still granted %v after commit", id, got)
		}
		if got := m.HeldModes(table); len(got) != 1 || got[0] != ModeIX {
			t.Fatalf("txn %d: table grants %v, want the cached IX", id, got)
		}
		if cache.Len() != 1 {
			t.Fatalf("txn %d: cache len %d, want the table alone", id, cache.Len())
		}
	}
	if got := m.Stats().SLIHits.Load(); got != 1 {
		t.Fatalf("SLI hits %d, want 1 (the table, second time)", got)
	}
}

// TestTPCBLocksInheritOnlyTables counts what inheritance does to a stream
// of TPC-B-shaped transactions on one agent: the four table IX locks are
// cached once and hit by every later transaction, and no row lock —
// random, so never repeated in time to be worth keeping — stays granted
// after its commit.
func TestTPCBLocksInheritOnlyTables(t *testing.T) {
	const n = 1_000
	m := newMgr(t, Config{SLI: true})
	cache := NewAgentCache(0)
	l := m.NewLocker(0, cache)
	x := uint32(1)
	for id := uint64(1); id <= n; id++ {
		l.Reset(id)
		tpcbLocks(t, l, &x)
	}
	st := m.Stats()
	if got, want := st.SLIHits.Load(), int64(4*(n-1)); got != want {
		t.Errorf("SLI hits %d, want %d", got, want)
	}
	if got := st.SLISteals.Load(); got != 0 {
		t.Errorf("SLI steals %d, want 0", got)
	}
	if cache.Len() != 4 {
		t.Errorf("cache holds %d locks, want the 4 tables", cache.Len())
	}
	for space := uint32(1); space <= 4; space++ {
		for obj := uint64(1); obj <= 100_000; obj++ {
			if got := m.HeldModes(RowKey(space, obj)); len(got) != 0 {
				t.Fatalf("row %v still granted %v", RowKey(space, obj), got)
			}
		}
	}
	l.DropCache()
}
