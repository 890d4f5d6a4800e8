package lockmgr

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newMgr(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.DeadlockTimeout == 0 {
		cfg.DeadlockTimeout = 100 * time.Millisecond
	}
	return New(cfg)
}

func TestCompatibilityMatrix(t *testing.T) {
	// Spot-check the canonical entries.
	cases := []struct {
		a, b Mode
		want bool
	}{
		{ModeIS, ModeIS, true}, {ModeIS, ModeIX, true}, {ModeIS, ModeS, true},
		{ModeIS, ModeSIX, true}, {ModeIS, ModeX, false},
		{ModeIX, ModeIX, true}, {ModeIX, ModeS, false}, {ModeIX, ModeSIX, false},
		{ModeS, ModeS, true}, {ModeS, ModeX, false},
		{ModeSIX, ModeIS, true}, {ModeSIX, ModeSIX, false},
		{ModeX, ModeX, false}, {ModeX, ModeIS, false},
	}
	for _, c := range cases {
		if got := Compatible(c.a, c.b); got != c.want {
			t.Errorf("Compatible(%v,%v)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: compatibility is symmetric, and ModeNone is compatible with
// everything.
func TestQuickCompatibilitySymmetric(t *testing.T) {
	f := func(a, b uint8) bool {
		x, y := Mode(a%uint8(numModes)), Mode(b%uint8(numModes))
		if Compatible(x, y) != Compatible(y, x) {
			return false
		}
		return Compatible(ModeNone, x) && Compatible(x, ModeNone)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Supremum is commutative, idempotent, covers both args, and
// anything incompatible with a or b is incompatible with sup(a,b)'s
// holders... (we check the covering laws).
func TestQuickSupremumLaws(t *testing.T) {
	f := func(a, b uint8) bool {
		x, y := Mode(a%uint8(numModes)), Mode(b%uint8(numModes))
		s := Supremum(x, y)
		return s == Supremum(y, x) &&
			Supremum(x, x) == x &&
			Covers(s, x) && Covers(s, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoversReflexive(t *testing.T) {
	for m := ModeNone; m < numModes; m++ {
		if !Covers(m, m) {
			t.Errorf("Covers(%v,%v) false", m, m)
		}
	}
	if !Covers(ModeX, ModeS) || Covers(ModeS, ModeX) {
		t.Fatal("X/S covering wrong")
	}
	if !Covers(ModeSIX, ModeIX) || !Covers(ModeSIX, ModeS) {
		t.Fatal("SIX covering wrong")
	}
}

func TestKeyHelpers(t *testing.T) {
	tk := TableKey(3)
	if !tk.IsTable() || tk.String() != "space(3)" {
		t.Fatalf("table key: %v", tk)
	}
	rk := RowKey(3, 77)
	if rk.IsTable() || rk.String() != "space(3)/obj(77)" {
		t.Fatalf("row key: %v", rk)
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := newMgr(t, Config{})
	k := RowKey(1, 1)
	l1 := m.NewLocker(1, nil)
	l2 := m.NewLocker(2, nil)
	if err := l1.Acquire(k, ModeS); err != nil {
		t.Fatal(err)
	}
	if err := l2.Acquire(k, ModeS); err != nil {
		t.Fatal(err)
	}
	if got := len(m.HeldModes(k)); got != 2 {
		t.Fatalf("grants: %d", got)
	}
	l1.ReleaseAll()
	l2.ReleaseAll()
	if got := len(m.HeldModes(k)); got != 0 {
		t.Fatalf("grants after release: %d", got)
	}
}

func TestExclusiveBlocksAndELRUnblocks(t *testing.T) {
	m := newMgr(t, Config{DeadlockTimeout: 2 * time.Second})
	k := RowKey(1, 9)
	l1 := m.NewLocker(1, nil)
	if err := l1.Acquire(k, ModeX); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		l2 := m.NewLocker(2, nil)
		got <- l2.Acquire(k, ModeX)
	}()
	select {
	case <-got:
		t.Fatal("conflicting X granted while held")
	case <-time.After(20 * time.Millisecond):
	}
	l1.ReleaseAll() // the ELR moment: waiters proceed immediately
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := newMgr(t, Config{})
	k := RowKey(1, 1)
	l := m.NewLocker(1, nil)
	for i := 0; i < 3; i++ {
		if err := l.Acquire(k, ModeX); err != nil {
			t.Fatal(err)
		}
	}
	if l.HeldCount() != 1 || len(m.HeldModes(k)) != 1 {
		t.Fatal("duplicate grants")
	}
}

func TestUpgradeSingleHolder(t *testing.T) {
	m := newMgr(t, Config{})
	k := RowKey(1, 1)
	l := m.NewLocker(1, nil)
	if err := l.Acquire(k, ModeS); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(k, ModeX); err != nil {
		t.Fatal(err)
	}
	modes := m.HeldModes(k)
	if len(modes) != 1 || modes[0] != ModeX {
		t.Fatalf("modes after upgrade: %v", modes)
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	m := newMgr(t, Config{DeadlockTimeout: 2 * time.Second})
	k := RowKey(1, 1)
	l1 := m.NewLocker(1, nil)
	l2 := m.NewLocker(2, nil)
	if err := l1.Acquire(k, ModeS); err != nil {
		t.Fatal(err)
	}
	if err := l2.Acquire(k, ModeS); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l1.Acquire(k, ModeX) }()
	select {
	case <-done:
		t.Fatal("upgrade granted with another reader present")
	case <-time.After(20 * time.Millisecond):
	}
	l2.ReleaseAll()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	modes := m.HeldModes(k)
	if len(modes) != 1 || modes[0] != ModeX {
		t.Fatalf("modes: %v", modes)
	}
	l1.ReleaseAll()
}

func TestUpgradePriorityOverNewRequests(t *testing.T) {
	m := newMgr(t, Config{DeadlockTimeout: 2 * time.Second})
	k := RowKey(1, 1)
	l1 := m.NewLocker(1, nil)
	l2 := m.NewLocker(2, nil)
	l1.Acquire(k, ModeS)
	l2.Acquire(k, ModeS)

	upgraded := make(chan error, 1)
	go func() { upgraded <- l1.Acquire(k, ModeX) }()
	time.Sleep(10 * time.Millisecond) // let the upgrade queue

	fresh := make(chan error, 1)
	go func() {
		l3 := m.NewLocker(3, nil)
		fresh <- l3.Acquire(k, ModeX)
	}()
	time.Sleep(10 * time.Millisecond)

	l2.ReleaseAll()
	// The upgrade must win even though the fresh X request also waits.
	select {
	case err := <-upgraded:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("upgrade starved")
	}
	select {
	case <-fresh:
		t.Fatal("fresh X granted while upgraded X held")
	case <-time.After(20 * time.Millisecond):
	}
	l1.ReleaseAll()
	if err := <-fresh; err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockTimeout(t *testing.T) {
	m := newMgr(t, Config{DeadlockTimeout: 50 * time.Millisecond})
	ka, kb := RowKey(1, 1), RowKey(1, 2)
	l1 := m.NewLocker(1, nil)
	l2 := m.NewLocker(2, nil)
	if err := l1.Acquire(ka, ModeX); err != nil {
		t.Fatal(err)
	}
	if err := l2.Acquire(kb, ModeX); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- l1.Acquire(kb, ModeX) }()
	go func() { errs <- l2.Acquire(ka, ModeX) }()
	// At least one side must time out (both may).
	gotTimeout := false
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrLockTimeout) {
				gotTimeout = true
				// The victim aborts: release its locks so the other side
				// can proceed.
				if errs2 := err; errs2 != nil {
					// victim is whichever returned; both lockers release
					// in cleanup below.
				}
			}
		case <-time.After(2 * time.Second):
			t.Fatal("deadlock never resolved")
		}
		if gotTimeout {
			break
		}
	}
	if !gotTimeout {
		t.Fatal("no timeout in a true deadlock")
	}
	if m.Stats().Timeouts.Load() == 0 {
		t.Fatal("timeout not counted")
	}
}

func TestTimeoutUnblocksQueueBehind(t *testing.T) {
	// S held; X waits (will time out); another S queues behind the X.
	// When the X times out, the S behind it must be granted. The S
	// queues halfway through the X's timeout so its own timeout fires a
	// comfortable margin after the X's — the test asserts the grant, not
	// a scheduling race between two near-simultaneous expiries.
	m := newMgr(t, Config{DeadlockTimeout: 200 * time.Millisecond})
	k := RowKey(1, 1)
	holder := m.NewLocker(1, nil)
	holder.Acquire(k, ModeS)

	xErr := make(chan error, 1)
	go func() {
		lx := m.NewLocker(2, nil)
		xErr <- lx.Acquire(k, ModeX)
	}()
	time.Sleep(100 * time.Millisecond)

	sErr := make(chan error, 1)
	go func() {
		ls := m.NewLocker(3, nil)
		sErr <- ls.Acquire(k, ModeS)
	}()

	if err := <-xErr; !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("X: got %v, want timeout", err)
	}
	select {
	case err := <-sErr:
		if err != nil {
			t.Fatalf("S behind timed-out X: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("S stuck behind removed waiter")
	}
}

func TestHierarchicalIntentions(t *testing.T) {
	m := newMgr(t, Config{DeadlockTimeout: 50 * time.Millisecond})
	table := TableKey(5)
	l1 := m.NewLocker(1, nil)
	l2 := m.NewLocker(2, nil)
	// Row writers take IX at the table; they coexist.
	if err := l1.Acquire(table, ModeIX); err != nil {
		t.Fatal(err)
	}
	if err := l2.Acquire(table, ModeIX); err != nil {
		t.Fatal(err)
	}
	// A table scanner needs S — must wait for both IX holders.
	l3 := m.NewLocker(3, nil)
	if err := l3.Acquire(table, ModeS); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("table S with IX holders: %v", err)
	}
	l1.ReleaseAll()
	l2.ReleaseAll()
	if err := l3.Acquire(table, ModeS); err != nil {
		t.Fatal(err)
	}
}

func TestMutualExclusionStress(t *testing.T) {
	m := newMgr(t, Config{DeadlockTimeout: 5 * time.Second})
	k := RowKey(9, 42)
	var counter int // protected only by the X lock
	const workers = 16
	const perW = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := m.NewLocker(uint64(w+1), nil)
			for i := 0; i < perW; i++ {
				if err := l.Acquire(k, ModeX); err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				counter++
				l.ReleaseAll()
			}
		}(w)
	}
	wg.Wait()
	if counter != workers*perW {
		t.Fatalf("lost updates: %d, want %d — mutual exclusion violated",
			counter, workers*perW)
	}
}

func TestManyKeysConcurrent(t *testing.T) {
	m := newMgr(t, Config{DeadlockTimeout: 5 * time.Second})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := m.NewLocker(uint64(w+1), nil)
			for i := 0; i < 300; i++ {
				k := RowKey(uint32(i%7+1), uint64(i%97+1))
				mode := ModeS
				if (w+i)%3 == 0 {
					mode = ModeX
				}
				if err := l.Acquire(k, mode); err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if i%5 == 4 {
					l.ReleaseAll()
				}
			}
			l.ReleaseAll()
		}(w)
	}
	wg.Wait()
}

func TestLockerResetGuard(t *testing.T) {
	m := newMgr(t, Config{})
	l := m.NewLocker(1, nil)
	l.Acquire(RowKey(1, 1), ModeS)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Reset with held locks must panic")
			}
		}()
		l.Reset(2)
	}()
	l.ReleaseAll()
	l.Reset(2) // fine now
}

func TestStatsCounting(t *testing.T) {
	m := newMgr(t, Config{})
	l := m.NewLocker(1, nil)
	l.Acquire(RowKey(1, 1), ModeS)
	l.Acquire(RowKey(1, 1), ModeX) // upgrade
	l.ReleaseAll()
	st := m.Stats()
	if st.Acquires.Load() != 2 || st.Upgrades.Load() != 1 {
		t.Fatalf("stats: acquires=%d upgrades=%d", st.Acquires.Load(), st.Upgrades.Load())
	}
}
