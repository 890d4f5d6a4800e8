package aether

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// wideRow pads a row so ~5 fit per 8KiB page: modest key counts span
// many pages and a small CachePages budget is real memory pressure.
func wideRow(k, v uint64) []byte {
	return Row(k, append(make([]byte, 1500), byte(v)))
}

// TestLargerThanMemoryWorkload is the PR's acceptance scenario: with
// CachePages far below the working set, a workload whose data exceeds
// the cache budget completes correctly while residency never exceeds the
// budget and the paging counters move; a crash afterwards recovers the
// exact committed state.
func TestLargerThanMemoryWorkload(t *testing.T) {
	const budget = 8
	db, err := Open(Options{CachePages: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}

	s := db.Session()
	defer s.Close()
	const keys = 200 // ≈ 40 pages: 5× the budget
	model := make(map[uint64]uint64, keys)
	for k := uint64(1); k <= keys; k++ {
		tx := s.Begin()
		if err := tx.Insert(tbl, k, wideRow(k, k%251)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", k, err)
		}
		model[k] = k % 251
		if r := db.Stats().CacheResident; r > budget {
			t.Fatalf("resident %d exceeds budget %d", r, budget)
		}
	}
	// Update a stripe (faults evicted pages back in).
	for k := uint64(1); k <= keys; k += 5 {
		k := k
		tx := s.Begin()
		err := tx.Update(tbl, k, func([]byte) ([]byte, error) {
			return wideRow(k, 7), nil
		})
		if err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		model[k] = 7
	}

	st := db.Stats()
	if st.PageMisses == 0 || st.PageEvictions == 0 || st.StealWrites == 0 {
		t.Fatalf("paging counters flat under pressure: %+v", st)
	}
	if st.CacheResident > budget {
		t.Fatalf("resident %d exceeds budget %d", st.CacheResident, budget)
	}

	verify := func() {
		tx := s.Begin()
		for k := uint64(1); k <= keys; k++ {
			got, err := tx.Read(tbl, k)
			if err != nil {
				t.Fatalf("key %d: %v", k, err)
			}
			if v := got[len(got)-1]; uint64(v) != model[k] {
				t.Fatalf("key %d: value %d, want %d", k, v, model[k])
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	verify()

	// Crash + recover under the same budget: exact committed state, and
	// recovery itself stayed within bounds (lazy fault-in, no eager
	// archive load).
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	tbl, err = db.LookupTable("t")
	if err != nil {
		t.Fatal(err)
	}
	s = db.Session()
	verify()
	if r := db.Stats().CacheResident; r > budget {
		t.Fatalf("post-recovery resident %d exceeds budget %d", r, budget)
	}
}

// TestLargerThanMemoryFileBacked drives the steal path through the real
// pagefile: dirty pages evicted under pressure land in pagefile slots
// via the double-write journal, and a reopen (fresh process state) faults
// them back CRC-verified.
func TestLargerThanMemoryFileBacked(t *testing.T) {
	dir := t.TempDir()
	const budget = 6
	open := func() *DB {
		db, err := Open(Options{LogPath: filepath.Join(dir, "wal"), CachePages: budget})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	const keys = 150
	for k := uint64(1); k <= keys; k++ {
		tx := s.Begin()
		if err := tx.Insert(tbl, k, wideRow(k, k%97)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.StealWrites == 0 || st.CacheResident > budget {
		t.Fatalf("file-backed paging counters: %+v", st)
	}
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := open()
	defer db2.Close()
	tbl2, err := db2.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.RebuildAfterRecovery(); err != nil {
		t.Fatal(err)
	}
	s2 := db2.Session()
	defer s2.Close()
	tx := s2.Begin()
	for k := uint64(1); k <= keys; k++ {
		got, err := tx.Read(tbl2, k)
		if err != nil {
			t.Fatalf("key %d lost across reopen: %v", k, err)
		}
		if v := got[len(got)-1]; uint64(v) != k%97 {
			t.Fatalf("key %d: value %d, want %d", k, v, k%97)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if r := db2.Stats().CacheResident; r > budget {
		t.Fatalf("post-reopen resident %d exceeds budget %d", r, budget)
	}
}

// TestUnsetCacheStaysResident: without the option nothing pages out —
// today's fully resident behavior is preserved bit for bit.
func TestUnsetCacheStaysResident(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	defer s.Close()
	for k := uint64(1); k <= 150; k++ {
		tx := s.Begin()
		if err := tx.Insert(tbl, k, wideRow(k, k)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.PageEvictions != 0 || st.StealWrites != 0 {
		t.Fatalf("unbounded store paged out: %+v", st)
	}
	if st.CacheResident == 0 {
		t.Fatal("resident counter not tracking the unbounded store")
	}
}

// TestCleanerMovesWritebacksOffTheFaultPath runs one write-heavy
// larger-than-memory script twice — concurrent random point updates over
// a file-backed table several times the cache budget — with the
// background page cleaner armed and bare. The mechanism, as counts from
// the same two runs: armed, demand steals (dirty writebacks a faulting
// caller pays for) fall below half of the bare run's, the writebacks
// show up as cleaner writes in batched passes instead, and residency
// respects the budget either way. Throughput is not asserted. With the
// cleaner unarmed on both runs the test fails (no cleaner writes, and
// steals equal on both sides).
func TestCleanerMovesWritebacksOffTheFaultPath(t *testing.T) {
	const (
		budget  = 12
		clients = 4
	)
	rows, updates := uint64(900), 2000
	if testing.Short() {
		rows, updates = 500, 1000
	}
	run := func(cleanerPages int) Stats {
		db, err := Open(Options{
			LogPath:      filepath.Join(t.TempDir(), "wal"),
			CachePages:   budget,
			CleanerPages: cleanerPages,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tbl, err := db.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		s := db.Session()
		for k := uint64(1); k <= rows; k++ {
			tx := s.Begin()
			if err := tx.Insert(tbl, k, wideRow(k, 0)); err != nil {
				t.Fatalf("load %d: %v", k, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()

		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				s := db.Session()
				defer s.Close()
				rng := rand.New(rand.NewSource(int64(c) + 1))
				for i := 0; i < updates/clients; i++ {
					k := uint64(rng.Int63n(int64(rows))) + 1
					tx := s.Begin()
					err := tx.Update(tbl, k, func(row []byte) ([]byte, error) {
						row[len(row)-1]++
						return row, nil
					})
					if err != nil {
						tx.Abort()
						t.Errorf("update %d: %v", k, err)
						return
					}
					if err := tx.Commit(); err != nil {
						t.Errorf("commit %d: %v", k, err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		st := db.Stats()
		if st.CacheResident > budget {
			t.Errorf("cleaner pages %d: resident %d exceeds budget %d", cleanerPages, st.CacheResident, budget)
		}
		return st
	}

	bare := run(0)
	armed := run(budget) // keep the whole pool clean
	t.Logf("demand steals: %d bare, %d armed (%d cleaner writes in %d passes)",
		bare.StealWrites, armed.StealWrites, armed.CleanerWrites, armed.CleanerPasses)
	if bare.CleanerWrites != 0 || bare.CleanerPasses != 0 {
		t.Fatalf("unarmed run recorded cleaner activity: %d writes, %d passes", bare.CleanerWrites, bare.CleanerPasses)
	}
	if bare.StealWrites == 0 {
		t.Fatal("bare run never stole: the working set fits the budget and the script exercises nothing")
	}
	if armed.CleanerWrites == 0 || armed.CleanerPasses == 0 {
		t.Fatalf("armed run's cleaner never wrote a page: %d writes, %d passes", armed.CleanerWrites, armed.CleanerPasses)
	}
	if armed.StealWrites >= bare.StealWrites/2 {
		t.Fatalf("cleaner barely moved writebacks off the fault path: %d demand steals armed vs %d bare",
			armed.StealWrites, bare.StealWrites)
	}
}
