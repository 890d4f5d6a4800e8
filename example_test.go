package aether_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"aether"
)

// ExampleOpen opens an in-memory database, commits a transaction under
// flush pipelining (the default, safe, non-blocking protocol) and reads
// the row back.
func ExampleOpen() {
	db, err := aether.Open(aether.Options{
		Device: aether.DeviceFlash, // simulated 100µs-sync log device
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	users, err := db.CreateTable("users")
	if err != nil {
		log.Fatal(err)
	}

	s := db.Session() // one per worker goroutine
	defer s.Close()

	tx := s.Begin()
	if err := tx.Insert(users, 1, aether.Row(1, []byte("alice"))); err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(); err != nil { // durable when it returns
		log.Fatal(err)
	}

	tx = s.Begin()
	row, err := tx.Read(users, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user 1: %s\n", aether.RowPayload(row))
	// Output: user 1: alice
}

// ExampleOptions_checkpointEveryBytes runs the background incremental
// checkpointer: with SegmentSize and CheckpointEveryBytes set, a
// goroutine takes a fuzzy checkpoint every N appended log bytes and
// recycles dead segments, so the log stays bounded with zero
// Checkpoint calls and zero commit-path stalls.
func ExampleOptions_checkpointEveryBytes() {
	db, err := aether.Open(aether.Options{
		SegmentSize:          16 << 10, // 16KiB log segments
		CheckpointEveryBytes: 64 << 10, // checkpoint every 64KiB of log
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	accounts, err := db.CreateTable("accounts")
	if err != nil {
		log.Fatal(err)
	}
	s := db.Session()
	defer s.Close()
	for id := uint64(1); id <= 500; id++ {
		tx := s.Begin()
		if err := tx.Insert(accounts, id, aether.Row(id, make([]byte, 128))); err != nil {
			log.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	// The checkpointer runs concurrently; its progress shows up in
	// Stats.AutoCheckpoints and an advancing Stats.LogBase.
	fmt.Printf("committed %d transactions\n", db.Stats().Commits)
	// Output: committed 500 transactions
}

// ExampleOptions_cleanerPages arms the background page cleaner on a
// bounded buffer pool: a goroutine writes dirty, cold pages back to the
// database file ahead of demand — one log force and one two-fsync batch
// per pass — so eviction under memory pressure finds clean victims and
// drops frames instead of stalling the faulting transaction on a demand
// steal's fsyncs.
func ExampleOptions_cleanerPages() {
	dir, err := os.MkdirTemp("", "aether-cleaner-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := aether.Open(aether.Options{
		LogPath:      filepath.Join(dir, "wal"),
		CachePages:   8, // tiny pool: the table below is ~10× larger
		CleanerPages: 8, // pre-clean whenever any frame is dirty
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	items, err := db.CreateTable("items")
	if err != nil {
		log.Fatal(err)
	}
	s := db.Session()
	defer s.Close()
	for id := uint64(1); id <= 400; id++ {
		tx := s.Begin()
		if err := tx.Insert(items, id, aether.Row(id, make([]byte, 1500))); err != nil {
			log.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}

	st := db.Stats()
	fmt.Printf("resident within budget: %v\n", st.CacheResident <= 8)
	fmt.Printf("cleaner wrote pages ahead of demand: %v\n", st.CleanerWrites > 0)
	fmt.Printf("every row still readable: %v\n", func() bool {
		tx := s.Begin()
		defer tx.Commit()
		for id := uint64(1); id <= 400; id++ {
			if _, err := tx.Read(items, id); err != nil {
				return false
			}
		}
		return true
	}())
	// Output:
	// resident within budget: true
	// cleaner wrote pages ahead of demand: true
	// every row still readable: true
}

// ExampleOptions_archiveDir enables log archiving: dead segments are
// shipped into a cold-store directory before their slots are recycled,
// and RestoreTo replays that archived history stitched to the hot log —
// the committed state at any captured point stays reconstructible even
// though the hot directory holds only the tail.
func ExampleOptions_archiveDir() {
	dir, err := os.MkdirTemp("", "aether-archive-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	logDir := filepath.Join(dir, "wal.d")
	db, err := aether.Open(aether.Options{
		LogPath:     logDir,
		SegmentSize: 16 << 10,
		ArchiveDir:  filepath.Join(logDir, "archive"), // the conventional spot
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	events, err := db.CreateTable("events")
	if err != nil {
		log.Fatal(err)
	}
	s := db.Session()
	defer s.Close()
	var midway int64 // a restore point: the durable position after event 100
	for id := uint64(1); id <= 300; id++ {
		tx := s.Begin()
		if err := tx.Insert(events, id, aether.Row(id, make([]byte, 256))); err != nil {
			log.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
		if id == 100 {
			midway = db.RestorePoint()
		}
	}
	// The checkpoint kills the old segments; the archiver ships them to
	// the cold store before recycling.
	if err := db.Checkpoint(); err != nil {
		log.Fatal(err)
	}

	count := func(at int64) (n int) {
		then, err := db.RestoreTo(at)
		if err != nil {
			log.Fatal(err)
		}
		if err := then.Scan("events", func(uint64, []byte) bool { n++; return true }); err != nil {
			log.Fatal(err)
		}
		return n
	}
	st := db.Stats()
	fmt.Printf("hot log starts at base > 0: %v\n", st.LogBase > 0)
	fmt.Printf("events at the midway point: %d\n", count(midway))
	fmt.Printf("events now: %d\n", count(db.RestorePoint()))
	// Output:
	// hot log starts at base > 0: true
	// events at the midway point: 100
	// events now: 300
}
