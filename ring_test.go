package aether

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// liveHeap returns the bytes of heap still reachable after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestEmptyDatabaseHeapPerLane: an empty database holds at most 1.5 MiB
// of live heap a lane. Each lane's log buffer is a 1 MiB ring that its
// flush daemon writes to the device in place, with no staging copy, and
// nothing else the open allocates comes near it.
func TestEmptyDatabaseHeapPerLane(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			before := liveHeap()
			db, err := Open(Options{LogPartitions: n})
			if err != nil {
				t.Fatal(err)
			}
			held := liveHeap() - before
			runtime.KeepAlive(db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d lanes: %.2f MiB live heap, %.2f MiB a lane", n, float64(held)/(1<<20), float64(held)/float64(n)/(1<<20))
			if held > int64(n)*3<<19 {
				t.Fatalf("an empty %d-lane database holds %d bytes of heap, over 1.5 MiB a lane", n, held)
			}
		})
	}
}

// TestLoadNeverWaitsForRing: a 10 000-row load in 1 000-row transactions
// never finds its lane's 1 MiB ring full — no insert waits for room —
// and the counters say so; a blocking commit keeps at most one
// transaction's log, about 120 KB, pending.
func TestLoadNeverWaitsForRing(t *testing.T) {
	db, err := Open(Options{Mode: CommitSync})
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
	for k := uint64(1); k <= 10_000; {
		tx := s.Begin()
		for end := k + 1_000; k < end; k++ {
			if err := tx.Insert(tbl, k, Row(k, bytes.Repeat([]byte{byte(k) | 1}, 92))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.LogBytes < 1<<20 {
		t.Fatalf("the load logged %d bytes, want more than the ring holds", st.LogBytes)
	}
	if st.LogRingWaits != 0 || st.LogRingWaitTime != 0 {
		t.Fatalf("%d inserts waited %v for ring room", st.LogRingWaits, st.LogRingWaitTime)
	}
}
