package aether

import (
	"errors"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aether/internal/logdev"
)

// tapStore is an ObjectStore that counts what crosses it — bytes
// uploaded, and per key the downloads and the bytes they moved — and can
// tear the next snapshot upload the way a store that keeps a prefix
// does.
type tapStore struct {
	ObjectStore

	mu       sync.Mutex
	up       int64
	gets     map[string]int
	down     int64
	tearSnap bool   // tear the next Put under snap/
	tornKey  string // the key that tear left behind
}

func newTapStore() *tapStore {
	return &tapStore{ObjectStore: NewMemObjectStore(), gets: make(map[string]int)}
}

func (s *tapStore) Put(key string, data []byte) error {
	s.mu.Lock()
	tear := s.tearSnap && strings.HasPrefix(key, "snap/")
	if tear {
		s.tearSnap = false
	}
	s.mu.Unlock()
	if tear {
		if err := s.ObjectStore.Put(key, data[:len(data)/2]); err != nil {
			return err
		}
		s.mu.Lock()
		s.tornKey = key
		s.mu.Unlock()
		return logdev.ErrTornUpload
	}
	err := s.ObjectStore.Put(key, data)
	if err == nil {
		s.mu.Lock()
		s.up += int64(len(data))
		s.mu.Unlock()
	}
	return err
}

func (s *tapStore) Get(key string) ([]byte, error) {
	data, err := s.ObjectStore.Get(key)
	if err == nil {
		s.mu.Lock()
		s.gets[key]++
		s.down += int64(len(data))
		s.mu.Unlock()
	}
	return data, err
}

// counts returns the counters and clears the download ones.
func (s *tapStore) counts() (up, down int64, gets map[string]int, tornKey string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	up, down, gets, tornKey = s.up, s.down, s.gets, s.tornKey
	s.down, s.gets = 0, make(map[string]int)
	return
}

// TestColdStoreTraffic counts a cold store's traffic: every archived
// segment is uploaded once as one object of the segment plus its
// 24-byte envelope, and restoring the durable end downloads each of
// those objects exactly once and nothing else. It runs with default
// options, and on three lanes with SnapshotEveryBytes set: snapshots
// are a one-lane feature, so there every lane archives, no snapshot is
// cut, the floor stays 0 and RestoreTo replays from the beginning.
func TestColdStoreTraffic(t *testing.T) {
	const segSize = 4096
	for _, tc := range []struct {
		name  string
		lanes int
		snap  int64
	}{
		{"default", 1, 0},
		{"N=3/snapshots", 3, 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := newTapStore()
			db, err := Open(Options{
				SegmentSize:        segSize,
				RemoteStore:        store,
				Mode:               CommitSync,
				LogPartitions:      tc.lanes,
				RoutePartition:     func(txnID uint64, _ uint32) int { return int(txnID) },
				SnapshotEveryBytes: tc.snap,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tbl, err := db.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}
			for batch := uint64(0); batch < 4; batch++ {
				writeRows(t, db, tbl, 1+batch*50, 1+(batch+1)*50)
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "archiver drain", func() bool {
				s := db.Stats()
				return s.LogSegmentsPendingArchive == 0 && s.LogSegmentsArchived > 0
			})
			st := db.Stats()
			archived := st.LogSegmentsArchived
			if st.LogSnapshots != 0 || st.RestoreFloor != 0 || st.RetentionFailures != 0 {
				t.Fatalf("LogSnapshots %d, RestoreFloor %d, RetentionFailures %d, want no snapshot step at all",
					st.LogSnapshots, st.RestoreFloor, st.RetentionFailures)
			}
			for i := 0; i < tc.lanes; i++ {
				lane := logdev.LaneDir("", i, tc.lanes)
				if segs, err := store.List(path.Join(lane, "seg") + "/"); err != nil || len(segs) == 0 {
					t.Fatalf("lane %d archived %d segments (%v), want some", i, len(segs), err)
				}
			}
			keys, err := store.List("")
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(keys)) != archived {
				t.Fatalf("cold store holds %d objects %v for %d archived segments, want one each", len(keys), keys, archived)
			}
			perObject := int64(segSize + 24)
			if up, _, _, _ := store.counts(); up != archived*perObject {
				t.Fatalf("uploaded %d bytes for %d archived segments, want %d × %d = %d",
					up, archived, archived, perObject, archived*perObject)
			}

			restoredKeys(t, db, "t", 200)
			_, down, gets, _ := store.counts()
			for _, key := range keys {
				if gets[key] != 1 {
					t.Errorf("restore downloaded %s %d times, want once", key, gets[key])
				}
			}
			if len(gets) != len(keys) {
				t.Errorf("restore downloaded %d distinct objects %v, want the %d segment objects", len(gets), gets, len(keys))
			}
			if down > archived*perObject {
				t.Errorf("restore downloaded %d bytes, more than the %d the segment objects hold", down, archived*perObject)
			}
		})
	}
}

// TestTornSnapshotSkipped: a snapshot upload the store tore is absent to
// RestoreTo, which falls back to the older snapshot for a target above
// the torn cut, and to the next snapshot pass, which seeds from that
// older snapshot and cuts a new one instead of failing on every pass.
func TestTornSnapshotSkipped(t *testing.T) {
	store := newTapStore()
	db, err := Open(Options{SegmentSize: 4096, RemoteStore: store, SnapshotEveryBytes: 4096, Mode: CommitSync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	// Each batch logs more than SnapshotEveryBytes and ends in a
	// checkpoint, so the maintenance pass it nudges is due exactly once.
	next := uint64(1)
	batch := func() {
		writeRows(t, db, tbl, next, next+20)
		next += 20
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	waitFor(t, "the first snapshot", func() bool { return db.Stats().LogSnapshots == 1 })

	store.mu.Lock()
	store.tearSnap = true
	store.mu.Unlock()
	batch()
	var tornKey string
	waitFor(t, "a torn snapshot upload", func() bool {
		_, _, _, tornKey = store.counts()
		return tornKey != ""
	})
	// A few more commits, too few for another snapshot: the newest
	// snapshot at or below the target is the torn one.
	writeRows(t, db, tbl, next, next+3)
	next += 3
	var tornCut int64
	if _, err := fmt.Sscanf(strings.TrimPrefix(tornKey, "snap/"), "%d", &tornCut); err != nil || tornCut >= db.RestorePoint() {
		t.Fatalf("torn snapshot %s does not lie below the restore target %d (%v)", tornKey, db.RestorePoint(), err)
	}
	restoredKeys(t, db, "t", next-1)

	batch()
	waitFor(t, "a snapshot pass after the torn one", func() bool { return db.Stats().LogSnapshots == 2 })
	restoredKeys(t, db, "t", next-1)
}

// TestColdStorePackRefused: a cold store holding pack/ objects — segments
// an earlier version compacted, which this one does not read — is
// refused by Open with the typed format error, through either spelling
// of the cold store and at either lane count, and no object in it is
// touched.
func TestColdStorePackRefused(t *testing.T) {
	for _, n := range []int{1, 3} {
		packKey := logdev.LaneDir("", n-1, n)
		if packKey != "" {
			packKey += "/"
		}
		packKey += "pack/0000000000000000-0000000000000003"
		t.Run(fmt.Sprintf("RemoteStore/N=%d", n), func(t *testing.T) {
			store := NewMemObjectStore()
			if err := store.Put(packKey, []byte("a pack an earlier version wrote")); err != nil {
				t.Fatal(err)
			}
			before := storeImage(t, store)
			if _, err := Open(Options{RemoteStore: store, LogPartitions: n}); !errors.Is(err, logdev.ErrFormat) {
				t.Fatalf("Open over a store holding %s: %v, want logdev.ErrFormat", packKey, err)
			}
			if after := storeImage(t, store); !reflect.DeepEqual(before, after) {
				t.Fatalf("refused open changed the store: %v → %v", imageNames(before), imageNames(after))
			}
		})
		t.Run(fmt.Sprintf("ArchiveDir/N=%d", n), func(t *testing.T) {
			logDir := filepath.Join(t.TempDir(), "wal.d")
			coldDir := filepath.Join(logDir, "archive")
			pack := filepath.Join(coldDir, filepath.FromSlash(packKey))
			if err := os.MkdirAll(filepath.Dir(pack), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(pack, []byte("a pack an earlier version wrote"), 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirImage(t, coldDir)
			if _, err := Open(Options{LogPath: logDir, ArchiveDir: coldDir, LogPartitions: n}); !errors.Is(err, logdev.ErrFormat) {
				t.Fatalf("Open over an archive holding %s: %v, want logdev.ErrFormat", packKey, err)
			}
			if after := dirImage(t, coldDir); !reflect.DeepEqual(before, after) {
				t.Fatalf("refused open changed the archive: %v → %v", imageNames(before), imageNames(after))
			}
		})
	}
}

// storeImage maps every object in store to its bytes.
func storeImage(t *testing.T, store ObjectStore) map[string][]byte {
	t.Helper()
	keys, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	img := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if img[k], err = store.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	return img
}
