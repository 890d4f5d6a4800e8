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
// tear the next upload under a prefix the way a store that keeps a
// prefix does.
type tapStore struct {
	ObjectStore

	mu      sync.Mutex
	up      int64
	gets    map[string]int
	down    int64
	tearDir string // tear the next Put under this prefix
	tornKey string // the key that tear left behind
}

func newTapStore() *tapStore {
	return &tapStore{ObjectStore: NewMemObjectStore(), gets: make(map[string]int)}
}

func (s *tapStore) Put(key string, data []byte) error {
	s.mu.Lock()
	tear := s.tearDir != "" && strings.HasPrefix(key, s.tearDir)
	if tear {
		s.tearDir = ""
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
// 24-byte envelope, and restoring the durable end downloads each object
// it reads exactly once. With default options nothing but segments is
// uploaded, and the restore replays every segment object from the
// beginning. On three lanes with SnapshotEveryBytes set, snapshots are
// taken too — a snapshot is a page file and its cut a stamp, so the lane
// count does not matter — and the restore reads the newest snapshot's
// manifest and images objects and each lane's segment objects from its
// low-water mark on.
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
				return s.LogSegmentsPendingArchive == 0 && s.LogSegmentsArchived > 0 && (tc.snap == 0) == (s.LogSnapshots == 0)
			})
			// Stop the daemons: a snapshot pass still running would read
			// the store beside the restore.
			db.eng.Close()
			st := db.Stats()
			archived := st.LogSegmentsArchived
			if st.RestoreFloor != 0 || st.RetentionFailures != 0 {
				t.Fatalf("RestoreFloor %d, RetentionFailures %d, want 0 and 0: nothing is retained away", st.RestoreFloor, st.RetentionFailures)
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
			var segKeys, snapKeys []string
			var snapBytes int64
			for _, key := range keys {
				if strings.Contains(key, "seg/") {
					segKeys = append(segKeys, key)
					continue
				}
				snapKeys = append(snapKeys, key)
				obj, err := store.ObjectStore.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				snapBytes += int64(len(obj))
			}
			if int64(len(segKeys)) != archived {
				t.Fatalf("cold store holds %d segment objects %v for %d archived segments, want one each", len(segKeys), segKeys, archived)
			}
			if tc.snap == 0 && len(snapKeys) != 0 {
				t.Fatalf("cold store holds %v without snapshots", snapKeys)
			}
			if tc.snap > 0 && len(snapKeys) < 2*int(st.LogSnapshots) {
				t.Fatalf("%d snapshots left %d objects %v, want a manifest and an images object each at least", st.LogSnapshots, len(snapKeys), snapKeys)
			}
			perObject := int64(segSize + 24)
			if up, _, _, _ := store.counts(); up != archived*perObject+snapBytes {
				t.Fatalf("uploaded %d bytes for %d archived segments and %d snapshot bytes, want %d × %d + %d = %d",
					up, archived, snapBytes, archived, perObject, snapBytes, archived*perObject+snapBytes)
			}

			restoredKeys(t, db, "t", 200)
			_, down, gets, _ := store.counts()
			for key, n := range gets {
				if n != 1 {
					t.Errorf("restore downloaded %s %d times, want once", key, n)
				}
			}
			if tc.snap == 0 {
				for _, key := range keys {
					if gets[key] != 1 {
						t.Errorf("restore from genesis did not download %s", key)
					}
				}
			} else {
				newest, err := db.snaps.NewestAtOrBelow(uint64(db.RestorePoint()))
				if err != nil || newest == nil {
					t.Fatalf("no snapshot to restore from (%v)", err)
				}
				// (NewestAtOrBelow just downloaded the manifest once more.)
				for _, ref := range newest.Objects() {
					if key := fmt.Sprintf("image/%020d-%06d", ref.At, ref.Chunk); gets[key] != 1 {
						t.Errorf("restore downloaded images object %s %d times, want once", key, gets[key])
					}
				}
				for i, l := range newest.Lanes {
					lane := logdev.LaneDir("", i, tc.lanes) + "/seg/"
					for _, key := range segKeys {
						var idx int64
						fmt.Sscanf(strings.TrimPrefix(key, lane), "%d", &idx)
						if strings.HasPrefix(key, lane) && gets[key] > 0 && (idx+1)*segSize <= int64(l.LowWater) {
							t.Errorf("restore downloaded %s, wholly below lane %d's low-water mark %d", key, i, l.LowWater)
						}
					}
				}
			}
			if len(gets) == 0 || down > archived*perObject+snapBytes {
				t.Errorf("restore downloaded %d objects and %d bytes, more than the %d the store holds", len(gets), down, archived*perObject+snapBytes)
			}
		})
	}
}

// TestTornSnapshotSkipped: a snapshot upload the store tore — its
// manifest, or one of its images objects — leaves no snapshot: RestoreTo
// falls back to the older snapshot for a target above it, and the next
// snapshot pass compares against that older snapshot and takes a new one
// instead of failing on every pass. An images object damaged after its
// snapshot was complete makes that snapshot absent to RestoreTo too.
func TestTornSnapshotSkipped(t *testing.T) {
	for _, dir := range []string{"manifest/", "image/"} {
		t.Run(strings.TrimSuffix(dir, "/"), func(t *testing.T) {
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
			// checkpoint, so the maintenance pass it nudges is due exactly
			// once.
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
			store.tearDir = dir
			store.mu.Unlock()
			batch()
			var tornKey string
			waitFor(t, "a torn snapshot upload", func() bool {
				_, _, _, tornKey = store.counts()
				return tornKey != "" && db.Stats().RetentionFailures == 1
			})
			// A few more commits, too few for another snapshot: the newest
			// snapshot at or below the target would be the torn one.
			writeRows(t, db, tbl, next, next+3)
			next += 3
			var tornAt int64
			if _, err := fmt.Sscanf(strings.TrimPrefix(tornKey, dir), "%d", &tornAt); err != nil || tornAt >= db.RestorePoint() {
				t.Fatalf("torn snapshot %s does not lie below the restore target %d (%v)", tornKey, db.RestorePoint(), err)
			}
			if st := db.Stats(); st.LogSnapshots != 1 {
				t.Fatalf("LogSnapshots %d after a torn upload, want 1", st.LogSnapshots)
			}
			restoredKeys(t, db, "t", next-1)

			batch()
			waitFor(t, "a snapshot pass after the torn one", func() bool { return db.Stats().LogSnapshots == 2 })
			restoredKeys(t, db, "t", next-1)

			// Damage the newest snapshot's first images object after the
			// fact: the restore falls back past that snapshot.
			db.eng.Close()
			newest, err := db.snaps.NewestAtOrBelow(uint64(db.RestorePoint()))
			if err != nil || newest == nil {
				t.Fatalf("no snapshot (%v)", err)
			}
			key := fmt.Sprintf("image/%020d-%06d", newest.At, 0)
			obj, err := store.ObjectStore.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.ObjectStore.Put(key, obj[:len(obj)/2]); err != nil {
				t.Fatal(err)
			}
			restoredKeys(t, db, "t", next-1)
		})
	}
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

// TestColdStoreSnapRefused: a cold store holding snap/ objects — the
// replayed snapshots (envelope kind 3) an earlier version cut on a
// one-lane log — is refused by Open with the typed format error through
// either spelling of the cold store, and no object in it is touched.
func TestColdStoreSnapRefused(t *testing.T) {
	const snapKey = "snap/00000000000000036850"
	snap := logdev.EncodeObject(3, 36850, []byte("a snapshot an earlier version cut"))
	t.Run("RemoteStore", func(t *testing.T) {
		store := NewMemObjectStore()
		if err := store.Put(snapKey, snap); err != nil {
			t.Fatal(err)
		}
		before := storeImage(t, store)
		if _, err := Open(Options{RemoteStore: store}); !errors.Is(err, logdev.ErrFormat) {
			t.Fatalf("Open over a store holding %s: %v, want logdev.ErrFormat", snapKey, err)
		}
		if after := storeImage(t, store); !reflect.DeepEqual(before, after) {
			t.Fatalf("refused open changed the store: %v → %v", imageNames(before), imageNames(after))
		}
	})
	t.Run("ArchiveDir", func(t *testing.T) {
		logDir := filepath.Join(t.TempDir(), "wal.d")
		coldDir := filepath.Join(logDir, "archive")
		obj := filepath.Join(coldDir, filepath.FromSlash(snapKey))
		if err := os.MkdirAll(filepath.Dir(obj), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(obj, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirImage(t, coldDir)
		if _, err := Open(Options{LogPath: logDir, ArchiveDir: coldDir}); !errors.Is(err, logdev.ErrFormat) {
			t.Fatalf("Open over an archive holding %s: %v, want logdev.ErrFormat", snapKey, err)
		}
		if after := dirImage(t, coldDir); !reflect.DeepEqual(before, after) {
			t.Fatalf("refused open changed the archive: %v → %v", imageNames(before), imageNames(after))
		}
	})
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
