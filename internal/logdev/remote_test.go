package logdev

import (
	"bytes"
	"errors"
	"testing"

	"aether/internal/vfs"
)

// forEachObjectStore runs fn over every ObjectStore the tree ships: the
// in-memory cloud, a directory on the real filesystem, and a directory on
// the fault filesystem (the soak's cold store) — one archiver, whatever
// holds its objects.
func forEachObjectStore(t *testing.T, fn func(t *testing.T, store ObjectStore)) {
	t.Run("mem", func(t *testing.T) { fn(t, NewMemObjectStore()) })
	t.Run("dir", func(t *testing.T) {
		store, err := NewDirObjectStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, store)
	})
	t.Run("dir-faultfs", func(t *testing.T) {
		store, err := NewDirObjectStoreFS(vfs.NewFaultFS(1), "/cold")
		if err != nil {
			t.Fatal(err)
		}
		fn(t, store)
	})
}

// newArchiver is NewRemoteArchiver for 64-byte segments over a store it
// accepts.
func newArchiver(t *testing.T, store ObjectStore) *RemoteArchiver {
	t.Helper()
	ra, err := NewRemoteArchiver(store, "", 64)
	if err != nil {
		t.Fatal(err)
	}
	return ra
}

// TestColdStoreRoundtripAndIdempotency: what is archived comes back
// byte-identical, re-shipping a durable segment uploads nothing, and —
// the case a "same size is the same bytes" check could never pass — an
// object corrupted in place at equal length reads as not archived and is
// shipped again.
func TestColdStoreRoundtripAndIdempotency(t *testing.T) {
	forEachObjectStore(t, func(t *testing.T, store ObjectStore) {
		ra := newArchiver(t, store)
		want := fill(64, 'z')
		if err := ra.Archive(7, want); err != nil {
			t.Fatal(err)
		}
		if err := ra.Archive(7, want); err != nil {
			t.Fatalf("re-archiving the same segment: %v", err)
		}
		if st := ra.Stats(); st.SegmentsUploaded != 1 || st.UploadSkipped != 1 {
			t.Fatalf("after a re-ship: %+v, want one upload and one skip", st)
		}
		got, err := ra.Retrieve(7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("archived segment mismatch")
		}
		if _, err := ra.Retrieve(8); !errors.Is(err, ErrNotArchived) {
			t.Fatalf("Retrieve of missing segment: %v, want ErrNotArchived", err)
		}
		if segs, err := ra.Segments(); err != nil || len(segs) != 1 || segs[0] != 7 {
			t.Fatalf("Segments = %v, %v, want [7]", segs, err)
		}

		obj, err := store.Get(ra.segKey(7))
		if err != nil {
			t.Fatal(err)
		}
		obj[len(obj)/2] ^= 0x40 // rot, length unchanged
		if err := store.Put(ra.segKey(7), obj); err != nil {
			t.Fatal(err)
		}
		if _, err := ra.Retrieve(7); !errors.Is(err, ErrNotArchived) {
			t.Fatalf("Retrieve of a corrupt object: %v, want ErrNotArchived", err)
		}
		if err := ra.Archive(7, want); err != nil {
			t.Fatal(err)
		}
		if st := ra.Stats(); st.SegmentsUploaded != 2 {
			t.Fatalf("corrupt object was skipped, not re-shipped: %+v", st)
		}
		if got, err := ra.Retrieve(7); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("segment after re-ship: %v", err)
		}
	})
}

// TestOldVersionObjectRefused: segment and snapshot objects carry log
// bytes and update payloads, so an object in the envelope version of
// the record encoding before this one (objVersion 1: 48-byte record
// headers, whole-row images) is refused — ErrBadObject and ErrFormat —
// by everything that would decode it, and neither read as torn and
// overwritten nor handed to today's record decoder.
func TestOldVersionObjectRefused(t *testing.T) {
	old := func(kind uint16, meta uint64, payload []byte) []byte {
		obj := EncodeObject(kind, meta, payload)
		obj[4], obj[5] = 1, 0 // the version field; the payload CRC does not cover it
		return obj
	}
	if _, _, _, err := DecodeObject(old(ObjSegment, 7, fill(64, 'o'))); !errors.Is(err, ErrBadObject) || !errors.Is(err, ErrFormat) {
		t.Fatalf("DecodeObject of a version-1 object: %v, want ErrBadObject and ErrFormat", err)
	}
	forEachObjectStore(t, func(t *testing.T, store ObjectStore) {
		ra := newArchiver(t, store)
		snap := EncodeSnapshot(&Snapshot{Cut: 128, Stash: []SnapshotStashRec{{TxnID: 9, At: 100, PageID: 1, Payload: []byte("undo")}}})
		objs := map[string][]byte{
			ra.segKey(7):    old(ObjSegment, 7, fill(64, 'o')),
			ra.snapKey(128): old(ObjSnapshot, 128, snap),
		}
		for key, obj := range objs {
			if err := store.Put(key, obj); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ra.Retrieve(7); !errors.Is(err, ErrFormat) {
			t.Errorf("Retrieve of a version-1 segment: %v, want ErrFormat", err)
		}
		if err := ra.Archive(7, fill(64, 'n')); !errors.Is(err, ErrFormat) {
			t.Errorf("Archive over a version-1 segment: %v, want ErrFormat", err)
		}
		if _, err := ra.GetSnapshot(128); !errors.Is(err, ErrFormat) {
			t.Errorf("GetSnapshot of a version-1 snapshot: %v, want ErrFormat", err)
		}
		for key, want := range objs {
			if got, err := store.Get(key); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s was touched (err %v)", key, err)
			}
		}
	})
}

// TestRemoteArchiverFaults drives the remote tier through the three
// network-failure shapes the fault model injects — a transient 5xx
// storm, an upload torn mid-object, and a permanent outage — and checks
// the shared invariants: retries are counted, zero segments are lost,
// and parked slots are never recycled before their bytes are durably
// uploaded.
func TestRemoteArchiverFaults(t *testing.T) {
	errCloudDown := errors.New("cloud unreachable")
	cases := []struct {
		name string
		arm  NetFault
		// healAfter > 0 heals the fault after that many failed drains
		// (permanent outages never clear on their own).
		healAfter     int
		wantAttempts  int
		wantPutErrors int64
		wantTornPuts  int64
	}{
		{
			name:          "transient-5xx-storm",
			arm:           NetFault{FailPuts: 2},
			wantAttempts:  2,
			wantPutErrors: 2,
		},
		{
			name:          "torn-upload-mid-object",
			arm:           NetFault{TearPutAfter: 1},
			wantAttempts:  1,
			wantPutErrors: 1,
			wantTornPuts:  1,
		},
		{
			name:      "permanent-outage",
			arm:       NetFault{Outage: errCloudDown},
			healAfter: 5,
			// 5 failed drains plus the mid-outage RestoreLog probe, which
			// itself attempts (and must refuse to skip) the pending drain.
			wantAttempts:  5,
			wantPutErrors: 6,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := NewMemObjectStore()
			s := newMemDev(t, ProfileMemory, 64)
			defer s.Close()
			ra := newArchiver(t, store)
			s.SetArchiver(ra)

			want := fill(320, 'r') // segments 0..4
			appendSync(t, s, want)
			if err := s.Truncate(200); err != nil { // parks segments 0,1,2
				t.Fatal(err)
			}
			store.Arm(tc.arm)

			attempts := 0
			for {
				n, err := s.ArchivePending()
				if err == nil {
					if n != 3 {
						t.Fatalf("drain shipped %d segments, want 3", n)
					}
					break
				}
				attempts++
				// While the fault holds, the parked slots must hold too.
				if got := s.PendingArchive(); len(got) != 3 {
					t.Fatalf("attempt %d: PendingArchive = %v, want 3 parked segments", attempts, got)
				}
				if recycled, _ := s.TruncStats(); recycled != 0 {
					t.Fatalf("attempt %d: %d segments recycled before durable upload", attempts, recycled)
				}
				if tc.arm.Outage != nil && attempts == 3 {
					// Mid-outage a restore must fail loudly, never return a
					// truncated history.
					if _, _, err := s.RestoreLog(ra, 0); err == nil {
						t.Fatal("RestoreLog during outage returned success")
					}
				}
				if tc.healAfter > 0 && attempts == tc.healAfter {
					store.Arm(NetFault{})
				}
				if attempts > 50 {
					t.Fatalf("drain never succeeded: %+v", store.Stats())
				}
			}

			if attempts != tc.wantAttempts {
				t.Errorf("failed drains = %d, want %d", attempts, tc.wantAttempts)
			}
			st := store.Stats()
			if st.PutErrors != tc.wantPutErrors {
				t.Errorf("PutErrors = %d, want %d", st.PutErrors, tc.wantPutErrors)
			}
			if st.TornPuts != tc.wantTornPuts {
				t.Errorf("TornPuts = %d, want %d", st.TornPuts, tc.wantTornPuts)
			}

			// Drained: slots recycled now (and only now), nothing pending.
			if got := s.PendingArchive(); len(got) != 0 {
				t.Fatalf("PendingArchive = %v after drain, want empty", got)
			}
			if recycled, _ := s.TruncStats(); recycled != 3 {
				t.Fatalf("recycled = %d after drain, want 3", recycled)
			}

			// Zero loss: every archived segment byte-identical, and the
			// stitched full history equals what was appended.
			for idx := int64(0); idx < 3; idx++ {
				got, err := ra.Retrieve(idx)
				if err != nil {
					t.Fatalf("Retrieve(%d): %v", idx, err)
				}
				if !bytes.Equal(got, want[idx*64:(idx+1)*64]) {
					t.Fatalf("segment %d contents mismatch after %s", idx, tc.name)
				}
			}
			data, start, err := s.RestoreLog(ra, 0)
			if err != nil {
				t.Fatalf("RestoreLog after heal: %v", err)
			}
			if start != 0 || !bytes.Equal(data, want) {
				t.Fatalf("RestoreLog = (start %d, %d bytes), want full history", start, len(data))
			}

			// Re-shipping an already-durable segment is a skip, not a
			// duplicate upload.
			puts := store.Stats().Puts
			if err := ra.Archive(0, want[:64]); err != nil {
				t.Fatalf("idempotent re-archive: %v", err)
			}
			if ra.Stats().UploadSkipped == 0 {
				t.Error("re-archive of durable segment did not count as skipped")
			}
			if store.Stats().Puts != puts {
				t.Error("re-archive of durable segment re-uploaded the object")
			}
		})
	}
}

// TestRemoteSnapshotsAndPrune exercises the snapshot objects and the
// retention invariant at the archiver layer: pruning keeps the newest N
// snapshots and deletes exactly the log objects wholly below the oldest
// survivor's cut — the floor.
func TestRemoteSnapshotsAndPrune(t *testing.T) {
	forEachObjectStore(t, testRemoteSnapshotsAndPrune)
}

func testRemoteSnapshotsAndPrune(t *testing.T, store ObjectStore) {
	ra := newArchiver(t, store)
	want := fill(4*64, 's')
	for idx := int64(0); idx < 4; idx++ {
		if err := ra.Archive(idx, want[idx*64:(idx+1)*64]); err != nil {
			t.Fatal(err)
		}
	}

	snaps := []*Snapshot{
		{Cut: 64, Pages: []SnapshotPage{{PID: 1, Image: []byte("page-a")}}},
		{Cut: 128, Pages: []SnapshotPage{{PID: 1, Image: []byte("page-b")}},
			Stash: []SnapshotStashRec{{TxnID: 9, At: 100, PageID: 1, Payload: []byte("undo")}}},
		{Cut: 192, Pages: []SnapshotPage{{PID: 2, Image: []byte("page-c")}}},
	}
	for _, sn := range snaps {
		if err := ra.PutSnapshot(sn); err != nil {
			t.Fatal(err)
		}
	}

	// With the full raw history still present, snapshots are an
	// accelerator, not a floor.
	if floor, err := ra.Floor(); err != nil || floor != 0 {
		t.Fatalf("Floor with raw history intact = (%d, %v), want 0", floor, err)
	}

	got, err := ra.GetSnapshot(128)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cut != 128 || len(got.Pages) != 1 || !bytes.Equal(got.Pages[0].Image, []byte("page-b")) ||
		len(got.Stash) != 1 || !bytes.Equal(got.Stash[0].Payload, []byte("undo")) {
		t.Fatalf("GetSnapshot(128) round-trip mismatch: %+v", got)
	}
	if sn, ok, err := ra.NewestSnapshotAtOrBelow(150); err != nil || !ok || sn.Cut != 128 {
		t.Fatalf("NewestSnapshotAtOrBelow(150) = (%v, %v, %v), want cut 128", sn, ok, err)
	}
	if _, ok, err := ra.NewestSnapshotAtOrBelow(63); err != nil || ok {
		t.Fatalf("NewestSnapshotAtOrBelow(63) found a snapshot below every cut (err %v)", err)
	}

	objs, pruned, err := ra.PruneToSnapshots(2)
	if err != nil {
		t.Fatal(err)
	}
	// Floor 128: raw segments 0 and 1 lie wholly below, snapshot 64 goes.
	if objs != 2 || pruned != 1 {
		t.Fatalf("PruneToSnapshots(2) = (%d objects, %d snapshots), want (2, 1)", objs, pruned)
	}
	if cuts, _ := ra.SnapshotCuts(); len(cuts) != 2 || cuts[0] != 128 {
		t.Fatalf("SnapshotCuts after prune = %v, want [128 192]", cuts)
	}
	if floor, err := ra.Floor(); err != nil || floor != 128 {
		t.Fatalf("Floor after prune = (%d, %v), want 128", floor, err)
	}
	// Everything at or above the floor is still there.
	segs, err := ra.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0] != 2 || segs[1] != 3 {
		t.Fatalf("Segments after prune = %v, want [2 3]", segs)
	}
	for idx := int64(2); idx < 4; idx++ {
		got, err := ra.Retrieve(idx)
		if err != nil || !bytes.Equal(got, want[idx*64:(idx+1)*64]) {
			t.Fatalf("segment %d lost by prune: %v", idx, err)
		}
	}
	// Pruning is idempotent at the same retention depth.
	if objs, pruned, err := ra.PruneToSnapshots(2); err != nil || objs != 0 || pruned != 0 {
		t.Fatalf("second PruneToSnapshots = (%d, %d, %v), want (0, 0, nil)", objs, pruned, err)
	}
}

// tear replaces the object under key with the prefix a torn upload
// leaves: half its bytes, envelope intact.
func tear(t *testing.T, store ObjectStore, key string) {
	t.Helper()
	obj, err := store.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(key, obj[:len(obj)/2]); err != nil {
		t.Fatal(err)
	}
}

// TestTornSnapshotIsAbsent: a snapshot whose upload tore is skipped by
// every reader — the lookup falls back to the next older cut — and
// retention never makes it the floor: it deletes it, and the next older
// valid cut becomes the floor instead.
func TestTornSnapshotIsAbsent(t *testing.T) {
	forEachObjectStore(t, func(t *testing.T, store ObjectStore) {
		ra := newArchiver(t, store)
		for idx := int64(0); idx < 4; idx++ {
			if err := ra.Archive(idx, fill(64, byte('a'+idx))); err != nil {
				t.Fatal(err)
			}
		}
		for _, cut := range []uint64{64, 128, 192, 256} {
			if err := ra.PutSnapshot(&Snapshot{Cut: cut}); err != nil {
				t.Fatal(err)
			}
		}
		tear(t, store, ra.snapKey(192))
		for _, c := range []struct{ at, want uint64 }{{200, 128}, {500, 256}} {
			if sn, ok, err := ra.NewestSnapshotAtOrBelow(c.at); err != nil || !ok || sn.Cut != c.want {
				t.Fatalf("NewestSnapshotAtOrBelow(%d) with 192 torn = (%v, %v, %v), want cut %d", c.at, sn, ok, err, c.want)
			}
		}
		tear(t, store, ra.snapKey(256))
		if sn, ok, err := ra.NewestSnapshotAtOrBelow(500); err != nil || !ok || sn.Cut != 128 {
			t.Fatalf("NewestSnapshotAtOrBelow(500) with 192 and 256 torn = (%v, %v, %v), want cut 128", sn, ok, err)
		}

		// Keeping the newest one would make torn 256 the floor, and then
		// torn 192: both go, 128 becomes the floor, and 64 and the two
		// segments wholly below 128 are pruned.
		if objs, snaps, err := ra.PruneToSnapshots(1); err != nil || objs != 2 || snaps != 3 {
			t.Fatalf("PruneToSnapshots(1) over torn would-be floors = (%d, %d, %v), want (2, 3, nil)", objs, snaps, err)
		}
		if cuts, _ := ra.SnapshotCuts(); len(cuts) != 1 || cuts[0] != 128 {
			t.Fatalf("SnapshotCuts after prune = %v, want [128]", cuts)
		}
		if floor, err := ra.Floor(); err != nil || floor != 128 {
			t.Fatalf("Floor = (%d, %v), want 128", floor, err)
		}
	})
}

// TestPackLaneRefused: a cold-store lane holding pack/ objects — the
// compacted layout earlier versions wrote — is refused with ErrFormat by
// the archiver's constructor, lane by lane, and nothing is touched.
func TestPackLaneRefused(t *testing.T) {
	forEachObjectStore(t, func(t *testing.T, store ObjectStore) {
		objs := map[string][]byte{
			"p1/pack/0000000000000000-0000000000000003": []byte("a pack an earlier version wrote"),
			"p1/seg/0000000000000004":                   EncodeObject(ObjSegment, 4, fill(64, 's')),
		}
		for key, obj := range objs {
			if err := store.Put(key, obj); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := NewRemoteArchiver(store, "p1", 64); !errors.Is(err, ErrFormat) {
			t.Fatalf("NewRemoteArchiver over a lane with pack objects: %v, want ErrFormat", err)
		}
		for _, prefix := range []string{"", "p0/"} {
			if _, err := NewRemoteArchiver(store, prefix, 64); err != nil {
				t.Fatalf("lane %q holds no pack objects, yet: %v", prefix, err)
			}
		}
		for key, want := range objs {
			if got, err := store.Get(key); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s was touched (err %v)", key, err)
			}
		}
	})
}
