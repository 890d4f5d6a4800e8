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

// TestColdStoreRoundtripAndIdempotency: what is archived comes back
// byte-identical, re-shipping a durable segment uploads nothing, and —
// the case a "same size is the same bytes" check could never pass — an
// object corrupted in place at equal length reads as not archived and is
// shipped again.
func TestColdStoreRoundtripAndIdempotency(t *testing.T) {
	forEachObjectStore(t, func(t *testing.T, store ObjectStore) {
		ra := NewRemoteArchiver(store, "", 64)
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

// TestOldVersionObjectRefused: segment, pack and snapshot objects carry
// log bytes and update payloads, so an object in the envelope version of
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
		ra := NewRemoteArchiver(store, "", 64)
		snap := EncodeSnapshot(&Snapshot{Cut: 128, Stash: []SnapshotStashRec{{TxnID: 9, At: 100, PageID: 1, Payload: []byte("undo")}}})
		pack := EncodePack(2, [][]byte{fill(64, 'p'), fill(64, 'q')})
		objs := map[string][]byte{
			ra.segKey(7):     old(ObjSegment, 7, fill(64, 'o')),
			ra.packKey(2, 3): old(ObjPack, 2, pack),
			ra.snapKey(128):  old(ObjSnapshot, 128, snap),
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
		if _, err := ra.Retrieve(2); !errors.Is(err, ErrFormat) {
			t.Errorf("Retrieve from a version-1 pack: %v, want ErrFormat", err)
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
			s := NewSegmentedMem(ProfileMemory, 64)
			defer s.Close()
			ra := NewRemoteArchiver(store, "", 64)
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

// TestRemoteCompaction archives a run of raw segment objects, compacts
// them into a pack, and checks every segment remains retrievable
// byte-identically through the pack index — with the raw objects gone
// and re-archiving still treated as a skip.
func TestRemoteCompaction(t *testing.T) {
	forEachObjectStore(t, testRemoteCompaction)
}

func testRemoteCompaction(t *testing.T, store ObjectStore) {
	ra := NewRemoteArchiver(store, "", 64)
	want := fill(8*64, 'c')
	for idx := int64(0); idx < 8; idx++ {
		if err := ra.Archive(idx, want[idx*64:(idx+1)*64]); err != nil {
			t.Fatal(err)
		}
	}

	packed, err := ra.CompactRaw(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if packed != 8 {
		t.Fatalf("CompactRaw packed %d segments, want 8", packed)
	}
	raws, err := store.List("seg/")
	if err != nil {
		t.Fatal(err)
	}
	if len(raws) != 0 {
		t.Fatalf("raw segment objects survived compaction: %v", raws)
	}

	segs, err := ra.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 8 || segs[0] != 0 || segs[7] != 7 {
		t.Fatalf("Segments after compaction = %v, want 0..7", segs)
	}
	for idx := int64(0); idx < 8; idx++ {
		got, err := ra.Retrieve(idx)
		if err != nil {
			t.Fatalf("Retrieve(%d) through pack: %v", idx, err)
		}
		if !bytes.Equal(got, want[idx*64:(idx+1)*64]) {
			t.Fatalf("segment %d mismatch through pack", idx)
		}
	}

	// A packed segment is durable: Archive must skip, not re-upload raw.
	uploaded := ra.Stats().SegmentsUploaded
	if err := ra.Archive(3, want[3*64:4*64]); err != nil {
		t.Fatal(err)
	}
	if ra.Stats().SegmentsUploaded != uploaded {
		t.Error("archive of packed segment re-uploaded it")
	}

	// Compacting again with nothing raw is a no-op.
	if n, err := ra.CompactRaw(4, 64); err != nil || n != 0 {
		t.Fatalf("second CompactRaw = (%d, %v), want (0, nil)", n, err)
	}
	if got := ra.Stats(); got.PacksBuilt == 0 || got.SegmentsPacked != 8 {
		t.Fatalf("stats after compaction: %+v", got)
	}
}

// TestRemoteCompactionRefusesTornRaw: a torn raw object must never be
// immortalized inside an immutable pack — the compaction aborts, the
// raw run survives, and once the segment is re-shipped the pack builds.
func TestRemoteCompactionRefusesTornRaw(t *testing.T) {
	store := NewMemObjectStore()
	ra := NewRemoteArchiver(store, "", 64)
	want := fill(4*64, 't')
	for idx := int64(0); idx < 3; idx++ {
		if err := ra.Archive(idx, want[idx*64:(idx+1)*64]); err != nil {
			t.Fatal(err)
		}
	}
	// The last upload tears mid-object: the store keeps a prefix.
	store.Arm(NetFault{TearPutAfter: 1})
	if err := ra.Archive(3, want[3*64:]); err == nil {
		t.Fatal("torn upload reported success")
	}
	store.Arm(NetFault{})

	if _, err := ra.CompactRaw(4, 64); err == nil {
		t.Fatal("CompactRaw packed a run containing a torn object")
	}
	// The healthy raw objects must have survived the abort.
	for idx := int64(0); idx < 3; idx++ {
		if _, err := ra.Retrieve(idx); err != nil {
			t.Fatalf("Retrieve(%d) after aborted compaction: %v", idx, err)
		}
	}

	// Re-ship the torn segment (detected as absent, overwritten), then
	// compaction goes through.
	if err := ra.Archive(3, want[3*64:]); err != nil {
		t.Fatal(err)
	}
	if n, err := ra.CompactRaw(4, 64); err != nil || n != 4 {
		t.Fatalf("CompactRaw after re-ship = (%d, %v), want (4, nil)", n, err)
	}
	for idx := int64(0); idx < 4; idx++ {
		got, err := ra.Retrieve(idx)
		if err != nil || !bytes.Equal(got, want[idx*64:(idx+1)*64]) {
			t.Fatalf("segment %d after re-ship + pack: %v", idx, err)
		}
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
	ra := NewRemoteArchiver(store, "", 64)
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
