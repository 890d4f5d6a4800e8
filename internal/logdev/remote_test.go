package logdev

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
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
// bytes and update payloads, so an object in the envelope version of an
// earlier record encoding (objVersion 8: a checkpoint's tables in one
// record, not in chunks; objVersion 7: the full TxnID on every record
// of a transaction; objVersion 6: a CRC-32C in every record's frame and
// no seals; objVersion 5: a back-pointer on every record
// but a commit or an end; objVersion 4: an update's before and after
// images both logged; objVersion 3: a fixed 8-byte record frame,
// chained commit and end records; objVersion 2: whole insert and delete
// rows, a CLR's undo-next as is; objVersion 1: 48-byte record headers,
// whole-row images) is refused — ErrBadObject and ErrFormat — by everything that
// would decode it, and neither read as torn and overwritten nor handed
// to today's record decoder.
func TestOldVersionObjectRefused(t *testing.T) {
	old := func(version byte, kind uint16, meta uint64, payload []byte) []byte {
		obj := EncodeObject(kind, meta, payload)
		obj[4], obj[5] = version, 0 // the version field; the payload CRC does not cover it
		return obj
	}
	versions := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	for _, v := range versions {
		if _, _, _, err := DecodeObject(old(v, ObjSegment, 7, fill(64, 'o'))); !errors.Is(err, ErrBadObject) || !errors.Is(err, ErrFormat) {
			t.Fatalf("DecodeObject of a version-%d object: %v, want ErrBadObject and ErrFormat", v, err)
		}
	}
	forEachObjectStore(t, func(t *testing.T, store ObjectStore) {
		ra := newArchiver(t, store)
		snaps := NewSnapshotStore(store, []*RemoteArchiver{ra})
		man := EncodeManifest(&Manifest{At: 128, Lanes: []ManifestLane{{LowWater: 64, End: 128}}})
		for _, v := range versions {
			objs := map[string][]byte{
				ra.segKey(7):     old(v, ObjSegment, 7, fill(64, 'o')),
				manifestKey(128): old(v, ObjManifest, 128, man),
			}
			for key, obj := range objs {
				if err := store.Put(key, obj); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := ra.Retrieve(7); !errors.Is(err, ErrFormat) {
				t.Errorf("Retrieve of a version-%d segment: %v, want ErrFormat", v, err)
			}
			if err := ra.Archive(7, fill(64, 'n')); !errors.Is(err, ErrFormat) {
				t.Errorf("Archive over a version-%d segment: %v, want ErrFormat", v, err)
			}
			if _, err := snaps.GetManifest(128); !errors.Is(err, ErrFormat) {
				t.Errorf("GetManifest of a version-%d manifest: %v, want ErrFormat", v, err)
			}
			for key, want := range objs {
				if got, err := store.Get(key); err != nil || !bytes.Equal(got, want) {
					t.Errorf("version %d: %s was touched (err %v)", v, key, err)
				}
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

// putSnapshot uploads a one-lane snapshot at at, whose low-water mark
// is at too: the pages in changed get new images (their bytes are the
// page ID and at), every other page of prev keeps its images object.
func putSnapshot(t *testing.T, snaps *SnapshotStore, prev *Manifest, at uint64, changed ...uint64) *Manifest {
	t.Helper()
	m := &Manifest{At: at, Checkpoint: at - 8, Lanes: []ManifestLane{{LowWater: at, End: at}}}
	var images []PageImage
	pids := append([]uint64(nil), changed...)
	if prev != nil {
		for _, p := range prev.Pages {
			pids = append(pids, p.PID)
		}
	}
	slices.Sort(pids)
	for _, pid := range slices.Compact(pids) {
		if slices.Contains(changed, pid) {
			m.Pages = append(m.Pages, ManifestPage{PID: pid, Version: at})
			images = append(images, PageImage{PID: pid, Image: []byte(fmt.Sprintf("page %d at %d", pid, at))})
			continue
		}
		i := slices.IndexFunc(prev.Pages, func(p ManifestPage) bool { return p.PID == pid })
		m.Pages = append(m.Pages, prev.Pages[i])
	}
	if err := snaps.Put(m, images); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRemoteSnapshotsAndPrune exercises snapshots and the retention invariant
// at the cold-store layer: a snapshot uploads only the pages that
// changed and points the rest at older images objects; pruning keeps the
// newest N manifests, deletes the segment objects wholly below the
// oldest survivor's low-water mark — the floor — and exactly the images
// objects no survivor names.
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
	snaps := NewSnapshotStore(store, []*RemoteArchiver{ra})
	s64 := putSnapshot(t, snaps, nil, 64, 1)
	s128 := putSnapshot(t, snaps, s64, 128, 1, 2)
	s192 := putSnapshot(t, snaps, s128, 192, 2)
	if got := s192.Objects(); !slices.Equal(got, []ImageRef{{At: 128}, {At: 192}}) {
		t.Fatalf("snapshot 192 names images objects %v, want page 1's of 128 and page 2's own", got)
	}

	// With the full raw history still present, snapshots shorten
	// restores; they are not a floor.
	if floor, err := snaps.Floor(); err != nil || floor != 0 {
		t.Fatalf("Floor with raw history intact = (%d, %v), want 0", floor, err)
	}
	got, err := snaps.GetManifest(128)
	if err != nil || !reflect.DeepEqual(got, s128) {
		t.Fatalf("GetManifest(128) = (%+v, %v), want %+v", got, err, s128)
	}
	images, err := snaps.GetImages(ImageRef{At: 128})
	if err != nil || len(images) != 2 || string(images[1].Image) != "page 2 at 128" {
		t.Fatalf("GetImages(128) = (%q, %v), want pages 1 and 2 at 128", images, err)
	}
	if m, err := snaps.NewestAtOrBelow(150); err != nil || m == nil || m.At != 128 {
		t.Fatalf("NewestAtOrBelow(150) = (%v, %v), want 128", m, err)
	}
	if m, err := snaps.NewestAtOrBelow(63); err != nil || m != nil {
		t.Fatalf("NewestAtOrBelow(63) = (%v, %v): found a snapshot below every restore point", m, err)
	}

	objs, manifests, err := snaps.Prune(2)
	if err != nil {
		t.Fatal(err)
	}
	// Floor 128: segments 0 and 1 lie wholly below its low-water mark,
	// and snapshot 64's manifest and its images object go.
	if objs != 3 || manifests != 1 {
		t.Fatalf("Prune(2) = (%d objects, %d manifests), want (3, 1)", objs, manifests)
	}
	if ats, _ := snaps.Manifests(); !slices.Equal(ats, []uint64{128, 192}) {
		t.Fatalf("Manifests after prune = %v, want [128 192]", ats)
	}
	if floor, err := snaps.Floor(); err != nil || floor != 128 {
		t.Fatalf("Floor after prune = (%d, %v), want 128", floor, err)
	}
	if _, err := snaps.GetImages(ImageRef{At: 64}); !errors.Is(err, ErrBadObject) {
		t.Fatalf("snapshot 64's images survived the prune: %v", err)
	}
	segs, err := ra.Segments()
	if err != nil || !slices.Equal(segs, []int64{2, 3}) {
		t.Fatalf("Segments after prune = (%v, %v), want [2 3]", segs, err)
	}
	for idx := int64(2); idx < 4; idx++ {
		got, err := ra.Retrieve(idx)
		if err != nil || !bytes.Equal(got, want[idx*64:(idx+1)*64]) {
			t.Fatalf("segment %d lost by prune: %v", idx, err)
		}
	}
	// Pruning is idempotent at the same retention depth.
	if objs, manifests, err := snaps.Prune(2); err != nil || objs != 0 || manifests != 0 {
		t.Fatalf("second Prune = (%d, %d, %v), want (0, 0, nil)", objs, manifests, err)
	}
	// Snapshot 128 leaves, but its images object stays: snapshot 192
	// still finds page 1 there.
	putSnapshot(t, snaps, s192, 256, 2)
	if objs, manifests, err := snaps.Prune(2); err != nil || objs != 1 || manifests != 1 {
		t.Fatalf("third Prune = (%d, %d, %v), want (1 segment, 1 manifest, nil)", objs, manifests, err)
	}
	if _, err := snaps.GetImages(ImageRef{At: 128}); err != nil {
		t.Fatalf("an images object a retained manifest names was pruned: %v", err)
	}
}

// TestFloorAfterPruneEmptiesLane: a lane that has archived nothing yet,
// its oldest snapshot's low-water mark still in its first segment,
// reads from 0, so the floor is genesis; once prune has deleted every
// segment object the lane archived, the floor is the oldest manifest —
// not genesis, which an empty list of segment objects also looks like.
func TestFloorAfterPruneEmptiesLane(t *testing.T) {
	forEachObjectStore(t, func(t *testing.T, store ObjectStore) {
		ra := newArchiver(t, store)
		snaps := NewSnapshotStore(store, []*RemoteArchiver{ra})
		s32 := putSnapshot(t, snaps, nil, 32, 1)
		if floor, err := snaps.Floor(); err != nil || floor != 0 {
			t.Fatalf("Floor with nothing archived and low water 32 = (%d, %v), want 0", floor, err)
		}
		for idx := int64(0); idx < 2; idx++ {
			if err := ra.Archive(idx, fill(64, byte('a'+idx))); err != nil {
				t.Fatal(err)
			}
		}
		putSnapshot(t, snaps, s32, 128, 1)
		objs, manifests, err := snaps.Prune(1)
		if err != nil || objs != 3 || manifests != 1 {
			t.Fatalf("Prune(1) = (%d objects, %d manifests, %v), want both segments and snapshot 32's images, and its manifest", objs, manifests, err)
		}
		if segs, err := ra.Segments(); err != nil || len(segs) != 0 {
			t.Fatalf("Segments after prune = (%v, %v), want none", segs, err)
		}
		if floor, err := snaps.Floor(); err != nil || floor != 128 {
			t.Fatalf("Floor with every segment object pruned = (%d, %v), want the oldest manifest, 128", floor, err)
		}
	})
}

// TestSnapLaneRefused: a cold-store lane holding snap/ objects — the
// replayed snapshots (kind 3) an earlier version cut — is refused with
// ErrFormat by the archiver's constructor, and nothing is touched.
func TestSnapLaneRefused(t *testing.T) {
	forEachObjectStore(t, func(t *testing.T, store ObjectStore) {
		objs := map[string][]byte{
			"snap/00000000000000004096": EncodeObject(3, 4096, []byte("a snapshot an earlier version cut")),
			"seg/0000000000000004":      EncodeObject(ObjSegment, 4, fill(64, 's')),
		}
		for key, obj := range objs {
			if err := store.Put(key, obj); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := NewRemoteArchiver(store, "", 64); !errors.Is(err, ErrFormat) {
			t.Fatalf("NewRemoteArchiver over a lane with snap objects: %v, want ErrFormat", err)
		}
		for key, want := range objs {
			if got, err := store.Get(key); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s was touched (err %v)", key, err)
			}
		}
	})
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

// TestTornSnapshotIsAbsent: a snapshot whose manifest tore is skipped by
// every reader — the lookup falls back to the next older one — and
// retention never makes it the floor: it deletes it, and the next older
// whole snapshot becomes the floor instead.
func TestTornSnapshotIsAbsent(t *testing.T) {
	forEachObjectStore(t, func(t *testing.T, store ObjectStore) {
		ra := newArchiver(t, store)
		for idx := int64(0); idx < 4; idx++ {
			if err := ra.Archive(idx, fill(64, byte('a'+idx))); err != nil {
				t.Fatal(err)
			}
		}
		snaps := NewSnapshotStore(store, []*RemoteArchiver{ra})
		var prev *Manifest
		for _, at := range []uint64{32, 64, 128, 192, 256} {
			prev = putSnapshot(t, snaps, prev, at, at)
		}
		tear(t, store, manifestKey(192))
		for _, c := range []struct{ at, want uint64 }{{200, 128}, {300, 256}} {
			if m, err := snaps.NewestAtOrBelow(c.at); err != nil || m == nil || m.At != c.want {
				t.Fatalf("NewestAtOrBelow(%d) with 192 torn = (%v, %v), want %d", c.at, m, err, c.want)
			}
		}
		tear(t, store, manifestKey(256))
		if m, err := snaps.NewestAtOrBelow(300); err != nil || m == nil || m.At != 128 {
			t.Fatalf("NewestAtOrBelow(300) with 192 and 256 torn = (%v, %v), want 128", m, err)
		}
		// Keeping the newest one would make torn 256 the floor, then torn
		// 192: both go, 128 becomes the floor and 32 and 64 go too, and
		// segments 0 and 1, wholly below 128, are pruned with the images
		// of 192 and 256, which no survivor names (128 still names the
		// older snapshots' images of pages it did not change).
		objs, manifests, err := snaps.Prune(1)
		if err != nil || objs != 4 || manifests != 4 {
			t.Fatalf("Prune(1) over torn would-be floors = (%d, %d, %v), want (4, 4, nil)", objs, manifests, err)
		}
		if ats, _ := snaps.Manifests(); !slices.Equal(ats, []uint64{128}) {
			t.Fatalf("Manifests after prune = %v, want [128]", ats)
		}
		if floor, err := snaps.Floor(); err != nil || floor != 128 {
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
