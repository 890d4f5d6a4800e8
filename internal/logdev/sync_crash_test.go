package logdev

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aether/internal/vfs"
)

// Tear masks for one unsynced write: which of its sectors a power cut
// persists.
func keepAll(sectors int) []bool {
	m := make([]bool, sectors)
	for i := range m {
		m[i] = true
	}
	return m
}
func keepNone(int) []bool { return nil }
func keepLast(sectors int) []bool {
	m := make([]bool, sectors)
	m[sectors-1] = true
	return m
}
func keepFirst(sectors int) []bool {
	m := make([]bool, sectors)
	m[0] = true
	return m
}

// TestSyncCrashTable cuts power inside Sync at every step of its fsync
// sequence and, through FaultFS tear masks, persists every combination
// of the batch's data and its header slot a crash could. The invariant
// under test is invariant 2: a reopen lands on the new watermark only
// when the slot AND every byte it covers reached the disk, and
// otherwise on the previous one — written by the previous Sync, fully
// fsynced, never overwritten — with the unacknowledged tail discarded
// and the acknowledged prefix intact.
func TestSyncCrashTable(t *testing.T) {
	const segSize = 256
	type mask = func(sectors int) []bool
	cases := []struct {
		name string
		// prefill is synced (in two Syncs, so both header slots of
		// segment 0 are in use) before the doomed batch of batch bytes.
		prefill, batch int
		rule           vfs.Rule
		// tear lists, per segment file, the mask for each of its
		// unsynced writes at the cut, oldest first: the batch's data,
		// then (if Sync got that far) its header slot. A segment whose
		// creation the cut rolls back has none.
		tear         map[int64][]mask
		wantDurable  int64
		wantRepaired int64
		wantSegs     int
	}{
		{
			name: "slot persisted, data dropped", prefill: 150, batch: 60,
			rule:        vfs.Rule{Op: vfs.OpSync, Path: "*.seg", Cut: true},
			tear:        map[int64][]mask{0: {keepNone, keepAll}},
			wantDurable: 150, wantRepaired: 0, wantSegs: 1,
		},
		{
			// The dangerous shape: the file is long enough and the slot
			// is whole; only the seals tell the bytes are not there.
			name: "slot persisted, data torn with its length intact", prefill: 150, batch: 60,
			rule:        vfs.Rule{Op: vfs.OpSync, Path: "*.seg", Cut: true},
			tear:        map[int64][]mask{0: {keepLast, keepAll}},
			wantDurable: 150, wantRepaired: 60, wantSegs: 1,
		},
		{
			name: "data persisted, slot dropped", prefill: 150, batch: 60,
			rule:        vfs.Rule{Op: vfs.OpSync, Path: "*.seg", Cut: true},
			tear:        map[int64][]mask{0: {keepAll, keepNone}},
			wantDurable: 150, wantRepaired: 60, wantSegs: 1,
		},
		{
			name: "data persisted, slot torn", prefill: 150, batch: 60,
			rule:        vfs.Rule{Op: vfs.OpSync, Path: "*.seg", Cut: true},
			tear:        map[int64][]mask{0: {keepAll, keepFirst}},
			wantDurable: 150, wantRepaired: 60, wantSegs: 1,
		},
		{
			name: "cut on the slot write itself", prefill: 150, batch: 60,
			rule:        vfs.Rule{Op: vfs.OpWrite, Path: "*.seg", OffBelow: SegmentHeaderSize, Cut: true},
			tear:        map[int64][]mask{0: {keepAll, keepFirst}},
			wantDurable: 150, wantRepaired: 60, wantSegs: 1,
		},
		{
			// Not acknowledged, but every byte and the slot made it: the
			// commit is in doubt, and resolving it as durable is sound.
			name: "both persisted before the fsync returned", prefill: 150, batch: 60,
			rule:        vfs.Rule{Op: vfs.OpSync, Path: "*.seg", Cut: true},
			tear:        map[int64][]mask{0: {keepAll, keepAll}},
			wantDurable: 210, wantRepaired: 0, wantSegs: 1,
		},
		{
			name: "fresh segment, cut before the directory fsync", prefill: 256, batch: 40,
			rule:        vfs.Rule{Op: vfs.OpSyncDir, Cut: true},
			wantDurable: 256, wantRepaired: 0, wantSegs: 1,
		},
		{
			name: "fresh segment, cut on its first slot fsync, nothing persisted", prefill: 256, batch: 40,
			rule:        vfs.Rule{Op: vfs.OpSync, Path: "*.seg", Cut: true},
			tear:        map[int64][]mask{1: {keepNone, keepNone}},
			wantDurable: 256, wantRepaired: 0, wantSegs: 2, // the empty file stays as the tail
		},
		{
			name: "fresh segment, cut on its first slot fsync, slot persisted alone", prefill: 256, batch: 40,
			rule:        vfs.Rule{Op: vfs.OpSync, Path: "*.seg", Cut: true},
			tear:        map[int64][]mask{1: {keepNone, keepAll}},
			wantDurable: 256, wantRepaired: 0, wantSegs: 2,
		},
		{
			name: "fresh segment, cut on its first slot fsync, all persisted", prefill: 256, batch: 40,
			rule:        vfs.Rule{Op: vfs.OpSync, Path: "*.seg", Cut: true},
			tear:        map[int64][]mask{1: {keepAll, keepAll}},
			wantDurable: 296, wantRepaired: 0, wantSegs: 2,
		},
		{
			// The earlier segment's fsync completed; the slot that would
			// cover the batch lives in the later one and never landed.
			name: "spanning batch, cut between the two segment fsyncs", prefill: 150, batch: 200,
			rule:        vfs.Rule{Op: vfs.OpSyncDir, Cut: true},
			wantDurable: 150, wantRepaired: 106, wantSegs: 1,
		},
		{
			name: "spanning batch, cut on the slot fsync, later data torn", prefill: 150, batch: 200,
			rule:        vfs.Rule{Op: vfs.OpSync, Path: "*.seg", After: 1, Cut: true},
			tear:        map[int64][]mask{1: {keepLast, keepAll}},
			wantDurable: 150, wantRepaired: 106 + 94, wantSegs: 1,
		},
		{
			name: "spanning batch, cut on the slot fsync, all persisted", prefill: 150, batch: 200,
			rule:        vfs.Rule{Op: vfs.OpSync, Path: "*.seg", After: 1, Cut: true},
			tear:        map[int64][]mask{1: {keepAll, keepAll}},
			wantDurable: 350, wantRepaired: 0, wantSegs: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.NewFaultFS(1)
			fs.SetSectorSize(16)
			fs.SetTornWrites(true)
			if err := fs.MkdirAll("/db", 0o755); err != nil {
				t.Fatal(err)
			}
			s, err := OpenSegmentedDirFS(fs, "/db", segSize)
			if err != nil {
				t.Fatal(err)
			}
			want := batch(100, 'p')
			appendSync(t, s, want)
			rest := batch(tc.prefill-100, 'p')
			appendSync(t, s, rest)
			want = append(want, rest...)

			doomed := batch(tc.batch, 'B')
			if _, err := s.Append(doomed); err != nil {
				t.Fatal(err)
			}
			if tc.rule.Op == vfs.OpSyncDir {
				tc.rule.Dir, tc.rule.Path = "/", "db"
			} else {
				tc.rule.Dir = "/db"
			}
			fs.AddRule(tc.rule)
			calls := make(map[int64]int)
			fs.SetTearMask(func(path string, sectors int) []bool {
				var idx int64 = -1
				for i := int64(0); i < 4; i++ {
					if path == segFile("/db", i) {
						idx = i
					}
				}
				masks := tc.tear[idx]
				n := calls[idx]
				calls[idx]++
				if n >= len(masks) {
					t.Errorf("%s: unexpected unsynced write #%d at the cut", path, n)
					return nil
				}
				return masks[n](sectors)
			})
			if err := s.Sync(); !errors.Is(err, vfs.ErrPowerCut) {
				t.Fatalf("Sync under the cut: %v, want ErrPowerCut", err)
			}
			s.Close()
			fs.ClearRules()
			fs.Recover()
			fs.SetTearMask(nil)
			for idx, masks := range tc.tear {
				if calls[idx] != len(masks) {
					t.Fatalf("segment %d had %d unsynced writes at the cut, the case scripts %d", idx, calls[idx], len(masks))
				}
			}

			s2, err := OpenSegmentedDirFS(fs, "/db", 0)
			if err != nil {
				t.Fatalf("reopen after the cut: %v", err)
			}
			if got := s2.DurableSize(); got != tc.wantDurable {
				t.Fatalf("DurableSize = %d, want %d", got, tc.wantDurable)
			}
			if got := s2.RepairedTailBytes(); got != tc.wantRepaired {
				t.Fatalf("RepairedTailBytes = %d, want %d", got, tc.wantRepaired)
			}
			if got := len(s2.Segments()); got != tc.wantSegs {
				t.Fatalf("%d live segments, want %d", got, tc.wantSegs)
			}
			want = append(want, doomed[:int(tc.wantDurable)-tc.prefill]...)
			got := make([]byte, tc.wantDurable)
			if _, err := s2.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("durable prefix does not read back")
			}
			// The log keeps working from the watermark it recovered, and
			// the next Sync does not trample it.
			appendSync(t, s2, batch(10, 'n'))
			s2.Close()
			s3, err := OpenSegmentedDirFS(fs, "/db", 0)
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if got := s3.DurableSize(); got != tc.wantDurable+10 {
				t.Fatalf("DurableSize = %d after a post-recovery Sync, want %d", got, tc.wantDurable+10)
			}
		})
	}
}

// An admissible slot vouches for its own batch only; the bytes below
// it were vouched for by earlier Syncs. If they are gone, that is not a
// torn tail and Open must refuse rather than repair.
func TestAdmissibleWatermarkDoesNotExcuseMissingBytesBelow(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentedDir(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, s, batch(256, 'a')) // watermark 256, slot in segment 0
	appendSync(t, s, batch(44, 'b'))  // watermark 300, slot in segment 1
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segFile(dir, 0), SegmentHeaderSize+100); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSegmentedDir(dir, 0)
	if err == nil || !strings.Contains(err.Error(), "mid-log corruption, refusing to repair") {
		t.Fatalf("Open = %v, want the mid-log corruption refusal", err)
	}
}

// A crash between the truncation that recycles the segment holding the
// newest slot and the next completed Sync leaves no admissible slot at
// all; the truncation base — recorded durably before the unlink, never
// above the durable horizon — is then the watermark, exactly.
func TestWatermarkFallsBackToTruncationBase(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentedDir(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := batch(128, 'k') // two full segments; the slot sits in segment 1
	appendSync(t, s, want)
	if _, err := s.Append(batch(20, 'u')); err != nil { // segment 2, never synced
		t.Fatal(err)
	}
	if err := s.Truncate(128); err != nil { // recycles segments 0 and 1
		t.Fatal(err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.seg")); len(files) != 1 {
		t.Fatalf("%d segment files remain, want only the unsynced newest", len(files))
	}
	s.Close()
	s2, err := OpenSegmentedDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Base() != 128 || s2.DurableSize() != 128 {
		t.Fatalf("base=%d durable=%d, want 128/128", s2.Base(), s2.DurableSize())
	}
	if got := s2.RepairedTailBytes(); got != 20 {
		t.Fatalf("RepairedTailBytes = %d, want the 20 unsynced bytes", got)
	}
	// The repair left no segment file at all; a second crash right here
	// must still reopen at the base.
	s2.Close()
	s3, err := OpenSegmentedDir(dir, 0)
	if err != nil {
		t.Fatalf("reopen of a directory with a base and no segments: %v", err)
	}
	defer s3.Close()
	appendSync(t, s3, batch(10, 'n'))
	if got := s3.DurableSize(); got != 138 {
		t.Fatalf("DurableSize = %d after a post-recovery Sync, want 138", got)
	}
}

// TestTornTailRepairSurvivesCrash cuts power at every step of a reopen
// whose repair removes three segments and trims a fourth, then reopens.
// The newest slot, in the last of them, is whole but its bytes never
// reached the disk, and it covers segments 1 to 3 too, which its Sync had
// fsynced before writing it: bytes missing there under a whole slot are
// corruption. So the repair removes the newest segment first and makes
// each unlink durable before the next; every reopen after a cut lands on
// the previous watermark instead of refusing a hole the repair made.
func TestTornTailRepairSurvivesCrash(t *testing.T) {
	const segSize = 64
	want := batch(100, 'a')
	for step := 1; ; step++ {
		fs := vfs.NewFaultFS(1)
		s, err := OpenSegmentedDirFS(fs, "/log", segSize)
		if err != nil {
			t.Fatal(err)
		}
		appendSync(t, s, want)            // its slot in segment 1
		appendSync(t, s, batch(200, 'b')) // segments 1 to 4, its slot in 4
		s.Close()
		f, err := fs.OpenFile(segFile("/log", 4), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, 300-4*segSize), SegmentHeaderSize); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()

		rule := fs.AddRule(vfs.Rule{After: step - 1, Cut: true})
		s, err = OpenSegmentedDirFS(fs, "/log", 0)
		if fs.RuleStats()[rule].Fired == 0 {
			if err != nil {
				t.Fatal(err)
			}
			if got := s.DurableSize(); got != 100 {
				t.Fatalf("uncut reopen: durable %d, want 100", got)
			}
			s.Close()
			if step < 10 {
				t.Fatalf("the reopen took only %d steps; the repair never ran", step-1)
			}
			return
		}
		if err == nil {
			s.Close()
		}
		fs.ClearRules()
		fs.Recover()
		s, err = OpenSegmentedDirFS(fs, "/log", 0)
		if err != nil {
			t.Fatalf("reopen after a cut at step %d of the repair: %v", step, err)
		}
		got := make([]byte, 100)
		if d := s.DurableSize(); d != 100 {
			t.Fatalf("cut at step %d: durable %d, want 100", step, d)
		}
		if _, err := s.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("cut at step %d: the durable prefix does not read back (%v)", step, err)
		}
		s.Close()
	}
}
