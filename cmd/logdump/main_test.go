package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"aether"
	"aether/internal/core"
	"aether/internal/logdev"
	"aether/internal/storage"
	"aether/internal/txn"
)

// buildLog writes a small deterministic history — two tables, so that
// on three lanes transactions home on different lanes and share pages —
// into a fresh n-lane segmented database and closes it. It assembles the
// engine as aether.Open does, but with a flush daemon that only flushes
// when a commit waits: each flush closes its batch with a seal, so the
// daemon's timer would otherwise decide where the seals, and with them
// every later record, fall.
func buildLog(t *testing.T, dir string, n int) {
	t.Helper()
	devs := make([]logdev.Device, n)
	for i := range devs {
		seg, err := logdev.OpenSegmentedDir(logdev.LaneDir(dir, i, n), 4096)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		devs[i] = seg
	}
	pf, err := storage.OpenPageFile(filepath.Join(dir, "pagefile.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	eng, _, err := txn.Restart(txn.RestartConfig{
		Devices:   devs,
		Archive:   pf,
		LogConfig: core.Config{FlushInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.CreateTable("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.CreateTable("b", nil)
	if err != nil {
		t.Fatal(err)
	}
	ag := eng.NewAgent()
	for k := uint64(1); k <= 4; k++ {
		tx := ag.Begin()
		first, second := a, b
		if k%2 == 0 {
			first, second = b, a
		}
		// A zero-padded row: its insert logs the bytes up to the padding.
		if err := tx.Insert(first, k, aether.Row(k, []byte("first\x00\x00\x00\x00\x00\x00\x00"))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(second, k, aether.Row(k, []byte("second"))); err != nil {
			t.Fatal(err)
		}
		if k >= 3 {
			// A ranged update: the splice shows as off= and x=, the XOR
			// of the byte that changed; the second one grows its row by
			// a byte, so it shows its delta and tail too.
			next := []byte("sEcond")
			if k == 4 {
				next = []byte("sEconds")
			}
			if err := tx.Update(second, k, func(row []byte) ([]byte, error) {
				return aether.Row(k, next), nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if k == 3 {
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := tx.Commit(txn.CommitSync, nil); err != nil {
			t.Fatal(err)
		}
	}
	ag.Close()
	eng.Close()
	if err := eng.Multi().Close(); err != nil {
		t.Fatal(err)
	}
}

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	got := <-out
	if err != nil {
		t.Fatalf("%v\n%s", err, got)
	}
	return got
}

// TestDumpGolden pins dump's output over a one-lane and a three-lane
// directory: the same code prints both, the seq and lane columns appear
// only where seqs exist, and the three-lane records come out in global
// seq order. Watermark-slot lines are left out of the comparison: which
// bytes each flush covered depends on when the flush daemon's timer
// fired.
func TestDumpGolden(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			buildLog(t, dir, n)
			raw := capture(t, func() error { return dump(dir, "", 0, false) })
			var kept []string
			for _, line := range strings.Split(strings.ReplaceAll(raw, dir, "$DIR"), "\n") {
				if !strings.HasPrefix(line, "  header ") {
					kept = append(kept, line)
				}
			}
			got := strings.Join(kept, "\n")
			golden := filepath.Join("testdata", fmt.Sprintf("dump_%d_lanes.golden", n))
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("dump of a %d-lane directory differs from %s; got:\n%s", n, golden, got)
			}
		})
	}
}

// TestDumpSlotsExplainHorizon reads the header listing over a directory
// whose newest batch has one byte flipped past the previous watermark:
// the slot that covers it prints its seals BAD, the previous slot is the
// durable horizon, and a read-write open afterwards lands on that same
// durable end.
func TestDumpSlotsExplainHorizon(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	buildLog(t, dir, 1)
	lane := logdev.LaneDir(dir, 0, 1)
	ro, err := logdev.OpenSegmentedDirRO(lane)
	if err != nil {
		t.Fatal(err)
	}
	var newest logdev.SlotReport
	var seg int64
	for _, h := range ro.SlotReports() {
		for _, sl := range h.Slots {
			if sl.Admitted {
				newest, seg = sl, h.Index
			}
		}
	}
	segSize := ro.SegmentSize()
	ro.Close()
	if !newest.Admitted || newest.From < seg*segSize || newest.From == newest.Durable {
		t.Fatalf("newest slot %+v: want one whose batch lies in its own segment %d", newest, seg)
	}
	f, err := os.OpenFile(filepath.Join(lane, fmt.Sprintf("%016d.seg", seg)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := logdev.SegmentHeaderSize + (newest.From+newest.Durable)/2 - seg*segSize
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x20
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out := capture(t, func() error { return dump(dir, "", 0, false) })
	var bad, horizon int
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "  header ") {
			continue
		}
		switch {
		case strings.Contains(line, fmt.Sprintf("durable=%d covers [%d, %d)", newest.Durable, newest.From, newest.Durable)):
			if !strings.Contains(line, "seals BAD") || strings.Contains(line, "<- durable horizon") {
				t.Errorf("the flipped batch's slot: %q, want its seals BAD and not the horizon", line)
			}
			bad++
		case strings.Contains(line, fmt.Sprintf("durable=%d ", newest.From)):
			if !strings.Contains(line, "seals ok") || !strings.HasSuffix(line, "<- durable horizon") {
				t.Errorf("the previous slot: %q, want its seals ok and the durable horizon", line)
			}
			horizon++
		}
	}
	if bad != 1 || horizon != 1 {
		t.Fatalf("%d lines for the flipped slot and %d for the previous one, want 1 each:\n%s", bad, horizon, out)
	}
	rw, err := logdev.OpenSegmentedDir(lane, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if got := rw.DurableSize(); got != newest.From {
		t.Fatalf("a read-write open lands on durable %d, want the horizon logdump showed, %d", got, newest.From)
	}
}

// TestDumpFiltersResolvedTxn: -txn keeps a transaction's records by the
// ID recovery resolves, so the records after its first, which carry only
// its slot, are kept with it — at one lane and at three, where the slot
// passes between transactions homed on different lanes.
func TestDumpFiltersResolvedTxn(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			buildLog(t, dir, n)
			out := capture(t, func() error { return dump(dir, "", 3, false) })
			var kinds []string
			for _, line := range strings.Split(out, "\n") {
				f := strings.Fields(line[max(strings.Index(line, "LSN("), 0):])
				if len(f) < 3 || !strings.HasPrefix(f[2], "txn=") {
					continue // not a record
				}
				if f[2] != "txn=3" {
					t.Errorf("-txn 3 printed %q", line)
				}
				kinds = append(kinds, f[1])
			}
			// Transaction 3 inserts twice, updates once and rolls back.
			if got := strings.Join(kinds, " "); got != "update update update abort clr clr clr end" {
				t.Fatalf("-txn 3 printed %q, want its eight records", got)
			}
		})
	}
}

// TestDumpChunkedCheckpoint: a checkpoint of more dirty pages than one
// chunk holds shows as one checkpoint: each chunk's line names its place
// ("chunk i of n") and the checkpoint's totals, and -stats counts the
// checkpoint's bytes apart, as one whole checkpoint in its chunks.
func TestDumpChunkedCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := aether.Open(aether.Options{LogPath: dir, Mode: aether.CommitSync})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	tx := s.Begin()
	for k := uint64(1); k <= 1200; k++ { // 2 000-byte rows, four to a page: 300 pages
		if err := tx.Insert(tbl, k, aether.Row(k, bytes.Repeat([]byte{0xa5}, 1992))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() error { return dump(dir, "", 0, false) })
	chunk := regexp.MustCompile(`(?m)^LSN\(\d+\) +ckpt-end +begin=LSN\(\d+\) chunk (\d) of 2 att=0 dpt=(\d+) \(checkpoint att=0 dpt=(\d+)\)$`)
	lines := chunk.FindAllStringSubmatch(out, -1)
	if len(lines) != 2 || lines[0][1] != "1" || lines[1][1] != "2" {
		t.Fatalf("want the checkpoint's two chunks, in order:\n%s", out)
	}
	var dpt, total int
	for _, l := range lines {
		var n int
		fmt.Sscan(l[2], &n)
		fmt.Sscan(l[3], &total)
		dpt += n
	}
	if dpt != total || total < 300 {
		t.Fatalf("the chunks carry %d DPT entries of the checkpoint's %d, want all of its 300 or more pages", dpt, total)
	}
	stats := regexp.MustCompile(`(?m)^  checkpoint +3 records +(\d+) bytes = \d+ framing \+ 0 ATT \+ (\d+) DPT \(1 whole checkpoints in 2 chunks\)$`)
	if m := stats.FindStringSubmatch(out); m == nil || m[2] != fmt.Sprint(16*total) {
		t.Fatalf("want the checkpoint's begin and two chunks counted apart, %d DPT bytes:\n%s", 16*total, out)
	}
}

// TestDumpStitchesColdStoreReadOnly: pointed at a log whose dead segments
// went to <dir>/archive, dump lists the store's objects, reads the whole
// history back through them from offset 0, and leaves every file —
// a crashed Put's temporary included — exactly as it found it.
func TestDumpStitchesColdStoreReadOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := aether.Open(aether.Options{
		LogPath: dir, SegmentSize: 4096, ArchiveDir: filepath.Join(dir, "archive"), Mode: aether.CommitSync,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	// Two rounds, each ending in a checkpoint that parks dead segments for
	// the archiver.
	var archived int64
	for round := 0; round < 2; round++ {
		for k := uint64(round*60 + 1); k <= uint64(round*60+60); k++ {
			tx := s.Begin()
			if err := tx.Insert(tbl, k, aether.Row(k, bytes.Repeat([]byte{0xa5}, 200))); err != nil { // ~3.5 segments a round
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if st := db.Stats(); st.LogSegmentsPendingArchive == 0 && st.LogSegmentsArchived > archived {
				archived = st.LogSegmentsArchived
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: archiver never finished: %+v", round, db.Stats())
			}
		}
	}
	s.Close()
	if db.Stats().LogBase == 0 {
		t.Fatal("checkpoint did not truncate; the dump would not need the cold store")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "archive", "seg", "0000000000000099.1.tmp")
	if err := os.MkdirAll(filepath.Dir(stale), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stale, []byte("half an object"), 0o644); err != nil {
		t.Fatal(err)
	}

	before := tree(t, dir)
	out := capture(t, func() error { return dump(dir, "", 0, true) })
	if after := tree(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("dump changed the database directory:\nbefore %v\nafter  %v", before, after)
	}
	for _, want := range []string{`cold store lane "":`, fmt.Sprintf("segment objects: %d\n", archived), "(from offset 0)", "retention floor: 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump output lacks %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "commit           120 records") {
		t.Fatalf("stitched dump does not hold all 120 commits:\n%s", out)
	}
}

// TestDumpListsSnapshots: a database that takes snapshots leaves a
// manifest per snapshot in its cold store, and dump prints each one —
// restore point, checkpoint, every lane's low-water mark and end, pages
// and images objects — on a partitioned log as on a flat one.
func TestDumpListsSnapshots(t *testing.T) {
	for _, n := range []int{1, 3} {
		dir := filepath.Join(t.TempDir(), "db")
		db, err := aether.Open(aether.Options{
			LogPath: dir, SegmentSize: 4096, ArchiveDir: filepath.Join(dir, "archive"), Mode: aether.CommitSync,
			LogPartitions: n, SnapshotEveryBytes: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		s := db.Session()
		for round := uint64(0); round < 2; round++ {
			for k := round*20 + 1; k <= round*20+20; k++ {
				tx := s.Begin()
				if err := tx.Insert(tbl, k, aether.Row(k, bytes.Repeat([]byte{0xa5}, 200))); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); db.Stats().LogSnapshots <= int64(round); time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("N=%d round %d: no snapshot: %+v", n, round, db.Stats())
				}
			}
		}
		s.Close()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		out := capture(t, func() error { return dump(dir, "", 0, true) })
		line := regexp.MustCompile(fmt.Sprintf(`(?m)^  snapshot at=\d+ +checkpoint=\d+ +lanes \(low-water, end\)=\[\{\d+ \d+\}( \{\d+ \d+\}){%d}\]  [1-9]\d* pages in [1-9]\d* images objects$`, n-1))
		if got := len(line.FindAllString(out, -1)); got != 2 || !strings.Contains(out, "snapshots: 2\n") || !strings.Contains(out, "retention floor: 0") {
			t.Fatalf("N=%d: dump lists %d well-formed snapshot lines, want 2:\n%s", n, got, out)
		}
		if strings.Contains(out, "stashed") {
			t.Fatalf("N=%d: dump still speaks of stashed updates:\n%s", n, out)
		}
	}
}

// TestListRefusesPackLane: a cold store holding pack/ objects — segments
// an earlier version compacted, which this one does not read — is refused
// by the -archive listing with logdev's ErrFormat, flat or partitioned,
// and nothing in it is touched.
func TestListRefusesPackLane(t *testing.T) {
	for _, n := range []int{1, 3} {
		dir := filepath.Join(t.TempDir(), "cold")
		prefix := logdev.LaneDir("", n-1, n)
		for i := 0; i < n; i++ {
			lane := logdev.LaneDir(dir, i, n)
			if err := os.MkdirAll(filepath.Join(lane, "seg"), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		pack := filepath.Join(dir, prefix, "pack", "0000000000000000-0000000000000003")
		if err := os.MkdirAll(filepath.Dir(pack), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pack, []byte("a pack an earlier version wrote"), 0o644); err != nil {
			t.Fatal(err)
		}
		before := tree(t, dir)
		err := listColdStore(dir)
		if !errors.Is(err, logdev.ErrFormat) {
			t.Fatalf("N=%d: listing a store with %s: %v, want logdev.ErrFormat", n, pack, err)
		}
		if after := tree(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("N=%d: refused listing changed the store:\nbefore %v\nafter  %v", n, before, after)
		}
	}
}

// tree maps every file under dir to its contents.
func tree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		out[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDumpRefusesPlainFile: a regular file that is not a pagefile — the
// single-file log of earlier versions, say — is not a log this tool
// reads, and it says so instead of decoding the bytes as records.
func TestDumpRefusesPlainFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("not a log directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := dump(path, "", 0, false)
	if err == nil || !strings.Contains(err.Error(), "not a segmented log directory") {
		t.Fatalf("dump of a plain file: %v, want a not-a-segmented-log-directory refusal", err)
	}
}
