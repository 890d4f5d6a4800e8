package aether

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/vfs"
)

// TestFlippedByteBelowWatermarkFailsRecovery: no record carries a
// checksum, so a byte that rots below the durable watermark is caught by
// the seal of its batch — at one lane and at three, in the first batch
// after a truncated base too, which starts where Truncate cut — and the
// open refuses the database rather than replaying the rotten batch.
func TestFlippedByteBelowWatermarkFailsRecovery(t *testing.T) {
	for _, n := range []int{1, 3} {
		for _, where := range []string{"first batch after the base", "a later batch"} {
			t.Run(fmt.Sprintf("N=%d/%s", n, where), func(t *testing.T) {
				fs := vfs.NewFaultFS(1)
				opts := Options{LogPath: "/db", SegmentSize: 4096, LogPartitions: n, Mode: CommitSync, fs: fs}
				db, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				tbl, err := db.CreateTable("t")
				if err != nil {
					t.Fatal(err)
				}
				writeRows(t, db, tbl, 1, 60)
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				writeRows(t, db, tbl, 60, 120)
				// The lane the checkpoint truncated furthest, and where its
				// first batch, and its last, start.
				lane, base := 0, int64(0)
				for i, l := range db.lanes {
					if b := l.seg.Base(); b > base {
						lane, base = i, b
					}
				}
				if base == 0 {
					t.Fatal("test invalid: the checkpoint truncated no lane")
				}
				data, _, err := logdev.ReadTail(db.lanes[lane].seg)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				// The middle of the batch's largest record: a byte of its
				// payload, which no structural check reads — only the seal
				// can tell it changed.
				want := 1 // the batch whose largest record rots: the first, or the second
				if where == "a later batch" {
					want = 2
				}
				batches, cur, at, largest := 0, lsn.Undefined, int64(0), 0
				it := logrec.NewIterator(data, lsn.LSN(base))
				for rec, ok := it.Next(); ok; rec, ok = it.Next() {
					if it.Batch() != cur {
						batches, cur = batches+1, it.Batch()
					}
					if batches == want && int(rec.TotalLen) > largest {
						at, largest = int64(rec.LSN)+int64(rec.TotalLen)/2, int(rec.TotalLen)
					}
				}
				if largest < 20 {
					t.Fatalf("test invalid: the batch's largest record is %d bytes", largest)
				}
				seg := filepath.Join(logdev.LaneDir("/db", lane, n), fmt.Sprintf("%016d.seg", at/4096))
				f, err := fs.OpenFile(seg, os.O_RDWR, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				b := make([]byte, 1)
				if _, err := f.ReadAt(b, logdev.SegmentHeaderSize+at%4096); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0x10
				if _, err := f.WriteAt(b, logdev.SegmentHeaderSize+at%4096); err != nil {
					t.Fatal(err)
				}
				if err := errors.Join(f.Sync(), f.Close()); err != nil {
					t.Fatal(err)
				}
				if db, err := Open(opts); !errors.Is(err, logrec.ErrBadSeal) {
					if err == nil {
						db.Close()
					}
					t.Fatalf("open over a byte flipped at %d on lane %d (base %d): %v, want logrec.ErrBadSeal", at, lane, base, err)
				}
			})
		}
	}
}
