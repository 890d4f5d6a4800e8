// Command logdump decodes a write-ahead log and prints its records —
// the debugging companion every WAL implementation needs. It stops at
// the first gap, exactly where recovery would, and before the records
// it judges every seal — the record each flush closes its batch with —
// against the bytes it covers. Pointed at a database
// directory, it decodes the segmented log and prints the segment layout
// and base offset first, plus a summary of the paged database file if
// one lives beside the log. Pointed at a pagefile itself, it dumps the
// slot table.
//
// Cold-storage awareness: a segmented log whose dead segments were
// archived (aether.Options.ArchiveDir, or a RemoteStore kept in a
// directory) keeps only the hot tail on the device. logdump lists the
// cold store's objects — one per archived segment, and each snapshot's
// manifest (restore point, checkpoint, per-lane low-water marks, page and
// object counts) — and the retention floor, and stitches the archived history
// below the truncation base to the live tail so the dump covers the full
// log from offset 0, including segments already recycled from the hot
// directory. The store is auto-detected at <dir>/archive (the
// conventional location) or named explicitly with -archive; it is opened
// read-only (nothing is created, swept or repaired). -archive without -f
// prints the object listing alone. A cold store an earlier version
// compacted is refused, as Open refuses it.
//
// Pointed at a partitioned database root (Options.LogPartitions >= 2 —
// recognized by its p0/ directory), it prints each partition's segment
// layout and then every partition's records merged into one stream
// ordered by global sequence stamp: the exact order recovery replays,
// read through recovery's own lane-merge iterator.
//
// Every record names its transaction by the ID recovery resolves: a
// transaction's first record logs its ID and the one-byte slot its later
// records carry instead, and logdump prints (and -txn filters on) the ID
// the slot stands for. A slot whose first record lies below the base
// prints as txn=?(slot N).
//
// Usage:
//
//	logdump -f wal.d                # segmented log directory (+ cold store, if present)
//	logdump -f wal.d -archive cold  # segmented log with an explicit cold store
//	logdump -f multi.d              # partitioned root: per-partition layout + merged seq view
//	logdump -f wal.d -txn 42        # one transaction's records
//	logdump -f wal.d -stats         # kind histogram + volume (framing vs image bytes, implied zeros, framing and update payload per field) only
//	logdump -f wal.d/pagefile.db    # pagefile slot table
//	logdump -archive cold           # cold store alone: segment
//	                                # objects, snapshots, floor
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"sort"

	"aether/internal/logdev"
	"aether/internal/logrec"
	"aether/internal/lsn"
	"aether/internal/recovery"
	"aether/internal/storage"
	"aether/internal/vfs"
)

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `logdump decodes an Aether write-ahead log and prints its records.

Usage:
  logdump -f <path> [-archive <dir>] [-txn <id>] [-stats]
  logdump -archive <dir>

The path may be:
  a segmented log dir   segment layout + base, then every record in LSN
                        order; the cold store (auto-detected at
                        <dir>/archive, or -archive) is listed — archived
                        segments, snapshots, floor — and stitched
                        below the base so the dump covers history
                        already recycled from the hot directory
  a partitioned root    (p0/ present) each partition's segment layout,
                        then all partitions' records merged in global
                        seq order — the order recovery replays
  a pagefile            the paged database file's slot table

The cold store is a directory of objects (Options.ArchiveDir, or a
RemoteStore made with NewDirObjectStore). It is only ever read.

Flags:
`)
	flag.PrintDefaults()
	fmt.Fprintf(flag.CommandLine.Output(), `
Examples:
  logdump -f wal.d                 dump a segmented log and its cold store
  logdump -f wal.d -stats          kind histogram and volume only, each kind's
                                   bytes split into framing and row images, and
                                   the zero tails of inserted and deleted rows
                                   that the log implies; then the framing per
                                   field (length, kind byte, full txn IDs
                                   and txn slots apart, each other header
                                   field, the payload's own lengths), the
                                   seals' bytes on a line of their own, and an
                                   update's payload per field (op, slot, off,
                                   delta, X, tail, row length, row)
  logdump -f wal.d -archive /cold  cold store in a non-default location
  logdump -f wal.d/pagefile.db     slot table of the database file
  logdump -archive /cold           the cold store alone: archived segments,
                                   snapshots, floor
`)
}

func main() {
	var (
		path    = flag.String("f", "", "segmented log directory or pagefile to dump")
		archDir = flag.String("archive", "", "cold-store directory (default: <dir>/archive when present); without -f, list its objects")
		txn     = flag.Uint64("txn", 0, "show only this transaction (0 = all)")
		stats   = flag.Bool("stats", false, "print only summary statistics")
	)
	flag.Usage = usage
	flag.Parse()
	var err error
	switch {
	case *path == "" && *archDir == "":
		flag.Usage()
		os.Exit(2)
	case *path == "":
		err = listColdStore(*archDir)
	case isPageFile(*path):
		err = dumpPageFile(*path, true)
	default:
		err = dump(*path, *archDir, *txn, *stats)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "logdump:", err)
		os.Exit(1)
	}
}

// isPageFile recognizes the paged database file by the name Open gives
// it, so pointing logdump at one dumps slots instead of misreading page
// images as log records.
func isPageFile(path string) bool { return filepath.Base(path) == "pagefile.db" }

// pageFileFor returns the pagefile Open keeps in this log directory, or
// "" if none exists.
func pageFileFor(logPath string) string {
	pf := filepath.Join(logPath, "pagefile.db")
	if _, err := os.Stat(pf); err != nil {
		return ""
	}
	return pf
}

// dumpPageFile prints the database file's summary (and, when verbose,
// its live slot table). It is strictly read-only — the owning process may
// have the database open, so logdump must never clear the slots a batch
// that never committed left behind; it only counts them.
func dumpPageFile(path string, verbose bool) error {
	info, err := storage.ReadPageFileInfo(path)
	if err != nil {
		return err
	}
	fmt.Printf("pagefile %s: %d pages, %d bytes", path, info.Pages, info.SizeBytes)
	if info.Uncommitted > 0 {
		fmt.Printf(" (%d uncommitted slots, cleared on next open)", info.Uncommitted)
	}
	fmt.Println()
	if !verbose {
		return nil
	}
	for _, s := range info.Slots {
		fmt.Printf("  slot %6d  page %-12d space=%-4d version=%d\n",
			s.Slot, s.PageID, storage.PageSpace(s.PageID), s.Version)
	}
	return nil
}

// printSlots explains the directory's durable horizon: both watermark
// slots of every segment file's header (torn and dead segments
// included), what each claims, whether its own CRC checks out and the
// seals vouch for the bytes it covers, and which one the open believed.
func printSlots(seg *logdev.Segmented) {
	admitted := false
	for _, h := range seg.SlotReports() {
		for i, sl := range h.Slots {
			if !sl.Written {
				fmt.Printf("  header  %6d  slot %d: slot-crc BAD or never written\n", h.Index, i)
				continue
			}
			data, mark := "seals ok", ""
			if !sl.DataOK {
				data = "seals BAD (covered bytes missing, torn or different: slot outran its data, or rot)"
			}
			if sl.Admitted {
				admitted, mark = true, "  <- durable horizon"
			}
			fmt.Printf("  header  %6d  slot %d: durable=%d covers [%d, %d)  slot-crc ok  %s%s\n",
				h.Index, i, sl.Durable, sl.From, sl.Durable, data, mark)
		}
	}
	if !admitted {
		fmt.Printf("  no admissible slot at or above the base: the durable horizon is the truncation base %d\n", seg.Base())
	}
}

// coldStore opens the cold store to read: the directory -archive names,
// or <logPath>/archive when that exists; nil when there is none — the
// dump then covers only the hot log. The open never creates the
// directory, sweeps temporaries or writes (a live archiver may own it).
func coldStore(logPath, archDir string) (*logdev.DirObjectStore, error) {
	if archDir == "" {
		archDir = filepath.Join(logPath, "archive")
		if !isDir(archDir) {
			return nil, nil
		}
	}
	return logdev.DirObjectStoreAt(archDir)
}

// dumpLane prints lane i of n's device layout and returns its restorable
// log: the archived history below the truncation base stitched to the
// live tail. The directory opens strictly read-only: logdump is a
// diagnostic and must never repair, seed metadata, or unlink what it
// inspects.
func dumpLane(path string, store *logdev.DirObjectStore, i, n int) (recovery.Lane, *logdev.RemoteArchiver, error) {
	seg, err := logdev.OpenSegmentedDirRO(logdev.LaneDir(path, i, n))
	if err != nil {
		return recovery.Lane{}, nil, err
	}
	defer seg.Close()
	name := "segmented log"
	if n > 1 {
		name = fmt.Sprintf("partition %d", i)
	}
	fmt.Printf("%s: segsize=%d base=%d durable=%d\n", name, seg.SegmentSize(), seg.Base(), seg.DurableSize())
	if repaired := seg.RepairedTailBytes(); repaired > 0 {
		fmt.Printf("  torn tail: %d unsynced bytes beyond the durable watermark (left on disk; a read-write open repairs them)\n", repaired)
	}
	for _, si := range seg.Segments() {
		live := ""
		if si.Start < seg.Base() {
			live = "  (partially dead: below base)"
		}
		fmt.Printf("  segment %6d  [%d, %d)%s\n", si.Index, si.Start, si.End, live)
	}
	printSlots(seg)
	if pend := seg.PendingArchive(); len(pend) > 0 {
		fmt.Printf("  pending archive: %v  (dead, recycled by the next truncation; with a cold store, only after it has them)\n", pend)
	}
	// Read-only device + read-only store: RestoreLog skips the drain and
	// stitches what is already archived to the bytes still on the device
	// (dead segments included).
	var arch *logdev.RemoteArchiver
	if store != nil {
		lane := logdev.LaneDir("", i, n)
		if arch, err = logdev.NewRemoteArchiver(store, lane, seg.SegmentSize()); err != nil {
			return recovery.Lane{}, nil, err
		}
		fmt.Printf("cold store lane %q:\n", lane)
		if err := listColdLane(store, lane); err != nil {
			return recovery.Lane{}, nil, err
		}
	}
	data, base, err := seg.RestoreLog(arch, 0)
	return recovery.Lane{Log: data, Base: lsn.LSN(base)}, arch, err
}

// dump prints a log of any lane count: every lane's device layout, the
// pagefile summary, then the records in the order recovery replays them
// — plain LSN order on one lane, recovery's merge by global sequence
// stamp on N (where each line also names its seq and lane).
func dump(path, archDir string, txnFilter uint64, statsOnly bool) error {
	n := 1
	if isDir(path) {
		n = logdev.CountLanes(vfs.OS{}, path)
	}
	store, err := coldStore(path, archDir)
	if err != nil {
		return err
	}
	lanes := make([]recovery.Lane, n)
	archs := make([]*logdev.RemoteArchiver, n)
	var restorable int
	var seals []sealVerdict
	for i := range lanes {
		var err error
		if lanes[i], archs[i], err = dumpLane(path, store, i, n); err != nil {
			return fmt.Errorf("lane %d: %w", i, err)
		}
		restorable += len(lanes[i].Log)
		lane := judgeSeals(lanes[i])
		if !statsOnly {
			printSeals(lane, lanes[i])
		}
		seals = append(seals, lane...)
	}
	if store != nil {
		if err := listSnapshots(store, archs); err != nil {
			return err
		}
	}
	fmt.Println()
	if pfPath := pageFileFor(path); pfPath != "" {
		if err := dumpPageFile(pfPath, false); err != nil {
			fmt.Printf("pagefile %s: unreadable: %v\n", pfPath, err)
		}
		fmt.Println()
	}
	if n > 1 && !statsOnly {
		fmt.Println("merged view (global seq order — the order recovery replays):")
	}

	m := recovery.NewLaneMerge(lanes)
	var ckpt ckptStats
	perKind := map[logrec.Kind]*kindStats{}
	txns := map[uint64]bool{}
	records := 0
	for {
		mr, ok := m.Next()
		if !ok {
			break
		}
		rec := mr.Rec
		records++
		ks := perKind[rec.Kind]
		if ks == nil {
			ks = &kindStats{}
			perKind[rec.Kind] = ks
		}
		ks.add(rec)
		ckpt.add(rec)
		txns[rec.TxnID] = true
		if statsOnly || txnFilter != 0 && rec.TxnID != txnFilter {
			continue
		}
		if n > 1 {
			fmt.Printf("seq=%-8d p%-2d ", rec.Seq, mr.Lane)
		}
		printRecord(rec)
	}
	if err := m.Err(); err != nil {
		fmt.Printf("-- log gap: %v (recovery stops here)\n", err)
	}

	if n > 1 {
		fmt.Printf("\n%d partitions, %d records, %d restorable bytes, %d distinct transactions\n",
			n, records, restorable, len(txns))
	} else {
		fmt.Printf("\n%d records, %d restorable bytes (from offset %d), %d distinct transactions\n",
			records, restorable, uint64(lanes[0].Base), len(txns))
	}
	kinds := make([]logrec.Kind, 0, len(perKind))
	for k := range perKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	// Per kind, what the log spends on saying which record this is
	// (frame, header fields, payload lengths) against what it spends on
	// the data recovery is after (row images, checkpoint tables), and the
	// zero tails of inserted and deleted rows, which it does not log;
	// then the framing field by field.
	for _, k := range kinds {
		ks := perKind[k]
		fmt.Printf("  %-11s %8d records %10d bytes = %d framing + %d image",
			k, ks.records, ks.bytes, ks.bytes-ks.image, ks.image)
		if ks.zeros > 0 {
			fmt.Printf(", %d implied zero bytes", ks.zeros)
		}
		s := ks.sizes
		fmt.Printf("\n%14sframing = length %d + kind %d + txn id %d + txn slot %d + page %d + aux %d + seq %d + payload %d\n",
			"", s.Length, s.Kind, s.TxnID, s.Slots, s.PageID, s.Aux, s.Seq, s.Payload-ks.image)
		if p := ks.payload; p != (logrec.PayloadSizes{}) {
			fmt.Printf("%14spayload = op %d + slot %d + off %d + delta %d + x %d + tail %d + row length %d + row %d\n",
				"", p.Op, p.Slot, p.Off, p.Delta, p.X, p.Tail, p.RowLen, p.Row)
		}
	}
	// A seal is framing for a whole flush: its bytes are no kind's.
	sealBytes := 0
	for _, sv := range seals {
		sealBytes += sv.size
	}
	fmt.Printf("  %-11s %8d records %10d bytes (each closes a batch: its length and CRC-32C)\n", "seal", len(seals), sealBytes)
	// Checkpoints are the log's own bookkeeping, not its transactions':
	// their begin and end records, counted apart.
	fmt.Printf("  %-11s %8d records %10d bytes = %d framing + %d ATT + %d DPT (%d whole checkpoints in %d chunks)\n",
		"checkpoint", ckpt.records, ckpt.bytes, ckpt.bytes-ckpt.att-ckpt.dpt, ckpt.att, ckpt.dpt, ckpt.whole, ckpt.chunks)
	return nil
}

// ckptStats sums the checkpoint records: begin and end records, their
// bytes and those of the tables, the chunks, and the checkpoints whose
// every chunk is in the log.
type ckptStats struct {
	records, bytes, att, dpt, chunks, whole int
	g                                       logrec.CheckpointGather
}

func (cs *ckptStats) add(rec logrec.Record) {
	if rec.Kind != logrec.KindCheckpointBegin && rec.Kind != logrec.KindCheckpointEnd {
		return
	}
	cs.records++
	cs.bytes += int(rec.TotalLen)
	if rec.Kind == logrec.KindCheckpointBegin {
		return
	}
	cs.chunks++
	if c, err := logrec.DecodeCheckpoint(rec.Payload); err == nil {
		cs.att += logrec.ATTEntrySize * len(c.ActiveTxns)
		cs.dpt += logrec.DPTEntrySize * len(c.DirtyPages)
	}
	if _, ok := cs.g.Add(rec.Aux, rec.Payload); ok {
		cs.whole++
	}
}

// sealVerdict is one seal as logdump judges it: where it sits and how
// long it is, the batch it closes, and whether that batch matches the
// length and the CRC-32C it carries.
type sealVerdict struct {
	at, from lsn.LSN
	size     int
	length   bool // the batch is as long as the seal says
	crc      bool // and its CRC-32C is the seal's
}

// judgeSeals walks a lane's log record by record, as far as the records
// decode, and judges every seal on the way against the bytes since the
// one before. Unlike recovery it goes on past a bad seal, so a dump shows
// them all.
func judgeSeals(l recovery.Lane) []sealVerdict {
	var seals []sealVerdict
	from := 0
	for off := 0; off < len(l.Log); {
		rec, n, err := logrec.Decode(l.Log[off:])
		if err != nil {
			break
		}
		if rec.IsSeal() {
			seals = append(seals, sealVerdict{
				at: l.Base.Add(off), from: l.Base.Add(from), size: n,
				length: rec.Aux == uint64(off-from),
				crc:    binary.LittleEndian.Uint32(rec.Payload) == logrec.BatchCRC(l.Log[from:off]),
			})
			from = off + n
		}
		off += n
	}
	return seals
}

// printSeals prints a lane's seal verdicts, and what of its log no seal
// closes.
func printSeals(seals []sealVerdict, l recovery.Lane) {
	for _, sv := range seals {
		verdict := "crc ok"
		switch {
		case !sv.length:
			verdict = "length BAD (the seal closes a batch of another length)"
		case !sv.crc:
			verdict = "crc BAD (the batch's bytes differ from those sealed: rot)"
		}
		fmt.Printf("  seal    %-12v covers [%d, %d)  %s\n", sv.at, uint64(sv.from), uint64(sv.at), verdict)
	}
	sealed := l.Base
	if n := len(seals); n > 0 {
		sealed = seals[n-1].at.Add(seals[n-1].size)
	}
	if end := l.Base.Add(len(l.Log)); sealed < end {
		fmt.Printf("  unsealed [%d, %d): no seal closes it (recovery stops there)\n", uint64(sealed), uint64(end))
	}
}

// kindStats sums the records of one kind: their count, bytes, image and
// implied zero bytes, the bytes of each part of their encoding, and
// those of each field of their update payloads.
type kindStats struct {
	records, bytes, image, zeros int
	sizes                        logrec.Sizes
	payload                      logrec.PayloadSizes
}

func (ks *kindStats) add(rec logrec.Record) {
	image, zeros := imageBytes(rec)
	if rec.Kind == logrec.KindUpdate || rec.Kind == logrec.KindCLR {
		if up, err := logrec.DecodeUpdate(rec.Payload); err == nil {
			s, sum := up.Sizes(), &ks.payload
			sum.Op += s.Op
			sum.Slot += s.Slot
			sum.Off += s.Off
			sum.Delta += s.Delta
			sum.X += s.X
			sum.Tail += s.Tail
			sum.RowLen += s.RowLen
			sum.Row += s.Row
		}
	}
	ks.records++
	ks.bytes += int(rec.TotalLen)
	ks.image += image
	ks.zeros += zeros
	s, sum := rec.Sizes(), &ks.sizes
	sum.Length += s.Length
	sum.Kind += s.Kind
	sum.TxnID += s.TxnID
	sum.Slots += s.Slots
	sum.PageID += s.PageID
	sum.Aux += s.Aux
	sum.Seq += s.Seq
	sum.Payload += s.Payload
}

// imageBytes is how much of rec is the data it carries rather than the
// description of it: a splice's X and tail, an insert's or delete's row
// image, a checkpoint's table entries. zeros is the zero tail an insert's or
// delete's row has beyond its logged image. An update payload that does
// not decode counts as framing.
func imageBytes(rec logrec.Record) (image, zeros int) {
	switch rec.Kind {
	case logrec.KindUpdate, logrec.KindCLR:
		if up, err := logrec.DecodeUpdate(rec.Payload); err == nil {
			image = len(up.Before) + len(up.After) + len(up.X) + len(up.Tail)
			if up.Op != logrec.OpSet {
				zeros = up.RowSize() - image
			}
			return image, zeros
		}
	case logrec.KindCheckpointEnd:
		return max(len(rec.Payload)-logrec.CheckpointChunkHeader, 0), 0 // less the chunk header
	}
	return 0, 0
}

func printRecord(rec logrec.Record) {
	switch rec.Kind {
	case logrec.KindUpdate, logrec.KindCLR:
		up, err := logrec.DecodeUpdate(rec.Payload)
		extra := ""
		if rec.Kind == logrec.KindCLR {
			extra = fmt.Sprintf(" undoNext=%v", rec.UndoNext())
		}
		if err != nil {
			fmt.Printf("%-12v %-10s txn=%-6s page=%-8d <bad payload>%s\n",
				rec.LSN, rec.Kind, txnName(rec), rec.PageID, extra)
			return
		}
		var change string
		switch {
		case up.Op != logrec.OpSet: // the logged image and the row, zero tail and all
			change = fmt.Sprintf("before=%dB after=%dB row=%dB", len(up.Before), len(up.After), up.RowSize())
		case up.Delta != 0:
			change = fmt.Sprintf("x=%x delta=%+d tail=%x", up.X, up.Delta, up.Tail)
		default:
			change = fmt.Sprintf("x=%x", up.X)
		}
		fmt.Printf("%-12v %-10s txn=%-6s page=%-8d slot=%-4d %-6s off=%-4d %s%s%s\n",
			rec.LSN, rec.Kind, txnName(rec), rec.PageID, up.Slot, up.Op, up.Off,
			change, firstMark(rec), extra)
	case logrec.KindCheckpointEnd:
		c, err := logrec.DecodeCheckpoint(rec.Payload)
		if err != nil {
			fmt.Printf("%-12v %-10s <bad payload>\n", rec.LSN, rec.Kind)
			return
		}
		// One checkpoint, however many chunks: each names its place and
		// the checkpoint's totals.
		fmt.Printf("%-12v %-10s begin=%v chunk %d of %d att=%d dpt=%d (checkpoint att=%d dpt=%d)\n",
			rec.LSN, rec.Kind, lsn.LSN(rec.Aux), c.Index+1, c.Count, len(c.ActiveTxns), len(c.DirtyPages),
			c.ActiveTotal, c.DirtyTotal)
	default:
		fmt.Printf("%-12v %-10s txn=%s%s\n", rec.LSN, rec.Kind, txnName(rec), firstMark(rec))
	}
}

// txnName is the record's transaction as recovery resolved it, or the
// slot it carries where the slot's binding lies below the base.
func txnName(rec logrec.Record) string {
	if rec.TxnID == 0 && rec.Slot != 0 {
		return fmt.Sprintf("?(slot %d)", rec.Slot)
	}
	return fmt.Sprint(rec.TxnID)
}

// firstMark marks a transaction's first record — where recovery starts
// collecting it, should it be a loser — and the slot it binds.
func firstMark(rec logrec.Record) string {
	switch {
	case !rec.First:
		return ""
	case rec.Slot != 0:
		return fmt.Sprintf(" first, txn slot %d", rec.Slot)
	}
	return " first"
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// listColdStore prints what a cold store holds: the segment objects —
// per lane for a partitioned database (p0/, p1/, …), one unnamed lane
// otherwise — then the snapshots and the retention floor. Torn objects
// (a crashed or cut upload's prefix) are flagged, not errors: the
// archiver overwrites them on its next pass, retention deletes them.
func listColdStore(dir string) error {
	store, err := coldStore("", dir)
	if err != nil {
		return err
	}
	n := logdev.CountLanes(vfs.OS{}, dir)
	archs := make([]*logdev.RemoteArchiver, n)
	for i := range archs {
		lane := logdev.LaneDir("", i, n)
		// Segment size 0: a listing never retrieves a segment, and its
		// floor takes a lane with no segment object left and a
		// low-water mark past 0 for pruned (SnapshotStore.Floor).
		if archs[i], err = logdev.NewRemoteArchiver(store, lane, 0); err != nil {
			return err
		}
		if lane != "" {
			fmt.Printf("lane %s\n", lane)
		}
		if err := listColdLane(store, lane); err != nil {
			return err
		}
	}
	return listSnapshots(store, archs)
}

// listColdLane prints the segment objects of one cold-store lane (a
// LaneDir name, "" for an unpartitioned log).
func listColdLane(store logdev.ObjectStore, lane string) error {
	segKeys, err := store.List(path.Join(lane, "seg") + "/")
	if err != nil {
		return err
	}
	fmt.Printf("segment objects: %d\n", len(segKeys))
	for _, key := range segKeys {
		data, err := store.Get(key)
		if err != nil {
			return err
		}
		if _, idx, payload, derr := logdev.DecodeObject(data); derr != nil {
			fmt.Printf("  %s  TORN (failed upload's prefix; re-shipped on the archiver's next pass)\n", key)
		} else {
			segSize := int64(len(payload))
			fmt.Printf("  segment %6d  [%d, %d)\n", idx, int64(idx)*segSize, (int64(idx)+1)*segSize)
		}
	}
	return nil
}

// listSnapshots prints every snapshot manifest in the cold store — its
// restore point, the checkpoint a restore's analysis starts at, each
// lane's low-water mark, and how many pages and images objects it names
// — and the retention floor.
func listSnapshots(store logdev.ObjectStore, archs []*logdev.RemoteArchiver) error {
	snaps := logdev.NewSnapshotStore(store, archs)
	ats, err := snaps.Manifests()
	if err != nil {
		return err
	}
	fmt.Printf("snapshots: %d\n", len(ats))
	for _, at := range ats {
		m, err := snaps.GetManifest(at)
		if err != nil {
			fmt.Printf("  snapshot at=%d  TORN or unreadable (never a restore base, deleted by retention): %v\n", at, err)
			continue
		}
		fmt.Printf("  snapshot at=%-12d checkpoint=%-12d lanes (low-water, end)=%v  %d pages in %d images objects\n",
			m.At, m.Checkpoint, m.Lanes, len(m.Pages), len(m.Objects()))
	}
	floor, err := snaps.Floor()
	if err != nil {
		return err
	}
	fmt.Printf("retention floor: %d (oldest restorable point)\n", floor)
	return nil
}
