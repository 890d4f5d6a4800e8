// Command logdump decodes a write-ahead log and prints its records —
// the debugging companion every WAL implementation needs. It stops at
// the first gap, exactly where recovery would. Pointed at a database
// directory, it decodes the segmented log and prints the segment layout
// and base offset first, plus a summary of the paged database file if
// one lives beside the log. Pointed at a pagefile itself, it dumps the
// slot table.
//
// Cold-storage awareness: a segmented log whose dead segments were
// archived (aether.Options.ArchiveDir, or a RemoteStore kept in a
// directory) keeps only the hot tail on the device. logdump lists the
// cold store's objects — one per archived segment, the snapshots, and the
// retention floor — and stitches the archived history
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
// Usage:
//
//	logdump -f wal.d                # segmented log directory (+ cold store, if present)
//	logdump -f wal.d -archive cold  # segmented log with an explicit cold store
//	logdump -f multi.d              # partitioned root: per-partition layout + merged seq view
//	logdump -f wal.d -txn 42        # one transaction's chain
//	logdump -f wal.d -stats         # kind histogram + volume (framing vs image bytes) only
//	logdump -f wal.d/pagefile.db    # pagefile slot table
//	logdump -archive cold           # cold store alone: segment and
//	                                # snapshot objects, floor
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

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
                                   bytes split into framing and row images
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
// slots of every segment file's header (torn and parked segments
// included), what each claims, whether its own CRC and the CRC of the
// bytes it covers check out, and which one the open believed.
func printSlots(seg *logdev.Segmented) {
	admitted := false
	for _, h := range seg.SlotReports() {
		for i, sl := range h.Slots {
			if !sl.Written {
				fmt.Printf("  header  %6d  slot %d: slot-crc BAD or never written\n", h.Index, i)
				continue
			}
			data, mark := "data-crc ok", ""
			if !sl.DataOK {
				data = "data-crc BAD (covered bytes missing or different: slot outran its data, or rot)"
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

// lanePrefix is lane i of n's key prefix in the cold store ("" for the
// one lane of an unpartitioned log).
func lanePrefix(i, n int) string {
	if p := logdev.LaneDir("", i, n); p != "" {
		return p + "/"
	}
	return ""
}

// dumpLane prints lane i of n's device layout and returns its restorable
// log: the archived history below the truncation base stitched to the
// live tail. The directory opens strictly read-only: logdump is a
// diagnostic and must never repair, seed metadata, or unlink what it
// inspects.
func dumpLane(path string, store *logdev.DirObjectStore, i, n int) (recovery.Lane, error) {
	seg, err := logdev.OpenSegmentedDirRO(logdev.LaneDir(path, i, n))
	if err != nil {
		return recovery.Lane{}, err
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
		fmt.Printf("  pending archive: %v  (dead, recycled only after cold storage has them)\n", pend)
	}
	// Read-only device + read-only store: RestoreLog skips the drain and
	// stitches what is already archived to the bytes still on the device
	// (parked dead segments included).
	var arch *logdev.RemoteArchiver
	if store != nil {
		prefix := lanePrefix(i, n)
		if arch, err = logdev.NewRemoteArchiver(store, prefix, seg.SegmentSize()); err != nil {
			return recovery.Lane{}, err
		}
		fmt.Printf("cold store lane %q:\n", prefix)
		if err := listColdLane(store, arch, prefix); err != nil {
			return recovery.Lane{}, err
		}
	}
	data, base, err := seg.RestoreLog(arch, 0)
	return recovery.Lane{Log: data, Base: lsn.LSN(base)}, err
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
	var restorable int
	for i := range lanes {
		var err error
		if lanes[i], err = dumpLane(path, store, i, n); err != nil {
			return fmt.Errorf("lane %d: %w", i, err)
		}
		restorable += len(lanes[i].Log)
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
	kindCount := map[logrec.Kind]int{}
	kindBytes := map[logrec.Kind]int{}
	kindImage := map[logrec.Kind]int{}
	txns := map[uint64]bool{}
	records := 0
	for {
		mr, ok := m.Next()
		if !ok {
			break
		}
		rec := mr.Rec
		records++
		kindCount[rec.Kind]++
		kindBytes[rec.Kind] += int(rec.TotalLen)
		kindImage[rec.Kind] += imageBytes(rec)
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
	kinds := make([]logrec.Kind, 0, len(kindCount))
	for k := range kindCount {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	// Per kind, what the log spends on saying which record this is
	// (frame, header fields, payload lengths) against what it spends on
	// the data recovery is after (row images, checkpoint tables).
	for _, k := range kinds {
		fmt.Printf("  %-11s %8d records %10d bytes = %d framing + %d image\n",
			k, kindCount[k], kindBytes[k], kindBytes[k]-kindImage[k], kindImage[k])
	}
	return nil
}

// imageBytes is how much of rec is the data it carries rather than the
// description of it: an update's or CLR's before and after images, a
// checkpoint's table entries. An update payload that does not decode
// counts as framing.
func imageBytes(rec logrec.Record) int {
	switch rec.Kind {
	case logrec.KindUpdate, logrec.KindCLR:
		if up, err := logrec.DecodeUpdate(rec.Payload); err == nil {
			return len(up.Before) + len(up.After)
		}
	case logrec.KindCheckpointEnd:
		return max(len(rec.Payload)-8, 0) // less the two table counts
	}
	return 0
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
			fmt.Printf("%-12v %-10s txn=%-6d page=%-8d <bad payload>%s\n",
				rec.LSN, rec.Kind, rec.TxnID, rec.PageID, extra)
			return
		}
		fmt.Printf("%-12v %-10s txn=%-6d page=%-8d slot=%-4d %-6s off=%-4d before=%dB after=%dB prev=%v%s\n",
			rec.LSN, rec.Kind, rec.TxnID, rec.PageID, up.Slot, up.Op, up.Off,
			len(up.Before), len(up.After), prevStr(rec.PrevLSN), extra)
	case logrec.KindCheckpointEnd:
		p, err := logrec.DecodeCheckpoint(rec.Payload)
		if err != nil {
			fmt.Printf("%-12v %-10s <bad payload>\n", rec.LSN, rec.Kind)
			return
		}
		fmt.Printf("%-12v %-10s begin=%v att=%d dpt=%d\n",
			rec.LSN, rec.Kind, lsn.LSN(rec.Aux), len(p.ActiveTxns), len(p.DirtyPages))
	default:
		fmt.Printf("%-12v %-10s txn=%-6d prev=%v\n",
			rec.LSN, rec.Kind, rec.TxnID, prevStr(rec.PrevLSN))
	}
}

func prevStr(l lsn.LSN) string {
	if !l.Valid() {
		return "-"
	}
	return l.String()
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// listColdStore prints what a cold store holds: the segment objects, the
// snapshot objects, and the retention floor — per lane for a partitioned database (p0/,
// p1/, …), one unnamed lane otherwise. Torn objects (a crashed or cut
// upload's prefix) are flagged, not errors: the archiver overwrites
// them on its next pass.
func listColdStore(dir string) error {
	store, err := coldStore("", dir)
	if err != nil {
		return err
	}
	n := logdev.CountLanes(vfs.OS{}, dir)
	for i := 0; i < n; i++ {
		prefix := lanePrefix(i, n)
		// Segment size 0: a listing never retrieves a segment.
		arch, err := logdev.NewRemoteArchiver(store, prefix, 0)
		if err != nil {
			return err
		}
		if prefix != "" {
			fmt.Printf("lane %s\n", strings.TrimSuffix(prefix, "/"))
		}
		if err := listColdLane(store, arch, prefix); err != nil {
			return err
		}
	}
	return nil
}

// remoteObj fetches and unwraps one object, tolerating torn uploads.
func remoteObj(store logdev.ObjectStore, key string) (kind uint16, meta uint64, payload []byte, torn bool, err error) {
	data, err := store.Get(key)
	if err != nil {
		return 0, 0, nil, false, err
	}
	kind, meta, payload, derr := logdev.DecodeObject(data)
	if derr != nil {
		return 0, 0, nil, true, nil
	}
	return kind, meta, payload, false, nil
}

func listColdLane(store logdev.ObjectStore, arch *logdev.RemoteArchiver, lane string) error {
	segKeys, err := store.List(lane + "seg/")
	if err != nil {
		return err
	}
	fmt.Printf("segment objects: %d\n", len(segKeys))
	for _, key := range segKeys {
		_, idx, payload, torn, err := remoteObj(store, key)
		if err != nil {
			return err
		}
		if torn {
			fmt.Printf("  %s  TORN (failed upload's prefix; re-shipped on the archiver's next pass)\n", key)
			continue
		}
		segSize := int64(len(payload))
		fmt.Printf("  segment %6d  [%d, %d)\n", idx, int64(idx)*segSize, (int64(idx)+1)*segSize)
	}

	snapKeys, err := store.List(lane + "snap/")
	if err != nil {
		return err
	}
	fmt.Printf("snapshot objects: %d\n", len(snapKeys))
	for _, key := range snapKeys {
		_, _, payload, torn, err := remoteObj(store, key)
		if err != nil {
			return err
		}
		if torn {
			fmt.Printf("  %s  TORN (failed upload's prefix; never a restore base, deleted by retention)\n", key)
			continue
		}
		snap, derr := logdev.DecodeSnapshot(payload)
		if derr != nil {
			fmt.Printf("  %s  bad payload: %v\n", key, derr)
			continue
		}
		fmt.Printf("  snapshot cut=%-12d %d pages, %d stashed in-flight updates\n",
			snap.Cut, len(snap.Pages), len(snap.Stash))
	}

	floor, err := arch.Floor()
	if err != nil {
		return err
	}
	fmt.Printf("retention floor: %d (oldest restorable point)\n", floor)
	return nil
}
