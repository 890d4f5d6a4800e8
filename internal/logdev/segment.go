package logdev

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aether/internal/vfs"
)

// ReadTail reads the durable log suffix [base, durable) and returns it
// together with its base offset — the recovery scan's input on a device
// whose dead prefix was recycled.
func ReadTail(dev Device) (data []byte, base int64, err error) {
	base = dev.Base()
	size := dev.DurableSize()
	if size < base {
		return nil, 0, fmt.Errorf("logdev: durable size %d below truncation base %d", size, base)
	}
	buf := make([]byte, size-base)
	off := base
	for off < size {
		n, err := dev.ReadAt(buf[off-base:], off)
		off += int64(n)
		if err != nil {
			if err == io.EOF && off == size {
				break
			}
			return nil, 0, err
		}
	}
	return buf, base, nil
}

// SegmentInfo describes one live segment of a Segmented device.
type SegmentInfo struct {
	// Index is the segment's position in the logical stream; the segment
	// covers logical offsets [Index*SegmentSize, (Index+1)*SegmentSize).
	Index int64
	// Start and End bound the bytes actually written into the segment.
	Start, End int64
}

// Segmented is an append-only log device that spreads the logical byte
// stream over fixed-size segments with a monotonic base offset. Whole
// segments behind the truncation horizon are recycled (their files
// deleted), bounding the log's footprint the way LogBase-style
// log recycling does, while LSNs remain stable addresses: logical offsets
// never restart.
//
// It is the one log device: a directory on a vfs.FS holding each segment
// as its own file plus a MANIFEST recording the segment size and
// horizon. On a real filesystem it outlives the process; on an in-memory
// one (NewMem) it is the ramdisk of the paper's methodology, and a power
// cut of that filesystem is its crash. Either way it may carry a Profile
// whose response time every Sync pays on top of its own I/O.
type Segmented struct {
	profile Profile
	segSize int64
	// fs and dir hold the segments, each dir/<index>.seg — a header
	// carrying the durable watermark (segheader.go), then segSize bytes
	// of log space, allocated when the file is created — and the
	// MANIFEST (format version, segment size, truncation horizon).
	fs  vfs.FS
	dir string

	// syncMu serializes Sync calls: each writes the header slot the
	// previous one did not, through slotBuf, harden's scratch space, one
	// for every segment.
	syncMu  sync.Mutex
	slotBuf [wmSlotSize]byte

	mu sync.Mutex
	// segs is every segment file present. Those wholly below the base,
	// the newest aside, are dead (deadLocked) and wait for the drain.
	segs    map[int64]*fileSegment
	base    int64 // truncation horizon: first valid logical offset
	size    int64 // logical append end (monotonic across truncation)
	durable int64
	newSegs bool // segments created since the last completed Sync
	closed  bool

	archiver *RemoteArchiver // the cold store; nil: Truncate drains dead segments itself
	archMu   sync.Mutex      // serializes ArchivePending passes
	readOnly bool            // diagnostic open: no writes, no repair on disk

	// openSlots is every segment header as a read-only open judged it
	// (SlotReports); nil for writable opens, whose headers move on.
	openSlots []SegmentSlots

	truncatedSegments int64
	truncatedBytes    int64
	archivedSegments  int64
	repairedTail      int64 // torn-tail bytes discarded by Open
	lowRead           int64 // lowest offset ever passed to ReadAt

	stats Stats
}

var _ Device = (*Segmented)(nil)

// fileSegment is one segment file. Data offset 0 is file offset
// SegmentHeaderSize: the header never shows through this type.
type fileSegment struct {
	f     vfs.File
	s     *Segmented
	start int64 // logical offset of the segment's first log byte
	// next is the header slot the next harden overwrites — never the
	// one holding the newest acknowledged watermark.
	next int
}

func (s *Segmented) segPath(idx int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%016d.seg", idx))
}

func (s *Segmented) openSeg(idx int64, flags int) (*fileSegment, error) {
	f, err := s.fs.OpenFile(s.segPath(idx), flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("logdev: open segment: %w", err)
	}
	return &fileSegment{f: f, s: s, start: idx * s.segSize}, nil
}

// createSeg makes segment idx at its full size, header plus segSize zero
// bytes. The segment's first harden fsync
// persists that length and no later one changes it, so a commit's fsync
// carries no file-size change (on ext4 that made a lone commit's fsync
// about a third cheaper). The file's length then no longer says where
// its log bytes end; the watermark alone does (openSegmentedDir).
func (s *Segmented) createSeg(idx int64) (*fileSegment, error) {
	seg, err := s.openSeg(idx, os.O_RDWR|os.O_CREATE)
	if err != nil {
		return nil, err
	}
	if err := seg.f.Truncate(SegmentHeaderSize + s.segSize); err != nil {
		seg.f.Close()
		return nil, fmt.Errorf("logdev: size segment: %w", err)
	}
	return seg, nil
}

// removeSeg recycles segment idx permanently.
func (s *Segmented) removeSeg(idx int64, seg *fileSegment) error {
	if err := seg.f.Close(); err != nil {
		return err
	}
	return s.fs.Remove(s.segPath(idx))
}

// manifestName holds the directory's format version, the segment size
// and the truncation horizon; it is what lets a reopen (and logdump)
// reconstruct the logical layout after dead segments were recycled.
const manifestName = "MANIFEST"

// manifestFormat is the directory layout and log encoding this code
// reads and writes: 11 = segment files start with a watermark header
// whose slots name a Sync's range and no checksum of its bytes, the
// seals vouching for them, and hold records in logrec's compact encoding
// (a varint length, presence byte, varint fields, no back-pointer on any
// record but a kind-byte bit on a transaction's first, which alone names
// the transaction in full and binds a one-byte slot that its later
// records carry instead, an update's changed bytes logged once as
// before ⊕ after, insert and delete rows without their zero tail, a
// CLR's undo-next stored plus one), no checksum in any record, every
// flushed batch closed by a seal carrying its length and CRC-32C, and a
// checkpoint's tables logged in chunks of bounded size. Format 10 (these
// records, with a CRC-32C of the covered bytes in each slot, whose
// 28-byte slots format 11 would not decode), format 9 (the same with the
// whole tables in one checkpoint-end record, whose chunk header format
// 10 would misread), format 8 (that with the
// full TxnID on every record of a transaction), format 7 (that with a
// CRC-32C in every record's frame and no seals), format 6 (that with a back-pointer on every record but a
// commit or an end, and that bit its presence bit), format 5 (that with
// an update's before and after images both logged), format 4 (that
// around a fixed 8-byte frame, with commit and end records chained),
// format 3 (that, with whole insert and delete rows and a CLR's
// undo-next as is), format 2 (the same files around fixed 48-byte record
// headers and whole-row images) and format 1 (no "format" line;
// headerless segments beside a MANIFEST.durable watermark file) are
// refused with ErrFormat rather than guessed at: a reader of one record
// encoding misreads or refuses the records of another.
const manifestFormat = 11

// ErrFormat is returned by the OpenSegmentedDir family for a directory,
// and by the cold store's readers for an object, written in a layout or
// log encoding this version does not read.
var ErrFormat = errors.New("logdev: unsupported segment directory format")

// syncDir makes segment creations and removals durable.
func (s *Segmented) syncDir() error {
	s.stats.Fsyncs.Inc()
	return s.fs.SyncDir(s.dir)
}

func writeManifest(fs vfs.FS, dir string, segSize, base int64) error {
	tmp := filepath.Join(dir, manifestName+".tmp")
	body := fmt.Sprintf("format %d\nsegsize %d\nbase %d\n", manifestFormat, segSize, base)
	// The temp file's bytes must be durable before the rename: a rename
	// whose dentry hardens ahead of the data would leave an empty
	// MANIFEST after a crash, making the directory unopenable.
	if err := vfs.WriteFileSync(fs, tmp, []byte(body), 0o644); err != nil {
		return fmt.Errorf("logdev: write manifest: %w", err)
	}
	if err := fs.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("logdev: install manifest: %w", err)
	}
	// The horizon must be durable before callers act on it (the drain
	// unlinks segments below it).
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("logdev: sync manifest dir: %w", err)
	}
	return nil
}

func readManifest(fs vfs.FS, dir string) (segSize, base int64, ok bool, err error) {
	data, err := fs.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("logdev: read manifest: %w", err)
	}
	var format int64 = 1 // a manifest without the line predates it
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, perr := strconv.ParseInt(fields[1], 10, 64)
		if perr != nil {
			return 0, 0, false, fmt.Errorf("logdev: bad manifest line %q", line)
		}
		switch fields[0] {
		case "format":
			format = v
		case "segsize":
			segSize = v
		case "base":
			base = v
		}
	}
	if format != manifestFormat {
		return 0, 0, false, fmt.Errorf("%w: %s is format %d, this version reads format %d", ErrFormat, dir, format, manifestFormat)
	}
	if segSize <= 0 {
		return 0, 0, false, fmt.Errorf("logdev: manifest in %s lacks a segment size", dir)
	}
	return segSize, base, true, nil
}

func (s *fileSegment) writeAt(p []byte, off int64) error {
	n, err := s.f.WriteAt(p, SegmentHeaderSize+off)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return err
}

// readAt reads log bytes. Space past the data end holds the zeros the
// segment's creation allocated; a file shorter than a full segment (one
// written before segments were born full-size, or whose sizing a crash
// undid) reads as zeros past its end too.
func (s *fileSegment) readAt(p []byte, off int64) error {
	n, err := s.f.ReadAt(p, SegmentHeaderSize+off)
	if err == io.EOF {
		for i := n; i < len(p); i++ {
			p[i] = 0
		}
		return nil
	}
	return err
}

// sync makes the segment's written bytes durable.
func (s *fileSegment) sync() error {
	s.s.stats.Fsyncs.Inc()
	return s.f.Sync()
}

// harden makes the segment's bytes durable together with a record that
// the log is durable through logical offset durable, the Sync having
// begun at from: it writes the watermark slot and fsyncs the file once.
func (s *fileSegment) harden(from, durable int64) error {
	slot := s.s.slotBuf[:]
	wmSlot{Durable: durable, From: from}.encode(slot)
	if _, err := s.f.WriteAt(slot, int64(s.next)*wmSlotStride); err != nil {
		return fmt.Errorf("logdev: write watermark: %w", err)
	}
	if err := s.sync(); err != nil {
		// The slot may or may not have reached the disk; the other one
		// still holds the last acknowledged watermark, so a retry must
		// land on this position again.
		return err
	}
	s.next = 1 - s.next
	return nil
}

// trim zeroes the bytes at and beyond n, leaving the segment its full
// size (torn-tail repair).
func (s *fileSegment) trim(n int64) error {
	if err := s.f.Truncate(SegmentHeaderSize + n); err != nil {
		return err
	}
	return s.f.Truncate(SegmentHeaderSize + s.s.segSize)
}

// tailBlock is how far past the watermark a reopen looks for a torn
// tail: a clean reopen reads this much and writes nothing.
const tailBlock = 4096

// tornBytes returns how many bytes a crash left in seg past data offset
// from, reading no further than end: 0 when the block at from reads as
// zeros (allocated space nothing wrote), else the distance from from to
// the last non-zero byte. buf is scratch of at least tailBlock bytes.
func tornBytes(seg *fileSegment, from, end int64, buf []byte) (int64, error) {
	if from >= end {
		return 0, nil
	}
	blk := buf[:min(tailBlock, end-from)]
	if err := seg.readAt(blk, from); err != nil {
		return 0, err
	}
	if allZero(blk) {
		return 0, nil
	}
	last := from - 1 // the last non-zero byte seen
	for off := from; off < end; {
		chunk := buf[:min(int64(len(buf)), end-off)]
		if err := seg.readAt(chunk, off); err != nil {
			return 0, err
		}
		for i := len(chunk) - 1; i >= 0; i-- {
			if chunk[i] != 0 {
				last = off + int64(i)
				break
			}
		}
		off += int64(len(chunk))
	}
	return last + 1 - from, nil
}

func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// OpenSegmentedDir opens (creating if needed) a directory-backed
// segmented device. Existing segment files, up to the durable
// watermark, are the durable prefix. segSize must match the directory's
// manifest if one exists; pass 0 to adopt the manifest's value (reopen /
// logdump).
func OpenSegmentedDir(dir string, segSize int64) (*Segmented, error) {
	return openSegmentedDir(vfs.OS{}, dir, segSize, false)
}

// OpenSegmentedDirFS is OpenSegmentedDir over an arbitrary filesystem
// — the fault-injection entry point.
func OpenSegmentedDirFS(fs vfs.FS, dir string, segSize int64) (*Segmented, error) {
	return openSegmentedDir(fs, dir, segSize, false)
}

// CreateSegmentedAt makes an empty segmented log in dir whose stream
// begins at base, not at 0, and opens it: a restore's copy of a lane's
// history from its low-water mark. dir must not hold a log yet.
func CreateSegmentedAt(fs vfs.FS, dir string, segSize, base int64) (*Segmented, error) {
	if HasManifest(fs, dir) {
		return nil, fmt.Errorf("logdev: %s already holds a log", dir)
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("logdev: create %s: %w", dir, err)
	}
	if err := fs.SyncDir(filepath.Dir(dir)); err != nil {
		return nil, fmt.Errorf("logdev: sync parent of %s: %w", dir, err)
	}
	if err := writeManifest(fs, dir, segSize, base); err != nil {
		return nil, err
	}
	return openSegmentedDir(fs, dir, segSize, false)
}

// ErrReadOnly is returned for mutating operations on a device opened
// with OpenSegmentedDirRO.
var ErrReadOnly = errors.New("logdev: device opened read-only")

// OpenSegmentedDirRO opens an existing segmented log directory strictly
// for inspection (logdump): segment files open read-only and a torn
// tail is clamped in memory without trimming or unlinking anything on
// disk — the crash evidence stays exactly as the crash left it, and
// SlotReports says how each header slot was judged. Append, Sync and
// Truncate return ErrReadOnly.
func OpenSegmentedDirRO(dir string) (*Segmented, error) {
	return openSegmentedDir(vfs.OS{}, dir, 0, true)
}

func openSegmentedDir(fs vfs.FS, dir string, segSize int64, ro bool) (*Segmented, error) {
	if ro {
		if st, err := fs.Stat(dir); err != nil {
			return nil, fmt.Errorf("logdev: open %s: %w", dir, err)
		} else if !st.IsDir() {
			return nil, fmt.Errorf("logdev: %s is not a segmented log directory", dir)
		}
	} else if _, err := fs.Stat(dir); err != nil {
		if err := fs.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("logdev: create %s: %w", dir, err)
		}
		// The new directory's own dentry must be durable before anything
		// inside it is: sync the parent (invariant 5's outermost layer).
		if err := fs.SyncDir(filepath.Dir(dir)); err != nil {
			return nil, fmt.Errorf("logdev: sync parent of %s: %w", dir, err)
		}
	}
	msz, mbase, haveManifest, err := readManifest(fs, dir)
	if err != nil {
		return nil, err
	}
	switch {
	case haveManifest && segSize == 0:
		segSize = msz
	case haveManifest && segSize != msz:
		return nil, fmt.Errorf("logdev: segment size %d does not match manifest's %d in %s", segSize, msz, dir)
	case !haveManifest && ro:
		return nil, fmt.Errorf("logdev: %s has no MANIFEST (not a segmented log)", dir)
	case !haveManifest && segSize <= 0:
		return nil, fmt.Errorf("logdev: segment size required for new segmented log %s", dir)
	case !haveManifest:
		if err := writeManifest(fs, dir, segSize, 0); err != nil {
			return nil, err
		}
	}

	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("logdev: read %s: %w", dir, err)
	}
	s := &Segmented{
		segSize:  segSize,
		fs:       fs,
		dir:      dir,
		segs:     make(map[int64]*fileSegment),
		base:     mbase,
		lowRead:  math.MaxInt64,
		readOnly: ro,
	}
	fail := func(err error) (*Segmented, error) {
		s.closeSegmentsLocked()
		return nil, err
	}
	flags := os.O_RDWR
	if ro {
		flags = os.O_RDONLY
	}
	minIdx := int64(math.MaxInt64)
	sizes := make(map[int64]int64)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		idx, perr := strconv.ParseInt(strings.TrimSuffix(name, ".seg"), 10, 64)
		if perr != nil {
			return fail(fmt.Errorf("logdev: stray file %s in segmented log %s", name, dir))
		}
		info, ierr := e.Info()
		if ierr != nil {
			return fail(ierr)
		}
		// What follows the header is the segment's log space: all of it
		// for a file created full-size, only the bytes written for one
		// that predates that (or whose sizing a crash undid); a file a
		// crash left shorter than the header holds none.
		dataLen := max(info.Size()-SegmentHeaderSize, 0)
		if dataLen > segSize {
			return fail(fmt.Errorf("logdev: segment %s holds %d log bytes, more than the segment size %d", name, dataLen, segSize))
		}
		seg, oerr := s.openSeg(idx, flags)
		if oerr != nil {
			return fail(oerr)
		}
		s.segs[idx] = seg
		sizes[idx] = dataLen
		minIdx = min(minIdx, idx)
	}
	if len(sizes) > 0 && minIdx*segSize > s.base {
		// The manifest update raced a crash; the surviving files are
		// authoritative about what was recycled.
		s.base = minIdx * segSize
	}

	// buf is the open's scratch: what the slots cover, read back for the
	// seals to vouch for, and the space past the watermark.
	buf := make([]byte, 64<<10)

	// The durable watermark decides where the log ends. File sizes say
	// nothing about it: every segment is created full-size, and a power
	// loss can persist unsynced bytes in a later segment while dropping
	// them from an earlier one. The watermark is the highest admissible
	// header slot (segheader.go) over every segment file present: bytes
	// beyond it are a torn tail (discard), bytes missing below it are
	// real corruption (fail loudly). The truncation base is a floor:
	// Truncate only ever records offsets at or below the durable horizon,
	// and the one segment whose recycling can take the newest slot with
	// it is the one that ends exactly at that base. held is how far the
	// files must hold every byte however the slots are judged: a whole
	// slot was written only after its Sync had fsynced everything before
	// the slot's own segment, so bytes missing there are corruption too,
	// also when the slot falls back.
	// A writable open judges the slots newest first and stops at the first
	// it admits, so it reads back the bytes of the newest Sync, not of
	// every Sync a header remembers (a restored copy is written in one
	// Sync a segment for this); a read-only open judges every slot, for
	// SlotReports.
	type candidate struct {
		seg *fileSegment
		i   int
		sl  SlotReport
	}
	var cands []candidate
	held := s.base
	var reports []SegmentSlots // kept for SlotReports by read-only opens
	for idx, fseg := range s.segs {
		var rep SegmentSlots
		var herr error
		if ro {
			rep, herr = inspectHeader(fseg.f, idx, segSize, s.base, s.readSegs, &buf)
		} else {
			rep, herr = readHeader(fseg.f, idx)
		}
		if herr != nil {
			return fail(herr)
		}
		if ro {
			reports = append(reports, rep)
		}
		for i, sl := range rep.Slots {
			if !sl.Written {
				continue
			}
			held = max(held, min(idx*segSize, sl.Durable))
			if sl.Durable >= s.base {
				cands = append(cands, candidate{fseg, i, sl})
			}
		}
	}
	slices.SortFunc(cands, func(a, b candidate) int { return cmp.Compare(b.sl.Durable, a.sl.Durable) })
	wmVal := s.base
	var admitted *fileSegment
	admittedSlot := -1
	for _, c := range cands {
		ok := c.sl.DataOK
		if !ro {
			ok = wmSlot{Durable: c.sl.Durable, From: c.sl.From}.admissible(c.seg.start, segSize, s.base, s.readSegs, &buf)
		}
		if ok {
			wmVal, admitted, admittedSlot = c.sl.Durable, c.seg, c.i
			break
		}
	}
	if admitted != nil {
		// Never overwrite the slot holding the watermark.
		admitted.next = 1 - admittedSlot
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Index < reports[j].Index })
	for r := range reports {
		if admitted != nil && reports[r].Index == admitted.start/segSize {
			reports[r].Slots[admittedSlot].Admitted = true
		}
	}
	s.openSlots = reports
	for end, idx := max(wmVal, held), s.base/segSize; idx*segSize < end && s.base < end; idx++ {
		need := min(segSize, end-idx*segSize)
		if sizes[idx] < need {
			return fail(fmt.Errorf(
				"logdev: segment %d holds %d bytes but completed Syncs made the log durable through %d, which requires %d — mid-log corruption, refusing to repair",
				idx, sizes[idx], end, need))
		}
	}
	s.size, s.durable = wmVal, wmVal

	// Torn tail: everything beyond the watermark was never covered by a
	// completed Sync, so no committed work can live there, and nothing
	// reads it (reads stop at the durable size). What a crash left there
	// is counted (repairedTail) and zeroed, durably, before the open is
	// acknowledged; segments wholly past the watermark go. A segment's
	// space past the watermark is judged by its first block: zeros there
	// are allocated space nothing wrote, so a clean reopen reads one
	// block and writes nothing. A segment that starts exactly at the
	// watermark and holds nothing stays: the log resumes in it. Segments
	// go newest first, each unlink made durable before the next and all
	// before any trim, so a crash in the repair never leaves a whole slot
	// above a segment the repair has removed or cut short (held).
	var doomed, trimmed []int64
	for idx, seg := range s.segs {
		segStart := idx * segSize
		if segStart+segSize <= wmVal {
			continue
		}
		torn, terr := tornBytes(seg, max(wmVal-segStart, 0), sizes[idx], buf)
		if terr != nil {
			return fail(fmt.Errorf("logdev: read past the watermark in segment %d: %w", idx, terr))
		}
		s.repairedTail += torn
		switch {
		case segStart > wmVal || (segStart == wmVal && torn > 0):
			doomed = append(doomed, idx)
		case torn > 0 && !ro:
			trimmed = append(trimmed, idx)
		}
	}
	slices.Sort(doomed)
	slices.Reverse(doomed)
	for _, idx := range doomed {
		seg := s.segs[idx]
		delete(s.segs, idx)
		if ro {
			// Leave the crash evidence on disk; just stop serving the
			// torn segment.
			seg.f.Close()
			continue
		}
		if err := s.removeSeg(idx, seg); err != nil {
			return fail(fmt.Errorf("logdev: discard torn segment %d: %w", idx, err))
		}
		if err := s.syncDir(); err != nil {
			return fail(err)
		}
	}
	for _, idx := range trimmed {
		seg := s.segs[idx]
		if err := seg.trim(wmVal - seg.start); err != nil {
			return fail(fmt.Errorf("logdev: trim torn segment %d: %w", idx, err))
		}
		if err := seg.sync(); err != nil {
			return fail(fmt.Errorf("logdev: sync trimmed segment %d: %w", idx, err))
		}
		sizes[idx] = segSize
	}
	tail := s.newestLocked()
	if tail >= 0 && sizes[tail] < segSize && !ro {
		// A tail file only as long as its data (written before segments
		// were born full-size) gets its full size now, so no commit's
		// fsync grows it; the next harden's fsync persists the length.
		if err := s.segs[tail].f.Truncate(SegmentHeaderSize + segSize); err != nil {
			return fail(fmt.Errorf("logdev: size tail segment %d: %w", tail, err))
		}
	}
	return s, nil
}

// SetProfile makes every later Sync pay p's response time before its own
// I/O: the paper's device classes imposed on whatever filesystem the
// device sits on. Set it before the device is shared.
func (s *Segmented) SetProfile(p Profile) { s.profile = p }

// SegmentSize returns the fixed segment size.
func (s *Segmented) SegmentSize() int64 { return s.segSize }

// Base implements Device.
func (s *Segmented) Base() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base
}

// Segments lists the live segments in logical order.
func (s *Segmented) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	dead := len(s.deadLocked(s.base)) // dead segments precede every live one
	out := make([]SegmentInfo, 0, len(s.segs))
	for idx := range s.segs {
		end := (idx + 1) * s.segSize
		if end > s.size {
			end = s.size
		}
		out = append(out, SegmentInfo{Index: idx, Start: idx * s.segSize, End: end})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out[dead:]
}

// newestLocked returns the highest segment index present, or -1. Caller
// holds s.mu.
func (s *Segmented) newestLocked() int64 {
	newest := int64(-1)
	for idx := range s.segs {
		newest = max(newest, idx)
	}
	return newest
}

// deadLocked lists, in logical order, the segments dead under horizon:
// every one wholly below it but the newest, which stays so a reopen can
// recompute the logical layout from what remains. Caller holds s.mu.
func (s *Segmented) deadLocked(horizon int64) []int64 {
	newest := s.newestLocked()
	var dead []int64
	for idx := range s.segs {
		if idx != newest && (idx+1)*s.segSize <= horizon {
			dead = append(dead, idx)
		}
	}
	slices.Sort(dead)
	return dead
}

// TruncStats returns how many whole segments and how many logical bytes
// have been recycled by Truncate.
func (s *Segmented) TruncStats() (segments, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.truncatedSegments, s.truncatedBytes
}

// LowestRead returns the smallest offset ever passed to ReadAt, or -1 if
// the device was never read. Tests use it to prove recovery never
// touched the recycled prefix.
func (s *Segmented) LowestRead() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lowRead == math.MaxInt64 {
		return -1
	}
	return s.lowRead
}

// writable returns why the device refuses writes — closed, or opened
// read-only — or nil. Caller holds s.mu.
func (s *Segmented) writable() error {
	if s.closed {
		return ErrClosed
	}
	if s.readOnly {
		return ErrReadOnly
	}
	return nil
}

// Append implements Device, splitting the write across segment
// boundaries and creating segments on demand.
func (s *Segmented) Append(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return 0, err
	}
	written := 0
	for len(p) > 0 {
		idx := s.size / s.segSize
		segOff := s.size % s.segSize
		seg := s.segs[idx]
		if seg == nil {
			sg, err := s.createSeg(idx)
			if err != nil {
				return written, err
			}
			s.segs[idx] = sg
			s.newSegs = true
			seg = sg
		}
		n := int(min(s.segSize-segOff, int64(len(p))))
		if err := seg.writeAt(p[:n], segOff); err != nil {
			return written, err
		}
		s.size += int64(n)
		written += n
		p = p[n:]
	}
	s.stats.Appends.Inc()
	s.stats.BytesWritten.Add(int64(written))
	return written, nil
}

// Sync implements Device. Durability covers exactly the bytes appended
// before the call: the target is captured first, so appends racing a
// slow sync are not published early (they pay for the next sync).
//
// A batch that stays inside one existing segment — the steady state —
// costs one fsync: the segment's harden persists the bytes and the
// watermark slot that covers them together. A batch that spans segments
// fsyncs the earlier ones first, and a batch that created segment files
// fsyncs the directory first, so by the time the slot is written
// everything below it is already on stable storage; the slot-carrying
// fsync is the commit point.
func (s *Segmented) Sync() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	if err := s.writable(); err != nil {
		s.mu.Unlock()
		return err
	}
	from, target := s.durable, s.size
	newSegs := s.newSegs
	s.newSegs = false
	var dirtyBuf [4]*fileSegment
	dirty := dirtyBuf[:0]
	if target > from {
		for idx := from / s.segSize; idx*s.segSize < target; idx++ {
			dirty = append(dirty, s.segs[idx])
		}
	}
	s.mu.Unlock()

	start := time.Now()
	s.profile.simulateSync(target - from)
	if err := s.hardenBatch(dirty, newSegs, from, target); err != nil {
		if newSegs {
			// Re-arm the metadata sync so the next Sync retries the
			// directory fsync.
			s.mu.Lock()
			s.newSegs = true
			s.mu.Unlock()
		}
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if target > s.durable {
		s.durable = target
	}
	s.stats.Syncs.Inc()
	s.stats.SyncTime.Observe(time.Since(start))
	return nil
}

// hardenBatch makes the batch [from, target), held by the segments in
// dirty (in order), durable in the order Sync's comment gives.
func (s *Segmented) hardenBatch(dirty []*fileSegment, newSegs bool, from, target int64) error {
	var last *fileSegment
	if n := len(dirty); n > 0 {
		dirty, last = dirty[:n-1], dirty[n-1]
	}
	for _, seg := range dirty {
		if err := seg.sync(); err != nil {
			return err
		}
	}
	if newSegs {
		// New segment files' directory entries must be durable before
		// the bytes inside them are acknowledged: fsync of a file does
		// not persist its dentry.
		if err := s.syncDir(); err != nil {
			return err
		}
	}
	if last == nil {
		return nil
	}
	return last.harden(from, target)
}

// DurableSize implements Device. The size is logical: it includes the
// recycled prefix, so LSNs stay stable across truncation.
func (s *Segmented) DurableSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable
}

// ReadAt implements Device over the live segments. Offsets below the
// truncation horizon are gone and return an error.
func (s *Segmented) ReadAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("logdev: negative offset %d", off)
	}
	if off < s.lowRead {
		s.lowRead = off
	}
	if off < s.base {
		return 0, fmt.Errorf("logdev: offset %d below truncation base %d", off, s.base)
	}
	return s.readLocked(p, off)
}

// RawReadAt reads the durable prefix ignoring the truncation horizon:
// offsets below Base() are served while a segment file still holds them.
// Restore-on-demand uses it to stitch archived history to the hot log;
// recovery never does (it must prove it reads only the live tail).
func (s *Segmented) RawReadAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("logdev: negative offset %d", off)
	}
	return s.readLocked(p, off)
}

// readLocked serves a read from the segment files. Caller holds s.mu
// and has validated off against its chosen lower bound.
func (s *Segmented) readLocked(p []byte, off int64) (int, error) {
	if off >= s.durable {
		return 0, io.EOF
	}
	end := min(off+int64(len(p)), s.durable)
	n, err := s.readSegs(p[:end-off], off)
	if err == nil && n < len(p) {
		err = io.EOF
	}
	return n, err
}

// readSegs fills p with the log bytes at off from the segment files,
// whatever the durable end. Caller holds s.mu (or has exclusive access
// during the open).
func (s *Segmented) readSegs(p []byte, off int64) (int, error) {
	n := 0
	for n < len(p) {
		cur := off + int64(n)
		idx := cur / s.segSize
		segOff := cur % s.segSize
		chunk := int(min(s.segSize-segOff, int64(len(p)-n)))
		seg := s.segs[idx]
		if seg == nil {
			return n, fmt.Errorf("logdev: segment %d missing (holds offset %d)", idx, cur)
		}
		if err := seg.readAt(p[n:n+chunk], segOff); err != nil {
			return n, err
		}
		n += chunk
	}
	return n, nil
}

// Truncate implements Device: advance the horizon and record it in the
// manifest — whether or not a segment dies under it, so a reopen starts
// from it. With no cold store attached it then runs the drain
// (ArchivePending), also when the horizon did not move: a dead segment a
// crash left behind, or a power cut brought back, is recycled by the next
// truncation. With one attached, the cold tier runs the drain, shipping
// each dead segment before recycling it (archive-before-recycle).
// Callers are expected to serialize Truncate (the checkpointer does);
// Append/Sync/ReadAt stay concurrent — the manifest fsyncs and unlinks
// run outside the device mutex so the flush daemon never stalls behind
// a truncating checkpoint.
func (s *Segmented) Truncate(before int64) error {
	s.mu.Lock()
	if err := s.writable(); err != nil {
		s.mu.Unlock()
		return err
	}
	before = max(min(before, s.durable), s.base)
	advance := before > s.base
	drain := s.archiver == nil
	s.mu.Unlock()

	if advance {
		// Persist the horizon before anything below it is recycled: a
		// crash in between finds a manifest that already points past
		// every segment the drain was about to drop, and a reopen — after
		// a crash or a clean Close — starts its recovery scan at the last
		// checkpoint's horizon, not at wherever a segment boundary last
		// fell. Truncate is called once per checkpoint; the manifest's
		// two fsyncs are on no commit's path.
		if err := writeManifest(s.fs, s.dir, s.segSize, before); err != nil {
			return err
		}
	}
	var err error
	if drain {
		s.archMu.Lock()
		_, err = s.drainLocked(before)
		s.archMu.Unlock()
	}
	if advance {
		// The horizon is published once the segments below it are gone,
		// so Base never runs ahead of the recycling it stands for.
		s.mu.Lock()
		s.truncatedBytes += before - s.base
		s.base = before
		s.mu.Unlock()
	}
	return err
}

// SetArchiver attaches cold storage for dead segments: from now on
// Truncate leaves them to ArchivePending, which ships them to a before
// recycling them. Attach the archiver right after Open, before the first
// Truncate; a nil a detaches it.
func (s *Segmented) SetArchiver(a *RemoteArchiver) {
	s.mu.Lock()
	s.archiver = a
	s.mu.Unlock()
}

// ArchivePending is the drain: it recycles every dead segment, in logical
// order, copying each to the archiver first when one is attached
// (durably — Archive must not return before its bytes are safe). A
// failed archive stops the drain with the segment still on disk: its
// slot is never reused until cold storage holds its history. Unlinks are
// not made durable: a power cut may bring a recycled segment back, dead,
// and the next drain recycles it again. Safe to call concurrently with
// appends, syncs and truncations; passes serialize among themselves. It
// returns how many segments it archived.
func (s *Segmented) ArchivePending() (int, error) {
	s.archMu.Lock()
	defer s.archMu.Unlock()
	return s.drainLocked(s.Base())
}

// drainLocked is the drain of the segments dead under horizon (at or
// above the base); caller holds s.archMu.
func (s *Segmented) drainLocked(horizon int64) (int, error) {
	s.mu.Lock()
	if err := s.writable(); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	arch := s.archiver
	dead := s.deadLocked(horizon)
	segs := make([]*fileSegment, len(dead))
	for i, idx := range dead {
		segs[i] = s.segs[idx]
	}
	s.mu.Unlock()

	archived := 0
	for i, idx := range dead {
		if arch != nil {
			data := make([]byte, s.segSize)
			if err := segs[i].readAt(data, 0); err != nil {
				return archived, fmt.Errorf("logdev: read dead segment %d: %w", idx, err)
			}
			if err := arch.Archive(idx, data); err != nil {
				// Cold storage is down: the segment stays on disk.
				// Recycling without the archive would erase the only
				// copy of its history.
				return archived, err
			}
		}
		if err := s.removeSeg(idx, segs[i]); err != nil {
			return archived, err
		}
		s.mu.Lock()
		delete(s.segs, idx)
		s.truncatedSegments++
		if arch != nil {
			s.archivedSegments++
			archived++
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			break
		}
	}
	return archived, nil
}

// PendingArchive lists the dead segments still on disk, waiting for the
// drain, in logical order. Tests and logdump use it to prove no slot is
// reused before its history reaches cold storage.
func (s *Segmented) PendingArchive() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadLocked(s.base)
}

// ArchivedSegments returns how many dead segments ArchivePending has
// shipped to cold storage over the device's lifetime.
func (s *Segmented) ArchivedSegments() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.archivedSegments
}

// SlotReports returns every segment file's header — live and dead
// segments alike, torn ones included — as OpenSegmentedDirRO judged it,
// in logical order: which slots were written whole, what they claim,
// whether the bytes they cover check out, and which one the durable
// horizon was taken from (none when it is the truncation base). nil for
// any other kind of open.
func (s *Segmented) SlotReports() []SegmentSlots { return s.openSlots }

// RepairedTailBytes returns how many torn-tail bytes OpenSegmentedDir
// discarded when it clamped the log to the durable watermark (0 for a
// clean open).
func (s *Segmented) RepairedTailBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repairedTail
}

// closeSegmentsLocked closes every open segment. Caller holds s.mu (or
// has exclusive access during construction).
func (s *Segmented) closeSegmentsLocked() {
	for _, seg := range s.segs {
		seg.f.Close()
	}
}

// Close implements Device.
func (s *Segmented) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.closeSegmentsLocked()
	return nil
}

// Stats implements Device.
func (s *Segmented) Stats() *Stats { return &s.stats }
