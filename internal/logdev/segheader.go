package logdev

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"aether/internal/logrec"
	"aether/internal/lsn"
)

// Every segment file starts with a fixed header that holds the durable
// watermark: how many logical log bytes completed Syncs cover. It is
// what lets Open tell a torn tail (bytes a crash persisted without a
// completed Sync — repairable by clamping to the watermark) from real
// mid-log corruption (bytes a completed Sync made durable but the files
// no longer hold — fatal). Keeping it inside the segment is what makes a
// commit one fsync: Sync writes a slot into the segment holding the
// batch's last byte and fsyncs that file once, data and watermark
// together.
//
// The price is that nothing orders the slot after the data on the way
// to the platter, so the order is established by verification instead:
// each slot records where the Sync that wrote it began — the previous
// durable end, a seal's end, in this segment or an earlier one — and a
// reopen believes a slot only if the log's own seals (logrec.Verify)
// vouch for every byte from there, or from the truncation base if that
// is higher, to the slot's watermark (admissible). The seals are the
// one checksum of a lane's bytes: the flush daemon computes each once,
// so a harden writes and fsyncs and reads nothing back, and only a
// reopen reads the covered bytes, to check them. A Sync's bytes must
// therefore end in a seal, or no reopen admits its slot. A slot that
// reached the disk ahead of its data reads as a clean end or a gap
// before its watermark and is rejected, and the watermark falls back to
// the previous slot — written by the previous Sync, fully fsynced
// before this one began, and never overwritten by it, because the two
// slots of a header are written alternately (ping-pong) and a new
// segment's first Sync leaves the previous segment's header alone.
//
// The header is invisible above fileSegment: data offset 0 is file
// offset SegmentHeaderSize, so reads, trims, archiving and restore see only
// log bytes.
const (
	// SegmentHeaderSize is how many bytes of a segment file precede its
	// log bytes; the watermark slots live there.
	SegmentHeaderSize = 4096
	wmSlots           = 2
	// wmSlotStride separates the slots by more than any sector size, so
	// a torn write of one can never damage the other.
	wmSlotStride = SegmentHeaderSize / wmSlots
	wmSlotSize   = 24
	wmMagic      = 0x4d574541 // "AEWM", little-endian
)

var wmCRC = crc32.MakeTable(crc32.Castagnoli)

// wmSlot is one durable-watermark record. On disk, little-endian:
// magic u32 | Durable i64 | From i64 | CRC-32C of the preceding 20
// bytes.
type wmSlot struct {
	// Durable is the watermark: the log is durable through this logical
	// offset, which lies in the slot's own segment (or at its end).
	Durable int64
	// From is where the Sync that wrote the slot began: the durable end
	// before it. The Sync added the bytes [From, Durable), which may
	// begin in an earlier segment.
	From int64
}

// encode fills dst[:wmSlotSize].
func (w wmSlot) encode(dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], wmMagic)
	binary.LittleEndian.PutUint64(dst[4:12], uint64(w.Durable))
	binary.LittleEndian.PutUint64(dst[12:20], uint64(w.From))
	binary.LittleEndian.PutUint32(dst[20:24], crc32.Checksum(dst[0:20], wmCRC))
}

// decodeWMSlot parses src[:wmSlotSize]; ok is false unless the slot was
// written whole (magic and slot CRC verify).
func decodeWMSlot(src []byte) (w wmSlot, ok bool) {
	if binary.LittleEndian.Uint32(src[0:4]) != wmMagic ||
		crc32.Checksum(src[0:20], wmCRC) != binary.LittleEndian.Uint32(src[20:24]) {
		return wmSlot{}, false
	}
	return wmSlot{
		Durable: int64(binary.LittleEndian.Uint64(src[4:12])),
		From:    int64(binary.LittleEndian.Uint64(src[12:20])),
	}, true
}

// readLogFunc reads the log bytes [off, off+len(p)) from the segment
// files into p, as Segmented.readSegs does: zeros where a file ends
// early, an error where a segment the range needs is missing.
type readLogFunc func(p []byte, off int64) (int, error)

// admissible reports whether w, a whole slot of the segment that starts
// at logical offset segStart, proves the log durable through w.Durable
// above the truncation base: its range is sane (From at or below
// Durable, Durable inside the segment or at its end), and the seals
// vouch for every byte of [max(From, base), Durable), read through read
// into *buf (grown as needed). A batch a crash tore, cut short or never
// wrote reads as a gap or a clean end before Durable; an I/O error
// reads as "not proven".
func (w wmSlot) admissible(segStart, segSize, base int64, read readLogFunc, buf *[]byte) bool {
	if w.From < 0 || w.From > w.Durable || w.Durable <= segStart || w.Durable > segStart+segSize {
		return false
	}
	lo := max(w.From, base)
	if lo >= w.Durable {
		return true // nothing above the base to vouch for
	}
	n := int(w.Durable - lo)
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	p := (*buf)[:n]
	if _, err := read(p, lo); err != nil {
		return false
	}
	vouched, err := logrec.Verify(p, lsn.LSN(lo))
	return err == nil && vouched == n
}

// SlotReport is one header slot as a reopen judges it — logdump prints
// these so a dead directory explains its own durable horizon.
type SlotReport struct {
	// Written is true when the slot's own CRC verifies: some Sync wrote
	// it whole. The remaining fields are meaningful only then.
	Written bool
	// Durable and From are the slot's watermark and the start of the
	// byte range [From, Durable) its Sync added to the log.
	Durable, From int64
	// DataOK is true when the slot is admissible: the seals vouch for
	// every covered byte above the truncation base.
	DataOK bool
	// Admitted marks the slot open took the durable horizon from: the
	// highest admissible one at or above the truncation base.
	Admitted bool
}

// SegmentSlots is the header of one segment file.
type SegmentSlots struct {
	// Index is the segment's position in the logical stream.
	Index int64
	// Slots are the two ping-pong watermark slots.
	Slots [wmSlots]SlotReport
}

// readHeader reads f's header: which slots of segment idx some Sync
// wrote whole, and what they say, not yet judged.
func readHeader(f io.ReaderAt, idx int64) (SegmentSlots, error) {
	rep := SegmentSlots{Index: idx}
	var hdr [SegmentHeaderSize]byte
	// A file shorter than its header (created, never synced) reads as
	// zeros: no slot written.
	if _, err := f.ReadAt(hdr[:], 0); err != nil && err != io.EOF {
		return rep, fmt.Errorf("logdev: read segment %d header: %w", idx, err)
	}
	for i := range rep.Slots {
		if w, ok := decodeWMSlot(hdr[i*wmSlotStride:]); ok {
			rep.Slots[i] = SlotReport{Written: true, Durable: w.Durable, From: w.From}
		}
	}
	return rep, nil
}

// inspectHeader reads f's header and judges both slots of segment idx,
// reading the log bytes they cover through read.
func inspectHeader(f io.ReaderAt, idx, segSize, base int64, read readLogFunc, buf *[]byte) (SegmentSlots, error) {
	rep, err := readHeader(f, idx)
	for i := range rep.Slots {
		if sl := &rep.Slots[i]; sl.Written {
			sl.DataOK = wmSlot{Durable: sl.Durable, From: sl.From}.admissible(idx*segSize, segSize, base, read, buf)
		}
	}
	return rep, err
}
