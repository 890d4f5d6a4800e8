package logdev

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Every segment file starts with a fixed header that holds the durable
// watermark: how many logical log bytes completed Syncs cover. It is
// what lets Open tell a torn tail (bytes a crash persisted without a
// completed Sync — repairable by clamping to the watermark) from real
// mid-log corruption (bytes the watermark covers but the files no
// longer hold — fatal). Keeping it inside the segment is what makes a
// commit one fsync: Sync writes a slot into the segment holding the
// batch's last byte and fsyncs that file once, data and watermark
// together.
//
// The price is that nothing orders the slot after the data on the way
// to the platter, so the order is established by verification instead:
// each slot records the range of bytes its Sync added to the segment
// and their CRC-32C, and a reopen believes a slot only if those bytes
// are in the file and match (admissible). The CRC is taken from the
// bytes Append was handed, as it writes them (Segmented.runs), so a
// harden writes and fsyncs and reads nothing back; only a reopen reads
// the covered bytes, to check them. The slot knows nothing of records:
// what the log's own seals vouch for is logrec's business, and a seal
// mismatch below the watermark is corruption recovery reports. A slot that reached the disk
// ahead of its data is rejected, and the watermark falls back to the
// previous slot — written by the previous Sync, fully fsynced before
// this one began, and never overwritten by it, because the two slots of
// a header are written alternately (ping-pong) and a new segment's
// first Sync leaves the previous segment's header alone.
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
	wmSlotSize   = 28
	wmMagic      = 0x4d574541 // "AEWM", little-endian
)

var wmCRC = crc32.MakeTable(crc32.Castagnoli)

// wmSlot is one durable-watermark record. On disk, little-endian:
// magic u32 | Durable i64 | From i64 | DataCRC u32 | CRC-32C of the
// preceding 24 bytes.
type wmSlot struct {
	// Durable is the watermark: the log is durable through this logical
	// offset, which lies in the slot's own segment (or at its end).
	Durable int64
	// From is where the Sync that wrote the slot started in this
	// segment: it added the bytes [From, Durable).
	From int64
	// DataCRC is the CRC-32C of those bytes, as they were appended.
	DataCRC uint32
}

// encode fills dst[:wmSlotSize].
func (w wmSlot) encode(dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], wmMagic)
	binary.LittleEndian.PutUint64(dst[4:12], uint64(w.Durable))
	binary.LittleEndian.PutUint64(dst[12:20], uint64(w.From))
	binary.LittleEndian.PutUint32(dst[20:24], w.DataCRC)
	binary.LittleEndian.PutUint32(dst[24:28], crc32.Checksum(dst[0:24], wmCRC))
}

// decodeWMSlot parses src[:wmSlotSize]; ok is false unless the slot was
// written whole (magic and slot CRC verify).
func decodeWMSlot(src []byte) (w wmSlot, ok bool) {
	if binary.LittleEndian.Uint32(src[0:4]) != wmMagic ||
		crc32.Checksum(src[0:24], wmCRC) != binary.LittleEndian.Uint32(src[24:28]) {
		return wmSlot{}, false
	}
	return wmSlot{
		Durable: int64(binary.LittleEndian.Uint64(src[4:12])),
		From:    int64(binary.LittleEndian.Uint64(src[12:20])),
		DataCRC: binary.LittleEndian.Uint32(src[20:24]),
	}, true
}

// crcRange returns the CRC-32C of n bytes of f starting at off, reading
// through buf — what a reopen checks a slot's DataCRC against. Short
// files are an error: the caller asked for bytes that must exist.
func crcRange(f io.ReaderAt, off, n int64, buf []byte) (uint32, error) {
	var crc uint32
	for n > 0 {
		chunk := buf
		if int64(len(chunk)) > n {
			chunk = chunk[:n]
		}
		if got, err := f.ReadAt(chunk, off); got < len(chunk) {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		crc = crc32.Update(crc, wmCRC, chunk)
		off += int64(len(chunk))
		n -= int64(len(chunk))
	}
	return crc, nil
}

// admissible reports whether w proves the log durable through w.Durable
// for the segment that starts at logical offset segStart and currently
// holds have data bytes readable through data (data offset 0 is the
// segment's first log byte): the covered range lies inside the segment,
// the file is long enough, and the covered bytes match the recorded
// CRC. An I/O error reads as "not proven".
func (w wmSlot) admissible(segStart, segSize, have int64, data io.ReaderAt, buf []byte) bool {
	if w.From < segStart || w.From > w.Durable || w.Durable > segStart+segSize {
		return false
	}
	if w.Durable-segStart > have {
		return false
	}
	crc, err := crcRange(data, w.From-segStart, w.Durable-w.From, buf)
	return err == nil && crc == w.DataCRC
}

// SlotReport is one header slot as a reopen judges it — logdump prints
// these so a dead directory explains its own durable horizon.
type SlotReport struct {
	// Written is true when the slot's own CRC verifies: some Sync wrote
	// it whole. The remaining fields are meaningful only then.
	Written bool
	// Durable and From are the slot's watermark and the start of the
	// byte range [From, Durable) its Sync added to the segment.
	Durable, From int64
	// DataOK is true when the covered bytes are in the file and match
	// the slot's data CRC — the slot is admissible.
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

// dataReader presents a segment file's log bytes (past the header) as
// an io.ReaderAt.
type dataReader struct{ f io.ReaderAt }

// ReadAt implements io.ReaderAt over the log bytes.
func (r dataReader) ReadAt(p []byte, off int64) (int, error) {
	return r.f.ReadAt(p, SegmentHeaderSize+off)
}

// inspectHeader reads f's header and judges both slots against the
// have data bytes the file holds.
func inspectHeader(f io.ReaderAt, idx, segSize, have int64, buf []byte) (SegmentSlots, error) {
	rep := SegmentSlots{Index: idx}
	var hdr [SegmentHeaderSize]byte
	// A file shorter than its header (created, never synced) reads as
	// zeros: no slot written.
	if _, err := f.ReadAt(hdr[:], 0); err != nil && err != io.EOF {
		return rep, fmt.Errorf("logdev: read segment %d header: %w", idx, err)
	}
	for i := range rep.Slots {
		w, ok := decodeWMSlot(hdr[i*wmSlotStride:])
		if !ok {
			continue
		}
		rep.Slots[i] = SlotReport{
			Written: true,
			Durable: w.Durable,
			From:    w.From,
			DataOK:  w.admissible(idx*segSize, segSize, have, dataReader{f}, buf),
		}
	}
	return rep, nil
}
