// remoteobj.go defines the on-wire formats of the remote log tier's
// three object kinds and their decoders. Every object starts with a
// fixed self-validating envelope (magic, kind, meta, payload CRC-32C),
// so a torn upload — the store kept a prefix, the client saw an error —
// is detected on read and treated as if the object were absent. The
// decoders are the fuzz surface: a corrupt or truncated index must fail
// loudly, never misdirect replay (FuzzCompactedIndex).
//
// Object kinds:
//
//	segment   one raw log segment, payload = the segment's bytes
//	pack      many contiguous segments compacted into one immutable
//	          object: an index (idx, offset, length, CRC per segment)
//	          followed by the concatenated segment bytes
//	snapshot  a materialized restore base at a log cut: page images plus
//	          the undo stash of transactions straddling the cut
package logdev

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Object kinds carried in the envelope.
const (
	// ObjSegment is a raw archived log segment.
	ObjSegment = uint16(1)
	// ObjPack is a compacted run of contiguous segments with an index.
	ObjPack = uint16(2)
	// ObjSnapshot is a materialized point-in-time restore base.
	ObjSnapshot = uint16(3)
)

const (
	objMagic = "AEOB"
	// objVersion names the envelope and what its payloads hold: segment
	// and pack objects are log bytes and a snapshot's stash is update
	// payloads, so the version moves with the log's record encoding
	// (2 = MANIFEST format 3's). An object of another version is refused,
	// never handed to a decoder of the wrong encoding.
	objVersion = uint16(2)
	// envelopeSize is the fixed header before the payload:
	// magic(4) version(2) kind(2) meta(8) payloadLen(4) crc(4).
	envelopeSize = 24
)

var remoteCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrBadObject reports an object that failed envelope or payload
// validation — torn, corrupt, or not a remote-tier object at all.
var ErrBadObject = errors.New("logdev: bad remote object")

// EncodeObject wraps payload in the self-validating envelope.
// meta is kind-specific: the segment index, the pack's first segment
// index, or the snapshot's cut LSN.
func EncodeObject(kind uint16, meta uint64, payload []byte) []byte {
	buf := make([]byte, envelopeSize+len(payload))
	copy(buf[0:4], objMagic)
	binary.LittleEndian.PutUint16(buf[4:6], objVersion)
	binary.LittleEndian.PutUint16(buf[6:8], kind)
	binary.LittleEndian.PutUint64(buf[8:16], meta)
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[20:24], crc32.Checksum(payload, remoteCRC))
	copy(buf[envelopeSize:], payload)
	return buf
}

// DecodeObject validates the envelope and payload CRC and returns the
// kind, meta and payload. Any mismatch — short buffer, wrong magic,
// truncated or corrupt payload — returns ErrBadObject.
func DecodeObject(data []byte) (kind uint16, meta uint64, payload []byte, err error) {
	if len(data) < envelopeSize {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes, need %d for envelope", ErrBadObject, len(data), envelopeSize)
	}
	if string(data[0:4]) != objMagic {
		return 0, 0, nil, fmt.Errorf("%w: bad magic", ErrBadObject)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != objVersion {
		return 0, 0, nil, fmt.Errorf("%w: object version %d, this version reads %d (%w)", ErrBadObject, v, objVersion, ErrFormat)
	}
	kind = binary.LittleEndian.Uint16(data[6:8])
	if kind != ObjSegment && kind != ObjPack && kind != ObjSnapshot {
		return 0, 0, nil, fmt.Errorf("%w: kind %d", ErrBadObject, kind)
	}
	meta = binary.LittleEndian.Uint64(data[8:16])
	plen := binary.LittleEndian.Uint32(data[16:20])
	if uint64(plen) != uint64(len(data)-envelopeSize) {
		return 0, 0, nil, fmt.Errorf("%w: payload %d bytes, envelope says %d (torn upload?)", ErrBadObject, len(data)-envelopeSize, plen)
	}
	payload = data[envelopeSize:]
	if crc := crc32.Checksum(payload, remoteCRC); crc != binary.LittleEndian.Uint32(data[20:24]) {
		return 0, 0, nil, fmt.Errorf("%w: payload checksum mismatch", ErrBadObject)
	}
	return kind, meta, payload, nil
}

// PackEntry locates one segment inside a pack object's payload.
type PackEntry struct {
	// Idx is the segment index (byte offset / segment size in the log).
	Idx int64
	// Off is the segment's byte offset within the pack payload, after
	// the index block.
	Off uint32
	// Len is the segment's length in bytes.
	Len uint32
	// CRC is the CRC-32C of the segment's bytes.
	CRC uint32
}

// packEntrySize is idx(8) off(4) len(4) crc(4).
const packEntrySize = 20

// maxPackEntries bounds index decode so a corrupt count cannot drive a
// huge allocation; 1<<20 segments per pack is far beyond any real pack.
const maxPackEntries = 1 << 20

// EncodePack builds a pack payload: a count-prefixed index followed by
// the concatenated segment bytes. Entries must be contiguous ascending
// segment indexes; segs[i] is the raw bytes of the i-th segment.
func EncodePack(first int64, segs [][]byte) []byte {
	n := len(segs)
	size := 4 + n*packEntrySize
	for _, s := range segs {
		size += len(s)
	}
	buf := make([]byte, 4, size)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(n))
	off := uint32(0)
	for i, s := range segs {
		var e [packEntrySize]byte
		binary.LittleEndian.PutUint64(e[0:8], uint64(first+int64(i)))
		binary.LittleEndian.PutUint32(e[8:12], off)
		binary.LittleEndian.PutUint32(e[12:16], uint32(len(s)))
		binary.LittleEndian.PutUint32(e[16:20], crc32.Checksum(s, remoteCRC))
		buf = append(buf, e[:]...)
		off += uint32(len(s))
	}
	for _, s := range segs {
		buf = append(buf, s...)
	}
	return buf
}

// DecodePackIndex parses and validates a pack payload's index. It
// checks the count bound, ascending contiguous segment indexes, exact
// offset packing (entry i starts where i-1 ended) and that the data
// area's size matches the index exactly — so a truncated or bit-flipped
// index can never map a segment to the wrong bytes. The segment bytes
// themselves are CRC-checked by PackSegment on extraction.
func DecodePackIndex(payload []byte) ([]PackEntry, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: pack payload too short for index count", ErrBadObject)
	}
	n := binary.LittleEndian.Uint32(payload[0:4])
	if n == 0 || n > maxPackEntries {
		return nil, fmt.Errorf("%w: pack index count %d out of range", ErrBadObject, n)
	}
	idxEnd := 4 + int(n)*packEntrySize
	if len(payload) < idxEnd {
		return nil, fmt.Errorf("%w: pack payload %d bytes, index needs %d", ErrBadObject, len(payload), idxEnd)
	}
	dataLen := uint64(len(payload) - idxEnd)
	entries := make([]PackEntry, n)
	var next uint64
	for i := range entries {
		e := payload[4+i*packEntrySize:]
		entries[i] = PackEntry{
			Idx: int64(binary.LittleEndian.Uint64(e[0:8])),
			Off: binary.LittleEndian.Uint32(e[8:12]),
			Len: binary.LittleEndian.Uint32(e[12:16]),
			CRC: binary.LittleEndian.Uint32(e[16:20]),
		}
		if entries[i].Idx < 0 {
			return nil, fmt.Errorf("%w: pack entry %d: negative segment index", ErrBadObject, i)
		}
		if i > 0 && entries[i].Idx != entries[i-1].Idx+1 {
			return nil, fmt.Errorf("%w: pack entry %d: segment %d does not follow %d", ErrBadObject, i, entries[i].Idx, entries[i-1].Idx)
		}
		if uint64(entries[i].Off) != next {
			return nil, fmt.Errorf("%w: pack entry %d: offset %d, expected %d", ErrBadObject, i, entries[i].Off, next)
		}
		next += uint64(entries[i].Len)
		if next > dataLen {
			return nil, fmt.Errorf("%w: pack entry %d overruns data area (%d > %d)", ErrBadObject, i, next, dataLen)
		}
	}
	if next != dataLen {
		return nil, fmt.Errorf("%w: pack data area %d bytes, index covers %d", ErrBadObject, dataLen, next)
	}
	return entries, nil
}

// PackSegment extracts and CRC-verifies one segment from a pack
// payload previously validated by DecodePackIndex.
func PackSegment(payload []byte, entries []PackEntry, i int) ([]byte, error) {
	base := 4 + len(entries)*packEntrySize
	e := entries[i]
	seg := payload[base+int(e.Off) : base+int(e.Off)+int(e.Len)]
	if crc := crc32.Checksum(seg, remoteCRC); crc != e.CRC {
		return nil, fmt.Errorf("%w: segment %d checksum mismatch inside pack", ErrBadObject, e.Idx)
	}
	return seg, nil
}

// SnapshotPage is one materialized page image in a snapshot object.
type SnapshotPage struct {
	// PID is the page identifier.
	PID uint64
	// Image is the page's serialized bytes as of the snapshot cut.
	Image []byte
}

// SnapshotStashRec is one not-yet-compensated update of a transaction
// that straddles the snapshot cut: everything point-in-time restore
// needs to undo it (its position for ordering, its page, and its update
// payload whose before-image yields the inverse).
type SnapshotStashRec struct {
	// TxnID is the straddling transaction.
	TxnID uint64
	// At is the update record's LSN (single log) or seq (partitioned) —
	// the global undo order key.
	At uint64
	// PageID is the page the update touched.
	PageID uint64
	// Payload is the update record's encoded payload.
	Payload []byte
}

// Snapshot is a decoded snapshot object: replaying the log from Cut on
// top of Pages reproduces any later point; Stash carries the undo
// information for transactions still in flight at Cut.
type Snapshot struct {
	// Cut is the log offset (single log) or global seq (partitioned) up
	// to which Pages already reflect the log.
	Cut uint64
	// Pages are the materialized page images as of Cut.
	Pages []SnapshotPage
	// Stash lists the un-compensated updates of transactions that were
	// in flight at Cut, in ascending At order.
	Stash []SnapshotStashRec
}

// maxSnapshotItems bounds decode-side allocations for page and stash
// counts in the face of corrupt headers.
const maxSnapshotItems = 1 << 24

// EncodeSnapshot serializes a snapshot into an object payload.
func EncodeSnapshot(s *Snapshot) []byte {
	size := 8 + 4 + 4
	for _, p := range s.Pages {
		size += 12 + len(p.Image)
	}
	for _, r := range s.Stash {
		size += 28 + len(r.Payload)
	}
	buf := make([]byte, 0, size)
	var u64 [8]byte
	var u32 [4]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(u64[:], v)
		buf = append(buf, u64[:]...)
	}
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		buf = append(buf, u32[:]...)
	}
	put64(s.Cut)
	put32(uint32(len(s.Pages)))
	for _, p := range s.Pages {
		put64(p.PID)
		put32(uint32(len(p.Image)))
		buf = append(buf, p.Image...)
	}
	put32(uint32(len(s.Stash)))
	for _, r := range s.Stash {
		put64(r.TxnID)
		put64(r.At)
		put64(r.PageID)
		put32(uint32(len(r.Payload)))
		buf = append(buf, r.Payload...)
	}
	return buf
}

// DecodeSnapshot parses a snapshot payload, validating every length
// against the remaining buffer so truncation fails loudly.
func DecodeSnapshot(payload []byte) (*Snapshot, error) {
	pos := 0
	need := func(n int) error {
		if len(payload)-pos < n {
			return fmt.Errorf("%w: snapshot truncated at offset %d (need %d more bytes)", ErrBadObject, pos, n)
		}
		return nil
	}
	get64 := func() uint64 {
		v := binary.LittleEndian.Uint64(payload[pos:])
		pos += 8
		return v
	}
	get32 := func() uint32 {
		v := binary.LittleEndian.Uint32(payload[pos:])
		pos += 4
		return v
	}
	if err := need(12); err != nil {
		return nil, err
	}
	s := &Snapshot{Cut: get64()}
	nPages := get32()
	if nPages > maxSnapshotItems {
		return nil, fmt.Errorf("%w: snapshot page count %d out of range", ErrBadObject, nPages)
	}
	s.Pages = make([]SnapshotPage, 0, min(int(nPages), 1<<16))
	for i := uint32(0); i < nPages; i++ {
		if err := need(12); err != nil {
			return nil, err
		}
		pid := get64()
		ilen := get32()
		if err := need(int(ilen)); err != nil {
			return nil, err
		}
		s.Pages = append(s.Pages, SnapshotPage{PID: pid, Image: payload[pos : pos+int(ilen)]})
		pos += int(ilen)
	}
	if err := need(4); err != nil {
		return nil, err
	}
	nStash := get32()
	if nStash > maxSnapshotItems {
		return nil, fmt.Errorf("%w: snapshot stash count %d out of range", ErrBadObject, nStash)
	}
	s.Stash = make([]SnapshotStashRec, 0, min(int(nStash), 1<<16))
	var prevAt uint64
	for i := uint32(0); i < nStash; i++ {
		if err := need(28); err != nil {
			return nil, err
		}
		r := SnapshotStashRec{TxnID: get64(), At: get64(), PageID: get64()}
		plen := get32()
		if err := need(int(plen)); err != nil {
			return nil, err
		}
		r.Payload = payload[pos : pos+int(plen)]
		pos += int(plen)
		if i > 0 && r.At <= prevAt {
			return nil, fmt.Errorf("%w: snapshot stash not in ascending order at entry %d", ErrBadObject, i)
		}
		prevAt = r.At
		s.Stash = append(s.Stash, r)
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot", ErrBadObject, len(payload)-pos)
	}
	return s, nil
}
