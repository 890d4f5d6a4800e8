// remoteobj.go defines the on-wire formats of the remote log tier's two
// object kinds and their decoders. Every object starts with a fixed
// self-validating envelope (magic, kind, meta, payload CRC-32C), so a
// torn upload — the store kept a prefix, the client saw an error — is
// detected on read and treated as if the object were absent. The
// decoders are the fuzz surface: a corrupt or truncated object must fail
// loudly, never misdirect replay (FuzzRemoteObject).
//
// Object kinds:
//
//	segment   one archived log segment, payload = the segment's bytes;
//	          written once and never rewritten until retention deletes it
//	snapshot  a materialized restore base at a log cut: page images plus
//	          the undo stash of transactions straddling the cut
//
// Kind 2 is retired: it never decodes (ErrBadObject).
package logdev

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Object kinds carried in the envelope.
const (
	// ObjSegment is an archived log segment.
	ObjSegment = uint16(1)
	// ObjSnapshot is a materialized point-in-time restore base.
	ObjSnapshot = uint16(3)
)

const (
	objMagic = "AEOB"
	// objVersion names the envelope and what its payloads hold: a
	// segment object is log bytes and a snapshot's stash is update
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
// meta is kind-specific: the segment index or the snapshot's cut LSN.
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
// kind, meta and payload. Any mismatch — short buffer, wrong magic, a
// kind other than segment or snapshot, truncated or corrupt payload —
// returns ErrBadObject.
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
	if kind != ObjSegment && kind != ObjSnapshot {
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
