// Package logrec defines the on-log record format shared by every log
// buffer variant, the flush daemon and ARIES recovery.
//
// A record is a frame (a varint length), one byte naming its kind and
// which header fields follow, those fields as varints, and an arbitrary
// payload — the composable shape the consolidation array exploits (§5.1:
// "two successive requests also begin with a log header and end with an
// arbitrary payload"). A field that holds its absent value costs no
// bytes, so a one-lane TPC-B commit record is 3 bytes where Shore-MT's
// smallest record is 48 (§A.3). No record points back at its
// transaction's previous one: a bit in the kind byte marks a
// transaction's first record (Header.First), and recovery collects a
// loser's records by reading forward from there. Only that first record
// names the transaction in full; it also names a one-byte slot
// (Header.Slot), which the transaction's later records carry in place
// of the ID and recovery maps back to it. An update's payload logs
// the bytes it changed once, as before ⊕ after (UpdatePayload), so a
// TPC-B balance update is 14 bytes.
//
// No record carries a checksum. The flush daemon closes every batch it
// hardens with a seal (PutSeal): a pad record whose Aux is the batch's
// length and whose payload is the batch's CRC-32C. The Iterator checks
// each batch against its seal before it yields any of the batch's
// records, so recovery stops at the first torn, missing or rotten byte —
// the paper's requirement that "recovery must stop at the first gap it
// encounters" — at the cost of one checksum per flush rather than one per
// record. ARCHITECTURE.md, "The log record", has the layout byte by byte.
package logrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"aether/internal/lsn"
)

// Kind enumerates the record types the storage manager and recovery use.
type Kind uint16

const (
	// KindInvalid marks an uninitialized record; it never appears on a
	// healthy log.
	KindInvalid Kind = iota
	// KindUpdate is a physiological page update carrying redo and undo
	// images.
	KindUpdate
	// KindCLR is a compensation log record written during rollback;
	// redo-only, with Aux holding the UndoNext LSN (plus one).
	KindCLR
	// KindCommit marks a transaction commit. A transaction is committed
	// iff its commit record is durable. It is never a transaction's
	// first record.
	KindCommit
	// KindAbort marks the start of a rollback decision.
	KindAbort
	// KindEnd marks a transaction fully finished (post-commit or
	// post-rollback bookkeeping done). Like a commit, it is never a
	// transaction's first record.
	KindEnd
	// KindCheckpointBegin opens a fuzzy checkpoint.
	KindCheckpointBegin
	// KindCheckpointEnd closes a fuzzy checkpoint; the payload carries
	// the active-transaction and dirty-page tables, and Aux points back
	// to the matching begin record.
	KindCheckpointEnd
	// KindPad fills space the microbenchmark and tests reserve without
	// semantic content; recovery skips it. A pad with an Aux is a seal
	// (PutSeal), which the Iterator checks and never yields.
	KindPad
	numKinds
)

var kindNames = [numKinds]string{
	"invalid", "update", "clr", "commit", "abort", "end",
	"ckpt-begin", "ckpt-end", "pad",
}

// String returns the kind's short name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
}

// Valid reports whether k is a known record kind other than KindInvalid.
func (k Kind) Valid() bool { return k > KindInvalid && k < numKinds }

// MinRecordSize is the smallest encoded record: a one-byte length and
// the kind byte of a record whose every other field is absent (a pad, a
// checkpoint-begin).
const MinRecordSize = 1 + 1

// MaxSlot is the largest slot (Header.Slot): a slot is one byte, a
// varint below 128.
const MaxSlot = 127

// MaxPayload bounds a single record's payload. Shore-MT's largest record
// is 12KiB; we allow up to 16MiB so the skew experiments (Fig. 11) can
// push outliers to 64KiB+ and beyond.
const MaxPayload = 16 << 20

const (
	// crcSize is a seal's payload: the CRC-32C of the batch it closes.
	crcSize = 4
	// maxLenSize is the widest length varint: every record is shorter
	// than 1<<28 bytes (checked below).
	maxLenSize = 4
	// maxHeaderSize is a header with every field present at its widest:
	// length, kind byte, TxnID and Aux at 10 bytes each, the slot at 1,
	// the page ID's 24-bit space and 40-bit number at 4 and 6, Seq at 5.
	maxHeaderSize = maxLenSize + 1 + 2*binary.MaxVarintLen64 + 1 + 4 + 6 + binary.MaxVarintLen32

	// The kind byte: the kind, less one, in the low three bits, the two
	// bits that say how the record names its transaction (see Header),
	// and one presence bit per optional field after those, in field
	// order.
	kindMask  = 0x07
	hasTxnID  = 0x08
	isFirst   = 0x10
	hasPageID = 0x20
	hasAux    = 0x40
	hasSeq    = 0x80

	// A page ID is logged as two varints split where storage.MakePageID
	// joins them — space above bit 40, page number below — because both
	// halves are small numbers and their concatenation is not.
	pageNoBits = 40
	pageNoMask = 1<<pageNoBits - 1
)

// The largest record's length fits a maxLenSize-byte varint.
const _ = uint(1<<(7*maxLenSize) - 1 - (maxHeaderSize + MaxPayload))

// Header is the preamble of every log record. The length is the frame;
// the rest is encoded only where it differs from its absent value.
//
// Layout, in order:
//
//	length   uvarint — the bytes after it: TotalLen less its own width,
//	                   at least MinRecordSize-1
//	kind byte        — Kind-1 in bits 0-2; bits 3 and 4 say how the
//	                   record names its transaction; bits 5, 6 and 7
//	                   say which of the three fields after that follow,
//	                   in this order
//	name             — by bits 3 and 4 (see below)
//	PageID   uvarint space, uvarint page number — absent = 0
//	Aux      uvarint — absent = 0
//	Seq      uvarint — absent = 0
//	payload          — the rest, up to TotalLen
//
// The name is one of four, by bits 3 (TxnID) and 4 (First):
//
//	both     — the transaction's first record: TxnID uvarint, then its
//	           Slot, 0 for none
//	bit 3    — a later record of a transaction with a slot: the Slot
//	           (1..MaxSlot) alone, and TxnID is 0 until recovery's
//	           LaneMerge resolves it
//	bit 4    — a later record of a transaction without one: TxnID
//	           uvarint
//	neither  — no transaction
//
// Varints are encoding/binary's, in their shortest form only; a present
// field never holds its absent value, and First is set only on a
// record with a TxnID that is not a commit or an end; a pad with an Aux
// is a seal, with nothing but its Aux and a 4-byte payload. Flags is not
// logged: the kind implies it. So a record has exactly one encoding, and
// Decode accepts nothing else. (A later record with a Slot encodes the
// slot alone, whatever its TxnID: the writer knows both.) Because the
// length counts only what follows it, a length of 127 makes a 128-byte
// record and one of 128 a 130-byte record: no record is 129 bytes long,
// nor 16 386 or 2 097 155 (see NewPad).
type Header struct {
	// TotalLen is the record's full encoded length: header + payload.
	TotalLen uint32
	// Kind discriminates the record type (update, commit, CLR, ...).
	Kind Kind
	// Flags holds the Flag* bits the kind implies (FlagRedoOnly on CLRs,
	// none elsewhere); encoding any other value is an error.
	Flags uint16
	// Seq is the record's global sequence stamp under partitioned
	// (multi-log) operation: a single counter shared by every log
	// partition, assigned in append order, so recovery can merge N logs
	// back into one redo order. One-lane databases leave it 0, which
	// costs no bytes.
	Seq uint32
	// TxnID is the owning transaction, 0 for system records. A record
	// decoded from the log that names its transaction by Slot alone
	// reads 0 here until LaneMerge resolves the slot.
	TxnID uint64
	// Slot is the one-byte name (1..MaxSlot) the transaction's agent
	// lends it, 0 for none. Its first record logs the binding — TxnID,
	// then Slot — and its later records log only the slot. A slot is
	// passed to another transaction only once its holder can log no
	// more, so read in log order the newest binding of a slot names the
	// record's transaction.
	Slot uint8
	// First marks the transaction's first record: where recovery starts
	// collecting a loser's updates, where analysis forgets an earlier
	// holder of the same ID, and where a slot is bound. It costs no
	// bytes of its own (a kind-byte bit), and a commit or end record
	// never carries it.
	First bool
	// PageID is the page the record touches, 0 if not page-related.
	PageID uint64
	// Aux is kind-specific: a CLR's UndoNextLSN plus one (Record.UndoNext),
	// a checkpoint-end's begin LSN, a multi-log update's previous page
	// seq, a seal's batch length.
	Aux uint64
}

// canBeFirst reports whether the record may carry First: it belongs to
// a transaction, and it is not a commit or an end, which only ever
// follow a transaction's other records.
func (h *Header) canBeFirst() bool {
	return h.TxnID != 0 && h.Kind != KindCommit && h.Kind != KindEnd
}

// flags returns the Flags value records of kind k carry.
func (k Kind) flags() uint16 {
	if k == KindCLR {
		return FlagRedoOnly
	}
	return 0
}

// uvarintLen returns how many bytes v takes as a varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// IsSeal reports whether the header is a seal's: a pad with an Aux.
func (h *Header) IsSeal() bool { return h.Kind == KindPad && h.Aux != 0 }

// sealShape reports whether a record with this header and a payload of n
// bytes is either no seal or a well-formed one: a seal carries its Aux
// and a CRC-32C, nothing else.
func (h *Header) sealShape(n int) bool {
	return !h.IsSeal() || n == crcSize && h.TxnID == 0 && h.Slot == 0 && h.PageID == 0 && h.Seq == 0
}

// nameSizes returns the encoded widths of the header's full TxnID and of
// its slot (see Header's layout).
func (h *Header) nameSizes() (id, slot int) {
	switch {
	case h.First:
		return uvarintLen(h.TxnID), 1
	case h.Slot != 0:
		return 0, 1
	case h.TxnID != 0:
		return uvarintLen(h.TxnID), 0
	}
	return 0, 0
}

// bodySize returns the encoded length of the header after the length
// varint: the kind byte and the fields present.
func (h *Header) bodySize() int {
	id, slot := h.nameSizes()
	n := 1 + id + slot
	if h.PageID != 0 {
		n += uvarintLen(h.PageID>>pageNoBits) + uvarintLen(h.PageID&pageNoMask)
	}
	if h.Aux != 0 {
		n += uvarintLen(h.Aux)
	}
	if h.Seq != 0 {
		n += uvarintLen(uint64(h.Seq))
	}
	return n
}

// Sizes is a record's encoded length split into its parts, in bytes.
type Sizes struct {
	// Length is the length varint's width.
	Length int
	// Kind is the kind byte's width, 1.
	Kind int
	// TxnID is the full TxnID varint's width, 0 if the record names its
	// transaction by slot alone or has none.
	TxnID int
	// Slots is the slot's width: 1 on a first record and on a record
	// that names its transaction by slot, 0 elsewhere.
	Slots int
	// PageID is the width of the page ID's two varints, 0 if absent.
	PageID int
	// Aux is the Aux varint's width, 0 if absent.
	Aux int
	// Seq is the Seq varint's width, 0 if absent.
	Seq int
	// Payload is the payload's length.
	Payload int
}

// Sizes returns how the record's EncodedSize bytes divide among its
// parts.
func (r *Record) Sizes() Sizes {
	s := Sizes{Kind: 1, Payload: len(r.Payload)}
	s.TxnID, s.Slots = r.nameSizes()
	if r.PageID != 0 {
		s.PageID = uvarintLen(r.PageID>>pageNoBits) + uvarintLen(r.PageID&pageNoMask)
	}
	if r.Aux != 0 {
		s.Aux = uvarintLen(r.Aux)
	}
	if r.Seq != 0 {
		s.Seq = uvarintLen(uint64(r.Seq))
	}
	s.Length = uvarintLen(uint64(r.bodySize() + len(r.Payload)))
	return s
}

// Flag bits.
const (
	// FlagRedoOnly marks records that must not be undone (CLRs).
	FlagRedoOnly uint16 = 1 << iota
)

// Record is a decoded log record: header plus payload. The payload slice
// is owned by the record.
type Record struct {
	Header
	// LSN is the address the record was read from or inserted at. It is
	// not part of the encoding (the position implies it).
	LSN lsn.LSN
	// Payload is the kind-specific body (e.g. an encoded UpdatePayload).
	Payload []byte
}

// Errors returned by the decoder.
var (
	// ErrTooShort means the input cannot contain the smallest record or
	// the declared length.
	ErrTooShort = errors.New("logrec: input shorter than record")
	// ErrBadLength means the record's length is impossible: too small,
	// too large, or a varint longer than its value needs.
	ErrBadLength = errors.New("logrec: invalid record length")
	// ErrBadKind means an encode request named no known record kind (every
	// value of the kind byte's three bits is one, so Decode never says it).
	ErrBadKind = errors.New("logrec: invalid record kind")
	// ErrBadFlags means an encode request set Flags the kind does not
	// imply; they are not logged and would not come back.
	ErrBadFlags = errors.New("logrec: flags do not match record kind")
	// ErrBadFirst means an encode request marked as its transaction's
	// first a record that cannot be one: a commit, an end, or a record
	// with no TxnID. Decode refuses the mark there, so it would not come
	// back.
	ErrBadFirst = errors.New("logrec: only a transaction's update, CLR or abort can be its first record")
	// ErrBadSlot means an encode request named a slot above MaxSlot,
	// which does not fit its one byte.
	ErrBadSlot = errors.New("logrec: slot out of range")
	// ErrBadHeader means the bytes are not the one encoding of any
	// header: a field runs past TotalLen, a varint is longer than its
	// value needs or overflows its field, a field marked present holds
	// its absent value or a slot lies outside its range, a record that
	// cannot be a transaction's first is marked as one, or a pad with an
	// Aux is not a seal's shape.
	ErrBadHeader = errors.New("logrec: malformed record header")
	// ErrBadSeal means a batch does not match the seal that closes it —
	// its length or its CRC-32C differ, a torn write or rotten bytes —
	// or a stream ends in a batch that no seal closes.
	ErrBadSeal = errors.New("logrec: batch does not match its seal")
	// ErrPayloadTooLarge means an encode request exceeded MaxPayload.
	ErrPayloadTooLarge = errors.New("logrec: payload too large")
)

// castagnoli is the CRC-32C table; Castagnoli is the standard polynomial
// for storage checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// MaxSealSize is the largest seal: a one-byte length, the kind byte, the
// widest Aux and the CRC.
const MaxSealSize = 1 + 1 + binary.MaxVarintLen64 + crcSize

// SealSize returns the encoded length of the seal of an n-byte batch.
func SealSize(n int) int { return 1 + 1 + uvarintLen(uint64(n)) + crcSize }

// PutSeal encodes into dst, which must hold SealSize(n) bytes, the seal
// of an n-byte batch (n >= 1) whose CRC-32C is crc: a pad whose Aux is n
// and whose payload is the CRC. It returns the seal's length. The CRC
// is the seal's last four bytes, so a seal encoded before its batch is
// complete can be finished by PutSealCRC.
func PutSeal(dst []byte, n int, crc uint32) int {
	size := SealSize(n)
	dst[0] = byte(size - 1)
	dst[1] = byte(KindPad-1) | hasAux
	binary.PutUvarint(dst[2:], uint64(n))
	PutSealCRC(dst[:size], crc)
	return size
}

// PutSealCRC writes crc into the encoded seal.
func PutSealCRC(seal []byte, crc uint32) {
	binary.LittleEndian.PutUint32(seal[len(seal)-crcSize:], crc)
}

// BatchCRC returns the CRC-32C a seal carries for batch.
func BatchCRC(batch []byte) uint32 { return crc32.Checksum(batch, castagnoli) }

// BatchCRCUpdate returns the CRC-32C of a batch whose first part has
// the CRC crc and which goes on with p: a batch held in pieces.
func BatchCRCUpdate(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// SealCRCSize is the length of a seal's CRC, its last bytes.
const SealCRCSize = crcSize

// AppendSeal appends to dst the seal of the batch that dst[from:] holds.
func AppendSeal(dst []byte, from int) []byte {
	n := len(dst) - from
	var seal [MaxSealSize]byte
	k := PutSeal(seal[:], n, BatchCRC(dst[from:]))
	return append(dst, seal[:k]...)
}

// EncodedSize returns the record's full encoded length.
func (r *Record) EncodedSize() int {
	rest := r.bodySize() + len(r.Payload)
	return uvarintLen(uint64(rest)) + rest
}

// EncodeInto writes the record into dst, which must be exactly
// EncodedSize() bytes (the pre-reserved log-buffer region). It computes
// TotalLen; the caller's value is ignored.
func (r *Record) EncodeInto(dst []byte) error {
	if len(r.Payload) > MaxPayload {
		return ErrPayloadTooLarge
	}
	if !r.Kind.Valid() {
		return ErrBadKind
	}
	if r.Flags != r.Kind.flags() {
		return ErrBadFlags
	}
	if r.First && !r.canBeFirst() {
		return ErrBadFirst
	}
	if r.Slot > MaxSlot {
		return ErrBadSlot
	}
	if !r.sealShape(len(r.Payload)) {
		return fmt.Errorf("%w: a pad with an Aux is a seal, which carries a %d-byte CRC and nothing else", ErrBadHeader, crcSize)
	}
	rest := r.bodySize() + len(r.Payload)
	total := uvarintLen(uint64(rest)) + rest
	if len(dst) != total {
		return fmt.Errorf("logrec: dst is %d bytes, record needs %d", len(dst), total)
	}
	kindAt := binary.PutUvarint(dst, uint64(rest))
	kb := byte(r.Kind - 1)
	n := kindAt + 1
	switch {
	case r.First:
		kb |= hasTxnID | isFirst
		n += binary.PutUvarint(dst[n:], r.TxnID)
		dst[n] = r.Slot
		n++
	case r.Slot != 0:
		kb |= hasTxnID
		dst[n] = r.Slot
		n++
	case r.TxnID != 0:
		kb |= isFirst
		n += binary.PutUvarint(dst[n:], r.TxnID)
	}
	if r.PageID != 0 {
		kb |= hasPageID
		n += binary.PutUvarint(dst[n:], r.PageID>>pageNoBits)
		n += binary.PutUvarint(dst[n:], r.PageID&pageNoMask)
	}
	if r.Aux != 0 {
		kb |= hasAux
		n += binary.PutUvarint(dst[n:], r.Aux)
	}
	if r.Seq != 0 {
		kb |= hasSeq
		n += binary.PutUvarint(dst[n:], uint64(r.Seq))
	}
	dst[kindAt] = kb
	copy(dst[n:], r.Payload)
	return nil
}

// Encode allocates and returns the encoded record.
func (r *Record) Encode() ([]byte, error) {
	buf := make([]byte, r.EncodedSize())
	if err := r.EncodeInto(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// PeekLen returns the TotalLen of the record at the front of src from
// its length alone, without validating the rest. It returns 0 if src
// does not begin with a whole, valid length.
func PeekLen(src []byte) int {
	total, _, err := frame(src)
	if err != nil {
		return 0
	}
	return total
}

// frame reads the length at the front of src and returns the record's
// TotalLen and where its kind byte is. ErrTooShort means src ends inside
// the length; ErrBadLength, that the length is not the shortest spelling
// of a possible one.
func frame(src []byte) (total, kindAt int, err error) {
	rest, n := binary.Uvarint(src)
	switch {
	case n == 0:
		return 0, 0, ErrTooShort
	case n < 0 || n > 1 && src[n-1] == 0 ||
		rest < MinRecordSize-1 || rest > maxHeaderSize+MaxPayload:
		return 0, 0, ErrBadLength
	}
	return n + int(rest), n, nil
}

// cursor reads the varints of a header or payload in order. ok turns
// false at the first one that is missing, longer than its value needs or
// outside its field's range, and stays false; src is what is left.
type cursor struct {
	src []byte
	ok  bool
}

// uvarint consumes one varint whose value must lie in [lo, hi].
func (c *cursor) uvarint(lo, hi uint64) uint64 {
	v, n := binary.Uvarint(c.src)
	if n <= 0 || v < lo || v > hi || n > 1 && c.src[n-1] == 0 {
		c.ok = false
		return 0
	}
	c.src = c.src[n:]
	return v
}

// Decode parses one record from the front of src, verifying its length
// and that the header is the one encoding of its fields. It checks no
// checksum: a record is only as sound as the batch its seal vouches for
// (Iterator). The returned record's Payload aliases src; callers that
// retain it across buffer reuse must copy. consumed is the encoded
// length.
func Decode(src []byte) (rec Record, consumed int, err error) {
	total, kindAt, err := frame(src)
	if err != nil {
		return Record{}, 0, err
	}
	if len(src) < total {
		return Record{}, 0, ErrTooShort
	}
	kb := src[kindAt]
	k := Kind(kb&kindMask) + 1
	rec.TotalLen = uint32(total)
	rec.Kind, rec.Flags = k, k.flags()
	// A present field never holds its absent value: zero is a value only
	// for one half of a page ID, and for a first record's slot.
	c := cursor{src: src[kindAt+1 : total], ok: true}
	switch kb & (hasTxnID | isFirst) {
	case hasTxnID | isFirst:
		rec.First = true
		rec.TxnID = c.uvarint(1, math.MaxUint64)
		rec.Slot = uint8(c.uvarint(0, MaxSlot))
		c.ok = c.ok && rec.canBeFirst()
	case hasTxnID:
		rec.Slot = uint8(c.uvarint(1, MaxSlot))
	case isFirst:
		rec.TxnID = c.uvarint(1, math.MaxUint64)
	}
	if kb&hasPageID != 0 {
		space := c.uvarint(0, math.MaxUint64>>pageNoBits)
		rec.PageID = space<<pageNoBits | c.uvarint(0, pageNoMask)
		c.ok = c.ok && rec.PageID != 0
	}
	if kb&hasAux != 0 {
		rec.Aux = c.uvarint(1, math.MaxUint64)
	}
	if kb&hasSeq != 0 {
		rec.Seq = uint32(c.uvarint(1, math.MaxUint32))
	}
	if !c.ok || len(c.src) > MaxPayload || !rec.sealShape(len(c.src)) {
		return Record{}, 0, ErrBadHeader
	}
	rec.Payload = c.src
	return rec, total, nil
}

// Iterator walks a linear log byte stream record by record, a batch at
// a time: before it yields any record of a batch it finds the seal that
// closes the batch and checks the batch's length and CRC-32C against it,
// so no record of a torn, short or rotten batch ever comes out. It stops
// cleanly where the stream ends, or holds only zero bytes, at a batch
// boundary — a durable log ends at a seal, and what follows it is space
// nothing wrote — and at a gap (Err) anywhere else, a stream cut inside a
// batch included: exactly how ARIES scans the log after a crash. Seals
// themselves are never yielded.
type Iterator struct {
	data []byte
	base lsn.LSN // LSN of data[0]
	off  int     // the next record
	// sealed is where the checked prefix ends: the newest seal checked,
	// or all of data for an iterator over checked bytes; batch is where
	// the newest checked batch begins.
	sealed, batch int
	err           error
}

// NewIterator returns an iterator over data, whose first byte sits at
// base in the logical log and starts a batch: a lane's base and every
// seal's end do.
func NewIterator(data []byte, base lsn.LSN) *Iterator {
	return &Iterator{data: data, base: base}
}

// NewVerifiedIterator returns an iterator over bytes Verify has already
// checked: it may start at any record, mid-batch too, and passes over
// seals without checking them again.
func NewVerifiedIterator(data []byte, base lsn.LSN) *Iterator {
	return &Iterator{data: data, base: base, sealed: len(data)}
}

// Verify checks data, a stream whose first byte sits at base and starts
// a batch, against its seals as an Iterator does, and returns how many
// of its bytes they vouch for: through the last good seal. err is the
// gap an Iterator would stop at, nil at a clean end.
func Verify(data []byte, base lsn.LSN) (int, error) {
	it := Iterator{data: data, base: base}
	for it.checkBatch() {
		it.off = it.sealed
	}
	return it.sealed, it.err
}

// Next returns the next record, or ok=false when the stream ends (at a
// gap or clean end). After ok=false, Err distinguishes a clean end (nil)
// from a detected gap.
func (it *Iterator) Next() (Record, bool) {
	for it.err == nil {
		if it.off == it.sealed && !it.checkBatch() {
			break
		}
		rest := it.data[it.off:it.sealed]
		rec, n, err := Decode(rest)
		if err != nil {
			// A run of zero bytes is pre-allocated, never-written space:
			// a clean end rather than corruption.
			if !errors.Is(err, ErrTooShort) && !allZero(rest) {
				it.fail(0, err)
			}
			break
		}
		rec.LSN = it.base.Add(it.off)
		it.off += n
		if !rec.IsSeal() {
			return rec, true
		}
	}
	return Record{}, false
}

// checkBatch finds the seal that closes the batch starting at it.off and
// checks the batch against it, moving it.sealed to the seal's end. It
// reports false at a clean end of the stream and at a gap (it.err).
func (it *Iterator) checkBatch() bool {
	rest := it.data[it.off:]
	for pos := 0; ; {
		total, kindAt, err := frame(rest[pos:])
		if err == nil && total > len(rest)-pos {
			err = ErrTooShort
		}
		if err != nil {
			if pos == 0 && allZero(rest) {
				return false
			}
			it.fail(pos, fmt.Errorf("%w: no seal closes the batch at %v: %w", ErrBadSeal, it.base.Add(it.off), err))
			return false
		}
		if kb := rest[pos+kindAt]; Kind(kb&kindMask)+1 != KindPad || kb&hasAux == 0 {
			pos += total
			continue
		}
		seal, _, err := Decode(rest[pos:])
		if err != nil {
			it.fail(pos, fmt.Errorf("%w: the batch at %v ends in a malformed seal: %w", ErrBadSeal, it.base.Add(it.off), err))
			return false
		}
		if seal.Aux != uint64(pos) {
			it.fail(0, fmt.Errorf("%w: the seal at %v closes %d bytes, the batch before it is %d",
				ErrBadSeal, it.base.Add(it.off+pos), seal.Aux, pos))
			return false
		}
		if binary.LittleEndian.Uint32(seal.Payload) != BatchCRC(rest[:pos]) {
			it.fail(0, fmt.Errorf("%w: the %d bytes before the seal at %v fail its CRC-32C",
				ErrBadSeal, pos, it.base.Add(it.off+pos)))
			return false
		}
		it.batch, it.sealed = it.off, it.off+pos+total
		return true
	}
}

// fail stops the iterator at a gap pos bytes past the next record.
func (it *Iterator) fail(pos int, err error) {
	it.err = fmt.Errorf("logrec: stream gap at %v: %w", it.base.Add(it.off+pos), err)
}

// Batch returns the address where the batch of the record Next last
// returned begins: the previous seal's end, or the stream's start.
func (it *Iterator) Batch() lsn.LSN { return it.base.Add(it.batch) }

// Err returns the gap error, if the iterator stopped at one.
func (it *Iterator) Err() error { return it.err }

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
