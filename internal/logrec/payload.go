package logrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"aether/internal/lsn"
)

// This file defines the kind-specific payload codecs. Keeping them next to
// the header codec means every byte that can reach the log has exactly one
// encoder and one decoder, shared by the storage manager, recovery and the
// tests.

// UpdateOp says how an update record changes its page slot.
type UpdateOp uint8

const (
	// OpSet splices a slot's row (before → after).
	OpSet UpdateOp = iota + 1
	// OpInsert adds a record at a slot (undo = delete).
	OpInsert
	// OpDelete removes a slot's record (undo = re-insert the before image).
	OpDelete
)

// String names the op for log dumps and errors.
func (o UpdateOp) String() string {
	switch o {
	case OpSet:
		return "set"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ErrBadPayload means a kind-specific payload failed to parse.
var ErrBadPayload = errors.New("logrec: malformed payload")

// UpdatePayload is the body of a KindUpdate or KindCLR record: a
// physiological, slot-level change that can be redone and undone.
//
// An OpSet is a splice: it turns row[Off : Off+len(b)] into a, where b
// and a are what Splice leaves of the row's before and after images once
// their common prefix and suffix are trimmed. It logs the bytes that
// changed once, not twice: X is b ⊕ a over the bytes both cover, and
// Tail is the longer one's remaining bytes. Delta is the row's change in
// length, len(a) − len(b), so Tail holds |Delta| bytes: the row gains
// them at Off+len(X) when Delta > 0 and loses them there when Delta < 0.
// XOR is its own inverse, so an OpSet undoes itself with Delta negated.
// An insert carries the new row in After, a delete the old one in
// Before; neither has an Off. Their row is logged as its length and its
// bytes up to the last non-zero one, the rest of the row being implied
// zeros.
//
// Encoding (varints as in the record header, shortest form only):
//
//	OpSet     op byte | Slot | Off | X                  (Delta = 0)
//	OpSet     op byte | Slot | Off | zigzag(Delta) | X | Tail
//	OpInsert  op byte | Slot | row length | After without its zero tail
//	OpDelete  op byte | Slot | row length | Before without its zero tail
//
// An OpSet that resizes its row sets opResize in its op byte; Tail is
// the payload's last |Delta| bytes and X what comes before them. The
// last image runs to the end of the payload. DecodeUpdate accepts only
// what Encode writes for a payload Splice could have made.
type UpdatePayload struct {
	// Op is the slot operation (set, insert, delete).
	Op UpdateOp
	// Slot is the target slot in the page's directory.
	Slot uint16
	// Off is where in the row an OpSet's splice starts (0 for other ops).
	Off uint32
	// X is an OpSet's before ⊕ after over the bytes both images cover.
	X []byte
	// Tail is an OpSet's longer image's bytes past len(X): |Delta| of them.
	Tail []byte
	// Delta is an OpSet's change in row length, after less before.
	Delta int32
	// Before is a delete's row (empty for other ops): the undo side.
	Before []byte
	// After is an insert's row (empty for other ops): the redo side.
	After []byte
	// RowLen is an insert's or delete's row length where its image stops
	// short of it: the row is the image followed by zeros. DecodeUpdate
	// sets it; a caller that hands over the whole row may leave it 0.
	RowLen uint32
}

// opResize flags, in an OpSet's op byte, the zigzag Delta that follows
// Off: only a splice that changes its row's length pays for one.
const opResize = 0x80

// MaxRowLen is the longest row a page holds: storage.MaxRecordSize, an
// 8 KiB page less its 24-byte header and one 4-byte slot entry. An insert
// or delete that names a longer row is malformed.
const MaxRowLen = 8192 - 24 - 4

// Splice returns the OpSet that turns the row image before into after:
// the two with their common prefix and then their common suffix trimmed,
// Off where what is left starts, and that rest spelt as X and Tail. X is
// written over dst's backing array, which is reallocated only if it is
// too short; Tail aliases before or after. Two equal rows make the empty
// splice at offset 0.
func Splice(dst []byte, slot uint16, before, after []byte) UpdatePayload {
	off := commonPrefix(before, after)
	before, after = before[off:], after[off:]
	tail := commonSuffix(before, after)
	before, after = before[:len(before)-tail], after[:len(after)-tail]
	if len(before) == 0 && len(after) == 0 {
		off = 0
	}
	n := min(len(before), len(after))
	x := slices.Grow(dst[:0], n)[:n]
	for i := range x {
		x[i] = before[i] ^ after[i]
	}
	u := UpdatePayload{Op: OpSet, Slot: slot, Off: uint32(off), X: x, Tail: after[n:], Delta: int32(len(after) - len(before))}
	if u.Delta < 0 {
		u.Tail = before[n:]
	}
	return u
}

// commonPrefix returns how many leading bytes a and b share, comparing
// eight at a time.
func commonPrefix(a, b []byte) int {
	n, i := min(len(a), len(b)), 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// commonSuffix returns how many trailing bytes a and b share.
func commonSuffix(a, b []byte) int {
	n, i := min(len(a), len(b)), 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[len(a)-i-8:]) ^ binary.LittleEndian.Uint64(b[len(b)-i-8:]); x != 0 {
			return i + bits.LeadingZeros64(x)/8
		}
	}
	for i < n && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}

// significant returns len(b) less b's trailing zero bytes.
func significant(b []byte) int {
	n := len(b)
	for n >= 8 && binary.LittleEndian.Uint64(b[n-8:]) == 0 {
		n -= 8
	}
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return n
}

// zigzag maps a signed Delta onto the unsigned varint that spells it.
func zigzag(d int32) uint64 { return uint64(uint32(d<<1) ^ uint32(d>>31)) }

// image returns an insert's After or a delete's Before.
func (u *UpdatePayload) image() []byte {
	if u.Op == OpInsert {
		return u.After
	}
	return u.Before
}

// RowSize returns the length of an insert's or delete's row: RowLen, or
// its image's length if that is longer. The row is the image and then
// RowSize - len(image) zeros.
func (u *UpdatePayload) RowSize() int { return max(int(u.RowLen), len(u.image())) }

// PayloadSizes is an update payload's encoded length split into its
// fields, in bytes.
type PayloadSizes struct {
	// Op is the op byte's width, 1.
	Op int
	// Slot is the Slot varint's width.
	Slot int
	// Off is an OpSet's Off varint's width.
	Off int
	// Delta is an OpSet's zigzag Delta varint's width, 0 if its row
	// keeps its length.
	Delta int
	// X is the length of an OpSet's X.
	X int
	// Tail is the length of an OpSet's Tail.
	Tail int
	// RowLen is an insert's or delete's row length varint's width.
	RowLen int
	// Row is the length of an insert's or delete's row image.
	Row int
}

// Sizes returns how the payload's EncodedSize bytes divide among its
// fields.
func (u *UpdatePayload) Sizes() PayloadSizes {
	s := PayloadSizes{Op: 1, Slot: uvarintLen(uint64(u.Slot))}
	switch u.Op {
	case OpInsert, OpDelete:
		s.RowLen, s.Row = uvarintLen(uint64(u.RowSize())), significant(u.image())
		return s
	}
	s.Off, s.X, s.Tail = uvarintLen(uint64(u.Off)), len(u.X), len(u.Tail)
	if u.Delta != 0 {
		s.Delta = uvarintLen(zigzag(u.Delta))
	}
	return s
}

// EncodedSize returns the payload's encoded length.
func (u *UpdatePayload) EncodedSize() int {
	s := u.Sizes()
	return s.Op + s.Slot + s.Off + s.Delta + s.X + s.Tail + s.RowLen + s.Row
}

// Encode appends the payload to dst and returns the extended slice. It
// writes the fields the op has — an OpSet's Off, Delta, X and Tail, an
// insert's After or a delete's Before without the row's zero tail — and
// none of the others.
func (u *UpdatePayload) Encode(dst []byte) []byte {
	op := byte(u.Op)
	if u.Op == OpSet && u.Delta != 0 {
		op |= opResize
	}
	dst = append(dst, op)
	dst = binary.AppendUvarint(dst, uint64(u.Slot))
	switch u.Op {
	case OpInsert, OpDelete:
		img := u.image()
		return append(binary.AppendUvarint(dst, uint64(u.RowSize())), img[:significant(img)]...)
	}
	dst = binary.AppendUvarint(dst, uint64(u.Off))
	if u.Delta != 0 {
		dst = binary.AppendUvarint(dst, zigzag(u.Delta))
	}
	return append(append(dst, u.X...), u.Tail...)
}

// DecodeUpdate parses a KindUpdate or KindCLR payload. The returned
// slices alias src; an insert's or delete's image is its row without the
// zero tail, and RowLen the row's length. Besides truncation, unknown ops
// and non-minimal varints it refuses an OpSet whose X starts with a zero
// byte (the splice starts later), or whose row keeps its length and
// whose X ends in a zero byte or is empty away from offset 0, or that
// flags a resize of zero bytes or of more bytes than it carries; and an
// insert or delete whose image ends in a zero byte or runs past its row
// length, or whose row is longer than MaxRowLen: such a payload has a
// shorter spelling or means no row, and the log holds one spelling of
// everything.
func DecodeUpdate(src []byte) (UpdatePayload, error) {
	if len(src) == 0 {
		return UpdatePayload{}, ErrBadPayload
	}
	u := UpdatePayload{Op: UpdateOp(src[0] &^ opResize)}
	resize := src[0]&opResize != 0
	if resize && u.Op != OpSet {
		return UpdatePayload{}, ErrBadPayload
	}
	c := cursor{src: src[1:], ok: true}
	u.Slot = uint16(c.uvarint(0, math.MaxUint16))
	switch u.Op {
	case OpInsert, OpDelete:
		n := c.uvarint(0, MaxRowLen)
		img := c.src
		if !c.ok || len(img) > int(n) || len(img) > 0 && img[len(img)-1] == 0 {
			return UpdatePayload{}, ErrBadPayload
		}
		u.RowLen = uint32(n)
		if u.Op == OpInsert {
			u.After = img
		} else {
			u.Before = img
		}
	case OpSet:
		u.Off = uint32(c.uvarint(0, MaxRowLen))
		if resize {
			z := c.uvarint(1, 2*MaxRowLen)
			u.Delta = int32(z>>1) ^ -int32(z&1)
		}
		tail := int(max(u.Delta, -u.Delta))
		if !c.ok || tail > len(c.src) {
			return UpdatePayload{}, ErrBadPayload
		}
		x := c.src[:len(c.src)-tail]
		if len(x) > 0 && x[0] == 0 ||
			!resize && (len(x) == 0 && u.Off != 0 || len(x) > 0 && x[len(x)-1] == 0) {
			return UpdatePayload{}, ErrBadPayload
		}
		u.X, u.Tail = x, c.src[len(x):]
	default:
		return UpdatePayload{}, ErrBadPayload
	}
	if !c.ok {
		return UpdatePayload{}, ErrBadPayload
	}
	return u, nil
}

// Inverse returns the payload that undoes u, used when writing CLRs: an
// insert's is the delete of the same row and the other way round, a
// splice's is the same splice with Delta negated.
func (u UpdatePayload) Inverse() UpdatePayload {
	switch u.Op {
	case OpInsert:
		return UpdatePayload{Op: OpDelete, Slot: u.Slot, Before: u.After, RowLen: u.RowLen}
	case OpDelete:
		return UpdatePayload{Op: OpInsert, Slot: u.Slot, After: u.Before, RowLen: u.RowLen}
	default:
		return UpdatePayload{Op: OpSet, Slot: u.Slot, Off: u.Off, X: u.X, Tail: u.Tail, Delta: -u.Delta}
	}
}

// TxnTableEntry is one row of the checkpoint's active-transaction table.
type TxnTableEntry struct {
	// TxnID identifies the in-flight transaction.
	TxnID uint64
	// LastLSN is the transaction's most recent log record, where undo
	// would start.
	LastLSN lsn.LSN
	// Precommitted is true if the transaction has inserted its commit
	// record (relevant under ELR: such transactions must not be undone).
	Precommitted bool
}

// DirtyPageEntry is one row of the checkpoint's dirty-page table.
type DirtyPageEntry struct {
	// PageID is the dirty page.
	PageID uint64
	// RecLSN is the first LSN that dirtied it since it was last clean:
	// redo for this page starts here.
	RecLSN lsn.LSN
}

// CheckpointPayload is the body of a KindCheckpointEnd record: the fuzzy
// snapshot of the active-transaction table and dirty-page table.
type CheckpointPayload struct {
	// ActiveTxns snapshots the active-transaction table.
	ActiveTxns []TxnTableEntry
	// DirtyPages snapshots the dirty-page table.
	DirtyPages []DirtyPageEntry
}

// EncodedSize returns the payload's encoded length.
func (c *CheckpointPayload) EncodedSize() int {
	return 8 + len(c.ActiveTxns)*17 + len(c.DirtyPages)*16
}

// Encode appends the payload to dst and returns the extended slice.
func (c *CheckpointPayload) Encode(dst []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(c.ActiveTxns)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(c.DirtyPages)))
	dst = append(dst, hdr[:]...)
	var tmp [17]byte
	for _, e := range c.ActiveTxns {
		binary.LittleEndian.PutUint64(tmp[0:8], e.TxnID)
		binary.LittleEndian.PutUint64(tmp[8:16], uint64(e.LastLSN))
		if e.Precommitted {
			tmp[16] = 1
		} else {
			tmp[16] = 0
		}
		dst = append(dst, tmp[:17]...)
	}
	for _, e := range c.DirtyPages {
		binary.LittleEndian.PutUint64(tmp[0:8], e.PageID)
		binary.LittleEndian.PutUint64(tmp[8:16], uint64(e.RecLSN))
		dst = append(dst, tmp[:16]...)
	}
	return dst
}

// DecodeCheckpoint parses a KindCheckpointEnd payload.
func DecodeCheckpoint(src []byte) (CheckpointPayload, error) {
	if len(src) < 8 {
		return CheckpointPayload{}, ErrBadPayload
	}
	nt := int(binary.LittleEndian.Uint32(src[0:4]))
	np := int(binary.LittleEndian.Uint32(src[4:8]))
	want := 8 + nt*17 + np*16
	if nt < 0 || np < 0 || want != len(src) {
		return CheckpointPayload{}, ErrBadPayload
	}
	out := CheckpointPayload{}
	off := 8
	if nt > 0 {
		out.ActiveTxns = make([]TxnTableEntry, nt)
		for i := range out.ActiveTxns {
			if src[off+16] > 1 {
				return CheckpointPayload{}, ErrBadPayload
			}
			out.ActiveTxns[i] = TxnTableEntry{
				TxnID:        binary.LittleEndian.Uint64(src[off : off+8]),
				LastLSN:      lsn.LSN(binary.LittleEndian.Uint64(src[off+8 : off+16])),
				Precommitted: src[off+16] == 1,
			}
			off += 17
		}
	}
	if np > 0 {
		out.DirtyPages = make([]DirtyPageEntry, np)
		for i := range out.DirtyPages {
			out.DirtyPages[i] = DirtyPageEntry{
				PageID: binary.LittleEndian.Uint64(src[off : off+8]),
				RecLSN: lsn.LSN(binary.LittleEndian.Uint64(src[off+8 : off+16])),
			}
			off += 16
		}
	}
	return out, nil
}

// Reset re-arms r in place as a payload-less record of the given kind
// (commit, abort, end) that is not its transaction's first: every header
// field is overwritten and the payload is emptied, keeping its capacity
// for the next Set call. A caller that owns one Record per goroutine
// builds each record it appends this way instead of allocating one; the
// New* constructors are the same calls on a fresh Record, so both encode
// to the same bytes.
func (r *Record) Reset(kind Kind, txnID uint64) {
	r.Header = Header{Kind: kind, TxnID: txnID}
	r.LSN = 0
	r.Payload = r.Payload[:0]
}

// SetUpdate re-arms r in place as an update record carrying p, encoding
// the payload into r.Payload's existing capacity when it fits. prev is
// the address of the transaction's previous record, lsn.Undefined if
// this is its first: the log keeps only which (Header.First). An update
// of no transaction (txnID 0) is no transaction's first.
func (r *Record) SetUpdate(txnID uint64, prev lsn.LSN, pageID uint64, p UpdatePayload) {
	r.Reset(KindUpdate, txnID)
	r.First = txnID != 0 && !prev.Valid()
	r.PageID = pageID
	r.setPayload(p)
}

// SetCLR re-arms r in place as a compensation record that redoes p (the
// inverse of the undone update) and tells undo to go on at undoNext: the
// undone update's predecessor in its transaction, lsn.Undefined once
// nothing is left. Aux holds undoNext plus one, so that the end of a
// rollback is Aux's absent value and costs no bytes.
func (r *Record) SetCLR(txnID uint64, pageID uint64, undoNext lsn.LSN, p UpdatePayload) {
	r.Reset(KindCLR, txnID)
	r.Flags = FlagRedoOnly
	r.PageID = pageID
	r.Aux = uint64(undoNext) + 1
	r.setPayload(p)
}

// setPayload encodes p over r.Payload, growing it once to the exact
// size if the capacity at hand is too small.
func (r *Record) setPayload(p UpdatePayload) {
	if n := p.EncodedSize(); cap(r.Payload) < n {
		r.Payload = make([]byte, 0, n)
	}
	r.Payload = p.Encode(r.Payload[:0])
}

// NewUpdate builds a ready-to-insert update record (see SetUpdate).
func NewUpdate(txnID uint64, prev lsn.LSN, pageID uint64, p UpdatePayload) *Record {
	r := new(Record)
	r.SetUpdate(txnID, prev, pageID, p)
	return r
}

// NewCLR builds a compensation record (see SetCLR).
func NewCLR(txnID uint64, pageID uint64, undoNext lsn.LSN, p UpdatePayload) *Record {
	r := new(Record)
	r.SetCLR(txnID, pageID, undoNext, p)
	return r
}

// NewCommit builds a commit record.
func NewCommit(txnID uint64) *Record {
	return &Record{Header: Header{Kind: KindCommit, TxnID: txnID}}
}

// NewAbort builds an abort record.
func NewAbort(txnID uint64) *Record {
	return &Record{Header: Header{Kind: KindAbort, TxnID: txnID}}
}

// NewEnd builds an end record.
func NewEnd(txnID uint64) *Record {
	return &Record{Header: Header{Kind: KindEnd, TxnID: txnID}}
}

// NewPad builds a padding record whose total encoded size is exactly
// size bytes, or MinRecordSize if size is smaller. The microbenchmarks
// use this to sweep record sizes precisely. No record is 129, 16 386 or
// 2 097 155 bytes long (the length counts only the bytes after it, and
// grows by a byte at 128, 16 384 and 2 097 152 of them): for those three
// sizes NewPad builds a record one byte longer.
func NewPad(size int) *Record {
	size = max(size, MinRecordSize)
	w := 1 // the length's width
	for uvarintLen(uint64(size-w)) > w {
		w++
	}
	rest := size - w
	if uvarintLen(uint64(rest)) < w {
		rest++
	}
	return &Record{
		Header:  Header{Kind: KindPad},
		Payload: make([]byte, rest-1),
	}
}

// UndoNext returns the CLR's undo-next pointer (see SetCLR).
func (r *Record) UndoNext() lsn.LSN { return lsn.LSN(r.Aux - 1) }

// PrevPageSeq returns, for a multi-log update record, the global
// sequence stamp of the page's previous update at the time this record
// was appended — the dependency edge recovery verifies when merging N
// logs. It is 0 for single-log records, for a page's first update, and
// for every non-update kind (a CLR's Aux holds its UndoNextLSN).
func (r *Record) PrevPageSeq() uint64 {
	if r.Kind != KindUpdate {
		return 0
	}
	return r.Aux
}
