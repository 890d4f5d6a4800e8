package logrec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"aether/internal/lsn"
)

// This file defines the kind-specific payload codecs. Keeping them next to
// the header codec means every byte that can reach the log has exactly one
// encoder and one decoder, shared by the storage manager, recovery and the
// tests.

// UpdateOp says how an update record changes its page slot.
type UpdateOp uint8

const (
	// OpSet overwrites a slot's bytes (before → after).
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

// UpdatePayload is the body of a KindUpdate record: a physiological,
// slot-level change with both images so it can be redone and undone.
type UpdatePayload struct {
	// Op is the slot operation (set, insert, delete).
	Op UpdateOp
	// Slot is the target slot in the page's directory.
	Slot uint16
	// Before is the pre-image (empty for inserts): the undo side.
	Before []byte
	// After is the post-image (empty for deletes): the redo side.
	After []byte
}

// updateHdr = op(1) + pad(1) + slot(2) + beforeLen(4) + afterLen(4)
const updateHdrSize = 12

// EncodedSize returns the payload's encoded length.
func (u *UpdatePayload) EncodedSize() int {
	return updateHdrSize + len(u.Before) + len(u.After)
}

// Encode appends the payload to dst and returns the extended slice.
func (u *UpdatePayload) Encode(dst []byte) []byte {
	var hdr [updateHdrSize]byte
	hdr[0] = byte(u.Op)
	binary.LittleEndian.PutUint16(hdr[2:4], u.Slot)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(u.Before)))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(u.After)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, u.Before...)
	dst = append(dst, u.After...)
	return dst
}

// DecodeUpdate parses a KindUpdate payload. The returned slices alias src.
func DecodeUpdate(src []byte) (UpdatePayload, error) {
	if len(src) < updateHdrSize {
		return UpdatePayload{}, ErrBadPayload
	}
	bl := int(binary.LittleEndian.Uint32(src[4:8]))
	al := int(binary.LittleEndian.Uint32(src[8:12]))
	if bl < 0 || al < 0 || updateHdrSize+bl+al != len(src) {
		return UpdatePayload{}, ErrBadPayload
	}
	op := UpdateOp(src[0])
	if op != OpSet && op != OpInsert && op != OpDelete {
		return UpdatePayload{}, ErrBadPayload
	}
	return UpdatePayload{
		Op:     op,
		Slot:   binary.LittleEndian.Uint16(src[2:4]),
		Before: src[updateHdrSize : updateHdrSize+bl],
		After:  src[updateHdrSize+bl : updateHdrSize+bl+al],
	}, nil
}

// Inverse returns the payload that undoes u, used when writing CLRs.
func (u UpdatePayload) Inverse() UpdatePayload {
	switch u.Op {
	case OpInsert:
		return UpdatePayload{Op: OpDelete, Slot: u.Slot, Before: u.After}
	case OpDelete:
		return UpdatePayload{Op: OpInsert, Slot: u.Slot, After: u.Before}
	default:
		return UpdatePayload{Op: OpSet, Slot: u.Slot, Before: u.After, After: u.Before}
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
// (commit, abort, end): every header field is overwritten and the
// payload is emptied, keeping its capacity for the next Set call. A
// caller that owns one Record per goroutine builds each record it
// appends this way instead of allocating one; the New* constructors are
// the same calls on a fresh Record, so both encode to the same bytes.
func (r *Record) Reset(kind Kind, txnID uint64, prev lsn.LSN) {
	r.Header = Header{Kind: kind, TxnID: txnID, PrevLSN: prev}
	r.LSN = 0
	r.Payload = r.Payload[:0]
}

// SetUpdate re-arms r in place as an update record carrying p, encoding
// the payload into r.Payload's existing capacity when it fits.
func (r *Record) SetUpdate(txnID uint64, prev lsn.LSN, pageID uint64, p UpdatePayload) {
	r.Reset(KindUpdate, txnID, prev)
	r.PageID = pageID
	r.setPayload(p)
}

// SetCLR re-arms r in place as a compensation record that redoes p (the
// inverse of the undone update) and chains rollback to undoNext.
func (r *Record) SetCLR(txnID uint64, prev lsn.LSN, pageID uint64, undoNext lsn.LSN, p UpdatePayload) {
	r.Reset(KindCLR, txnID, prev)
	r.Flags = FlagRedoOnly
	r.PageID = pageID
	r.Aux = uint64(undoNext)
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

// NewUpdate builds a ready-to-insert update record.
func NewUpdate(txnID uint64, prev lsn.LSN, pageID uint64, p UpdatePayload) *Record {
	r := new(Record)
	r.SetUpdate(txnID, prev, pageID, p)
	return r
}

// NewCLR builds a compensation record that redoes p (the inverse of the
// undone update) and chains rollback to undoNext.
func NewCLR(txnID uint64, prev lsn.LSN, pageID uint64, undoNext lsn.LSN, p UpdatePayload) *Record {
	r := new(Record)
	r.SetCLR(txnID, prev, pageID, undoNext, p)
	return r
}

// NewCommit builds a commit record.
func NewCommit(txnID uint64, prev lsn.LSN) *Record {
	return &Record{Header: Header{Kind: KindCommit, TxnID: txnID, PrevLSN: prev}}
}

// NewAbort builds an abort record.
func NewAbort(txnID uint64, prev lsn.LSN) *Record {
	return &Record{Header: Header{Kind: KindAbort, TxnID: txnID, PrevLSN: prev}}
}

// NewEnd builds an end record.
func NewEnd(txnID uint64, prev lsn.LSN) *Record {
	return &Record{Header: Header{Kind: KindEnd, TxnID: txnID, PrevLSN: prev}}
}

// NewPad builds a padding record whose total encoded size is exactly
// size bytes (size >= HeaderSize). The microbenchmarks use this to sweep
// record sizes precisely.
func NewPad(size int) *Record {
	if size < HeaderSize {
		size = HeaderSize
	}
	return &Record{
		Header:  Header{Kind: KindPad},
		Payload: make([]byte, size-HeaderSize),
	}
}

// UndoNext returns the CLR's undo-next pointer.
func (r *Record) UndoNext() lsn.LSN { return lsn.LSN(r.Aux) }

// PrevPageSeq returns, for a multi-log update record, the global
// sequence stamp of the page's previous update at the time this record
// was appended — the dependency edge recovery verifies when merging N
// logs. It is 0 for single-log records, for a page's first update, and
// for every non-update kind (a CLR's Aux is its UndoNextLSN).
func (r *Record) PrevPageSeq() uint64 {
	if r.Kind != KindUpdate {
		return 0
	}
	return r.Aux
}
