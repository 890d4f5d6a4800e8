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

// CheckpointPayload is what a fuzzy checkpoint logs: its snapshot of the
// active-transaction table and dirty-page table. It is logged in chunks,
// each the payload of one KindCheckpointEnd record, so no record of it
// outgrows a log buffer's group limit however many pages are dirty:
//
//	[0:4]   chunk index, from 0           uint32 LE
//	[4:8]   chunk count (the last chunk's index is count-1)
//	[8:12]  the checkpoint's ATT entries in all
//	[12:16] its DPT entries in all
//	[16:20] ATT entries in this chunk, a
//	[20:24] DPT entries in this chunk, d
//	then a × 17 bytes: TxnID u64, LastLSN u64, Precommitted u8
//	then d × 16 bytes: PageID u64, RecLSN u64
//
// The chunks carry the ATT and then the DPT in order, and every chunk of
// a checkpoint has the same Aux, its begin record's address.
type CheckpointPayload struct {
	// ActiveTxns snapshots the active-transaction table.
	ActiveTxns []TxnTableEntry
	// DirtyPages snapshots the dirty-page table.
	DirtyPages []DirtyPageEntry
}

const (
	// CheckpointChunkHeader is the size of a chunk's header
	// (CheckpointPayload).
	CheckpointChunkHeader = 24
	// ATTEntrySize is the size of a chunk's active-transaction entry.
	ATTEntrySize = 17
	// DPTEntrySize is the size of a chunk's dirty-page entry.
	DPTEntrySize = 16
)

// CheckpointChunk is one decoded chunk of a checkpoint: its place among
// the checkpoint's chunks, the checkpoint's totals, and the entries the
// chunk carries.
type CheckpointChunk struct {
	// Index is the chunk's place, from 0; Count is how many chunks the
	// checkpoint has, so the last one's Index is Count-1.
	Index, Count int
	// ActiveTotal and DirtyTotal are the checkpoint's ATT and DPT entries
	// in all chunks.
	ActiveTotal, DirtyTotal int
	// CheckpointPayload holds this chunk's entries.
	CheckpointPayload
}

// Last reports whether the chunk is its checkpoint's final one.
func (c *CheckpointChunk) Last() bool { return c.Index == c.Count-1 }

// EncodedSize returns the length of the one chunk Encode makes: a chunk
// header and the entries.
func (c *CheckpointPayload) EncodedSize() int {
	return CheckpointChunkHeader + len(c.ActiveTxns)*ATTEntrySize + len(c.DirtyPages)*DPTEntrySize
}

// Encode appends the whole checkpoint to dst as one chunk (chunk 0 of 1)
// and returns the extended slice: EncodeChunks for a checkpoint small
// enough to need no other.
func (c *CheckpointPayload) Encode(dst []byte) []byte {
	nt, np := len(c.ActiveTxns), len(c.DirtyPages)
	return appendChunk(dst, [6]int{0, 1, nt, np, nt, np}, c.ActiveTxns, c.DirtyPages)
}

// Encode appends the chunk to dst as DecodeCheckpoint read it and returns
// the extended slice.
func (c *CheckpointChunk) Encode(dst []byte) []byte {
	hdr := [6]int{c.Index, c.Count, c.ActiveTotal, c.DirtyTotal, len(c.ActiveTxns), len(c.DirtyPages)}
	return appendChunk(dst, hdr, c.ActiveTxns, c.DirtyPages)
}

// EncodeChunks returns the checkpoint's chunks, in order, each at most
// max bytes, which must hold the header and one ATT entry. An empty
// checkpoint is one chunk of no entries.
func (c *CheckpointPayload) EncodeChunks(max int) [][]byte {
	if max < CheckpointChunkHeader+ATTEntrySize {
		panic(fmt.Sprintf("logrec: checkpoint chunks of %d bytes hold no entry", max))
	}
	type span struct{ a0, a1, d0, d1 int }
	var spans []span
	for i, j := 0, 0; len(spans) == 0 || i < len(c.ActiveTxns) || j < len(c.DirtyPages); {
		sp, room := span{a0: i, d0: j}, max-CheckpointChunkHeader
		for ; i < len(c.ActiveTxns) && room >= ATTEntrySize; i++ {
			room -= ATTEntrySize
		}
		for ; i == len(c.ActiveTxns) && j < len(c.DirtyPages) && room >= DPTEntrySize; j++ {
			room -= DPTEntrySize
		}
		sp.a1, sp.d1 = i, j
		spans = append(spans, sp)
	}
	out := make([][]byte, len(spans))
	for k, sp := range spans {
		hdr := [6]int{k, len(spans), len(c.ActiveTxns), len(c.DirtyPages), sp.a1 - sp.a0, sp.d1 - sp.d0}
		out[k] = appendChunk(nil, hdr, c.ActiveTxns[sp.a0:sp.a1], c.DirtyPages[sp.d0:sp.d1])
	}
	return out
}

// appendChunk appends a chunk of header hdr (its six words, in order)
// carrying att and dpt.
func appendChunk(dst []byte, hdr [6]int, att []TxnTableEntry, dpt []DirtyPageEntry) []byte {
	var h [CheckpointChunkHeader]byte
	for k, v := range hdr {
		binary.LittleEndian.PutUint32(h[4*k:], uint32(v))
	}
	dst = append(dst, h[:]...)
	var tmp [ATTEntrySize]byte
	for _, e := range att {
		binary.LittleEndian.PutUint64(tmp[0:8], e.TxnID)
		binary.LittleEndian.PutUint64(tmp[8:16], uint64(e.LastLSN))
		tmp[16] = 0
		if e.Precommitted {
			tmp[16] = 1
		}
		dst = append(dst, tmp[:ATTEntrySize]...)
	}
	for _, e := range dpt {
		binary.LittleEndian.PutUint64(tmp[0:8], e.PageID)
		binary.LittleEndian.PutUint64(tmp[8:16], uint64(e.RecLSN))
		dst = append(dst, tmp[:DPTEntrySize]...)
	}
	return dst
}

// DecodeCheckpoint parses one chunk, a KindCheckpointEnd payload.
func DecodeCheckpoint(src []byte) (CheckpointChunk, error) {
	if len(src) < CheckpointChunkHeader {
		return CheckpointChunk{}, ErrBadPayload
	}
	var h [6]uint64
	for k := range h {
		h[k] = uint64(binary.LittleEndian.Uint32(src[4*k:]))
	}
	index, count, at, dt, nt, np := h[0], h[1], h[2], h[3], h[4], h[5]
	if index >= count || nt > at || np > dt ||
		uint64(len(src)) != CheckpointChunkHeader+nt*ATTEntrySize+np*DPTEntrySize {
		return CheckpointChunk{}, ErrBadPayload
	}
	out := CheckpointChunk{Index: int(index), Count: int(count), ActiveTotal: int(at), DirtyTotal: int(dt)}
	off := CheckpointChunkHeader
	if nt > 0 {
		out.ActiveTxns = make([]TxnTableEntry, nt)
		for i := range out.ActiveTxns {
			if src[off+16] > 1 {
				return CheckpointChunk{}, ErrBadPayload
			}
			out.ActiveTxns[i] = TxnTableEntry{
				TxnID:        binary.LittleEndian.Uint64(src[off : off+8]),
				LastLSN:      lsn.LSN(binary.LittleEndian.Uint64(src[off+8 : off+16])),
				Precommitted: src[off+16] == 1,
			}
			off += ATTEntrySize
		}
	}
	if np > 0 {
		out.DirtyPages = make([]DirtyPageEntry, np)
		for i := range out.DirtyPages {
			out.DirtyPages[i] = DirtyPageEntry{
				PageID: binary.LittleEndian.Uint64(src[off : off+8]),
				RecLSN: lsn.LSN(binary.LittleEndian.Uint64(src[off+8 : off+16])),
			}
			off += DPTEntrySize
		}
	}
	return out, nil
}

// CheckpointGather assembles checkpoints from their chunks, fed in log
// order with whatever records fall between them left out.
type CheckpointGather struct {
	aux  uint64
	next int             // the chunk expected next; 0 when none is open
	head CheckpointChunk // the open checkpoint's first chunk
	cp   CheckpointPayload
}

// Add feeds the payload of a KindCheckpointEnd record whose Aux is aux.
// Once it is the final chunk of a checkpoint whose every other chunk came
// before it, in order, Add returns that checkpoint and true. A chunk that
// does not follow the open checkpoint's previous one — another
// checkpoint's, out of order, malformed, or disagreeing on the count or
// the totals — drops what was gathered; a first chunk starts anew.
func (g *CheckpointGather) Add(aux uint64, payload []byte) (CheckpointPayload, bool) {
	c, err := DecodeCheckpoint(payload)
	switch {
	case err != nil:
		g.next = 0
		return CheckpointPayload{}, false
	case c.Index == 0:
		g.aux, g.head, g.cp = aux, c, CheckpointPayload{}
	case g.next == 0 || aux != g.aux || c.Index != g.next || c.Count != g.head.Count ||
		c.ActiveTotal != g.head.ActiveTotal || c.DirtyTotal != g.head.DirtyTotal:
		g.next = 0
		return CheckpointPayload{}, false
	}
	g.cp.ActiveTxns = append(g.cp.ActiveTxns, c.ActiveTxns...)
	g.cp.DirtyPages = append(g.cp.DirtyPages, c.DirtyPages...)
	g.next = c.Index + 1
	if !c.Last() {
		return CheckpointPayload{}, false
	}
	g.next = 0
	if len(g.cp.ActiveTxns) != c.ActiveTotal || len(g.cp.DirtyPages) != c.DirtyTotal {
		return CheckpointPayload{}, false
	}
	return g.cp, true
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
