package logrec

import (
	"bytes"
	"encoding/binary"
	"testing"

	"aether/internal/lsn"
)

// FuzzRecordDecode fuzzes the decoders every log byte passes on its way
// back in — restart, point-in-time replay, logdump — over bytes a crash,
// rot or a hostile cold store may have left in any state: Decode, then
// DecodeUpdate or DecodeCheckpoint on what it yields. Whatever the
// input, none may panic; nothing they return is larger than the input it
// came from (images alias it, tables are counted against its length
// before they are made), and the row an insert or delete stands for —
// its image and then zeros — is no longer than a page holds, however
// short the input; and whatever they accept re-encodes to exactly
// the bytes it was decoded from — the log holds one spelling of
// everything, so a record cannot mean one thing to the code that wrote it
// and another to the code that reads it.
//
// The input is tried as a record as found, as the body of a record whose
// length is right, and as either payload on its own. No checksum stands
// behind any of it — a record's bytes are vouched for by its batch's
// seal, not by itself — so these structural refusals are all that stands
// between a malformed header and the code that reads it.
func FuzzRecordDecode(f *testing.F) {
	row := bytes.Repeat([]byte("0123456789"), 10)
	changed := append([]byte(nil), row...)
	copy(changed[8:16], "ABCDEFGH")
	up := Splice(nil, 5, row, changed)
	grow := Splice(nil, 5, row, append(changed[:50:50], row[40:]...))
	shrink := grow.Inverse()
	ckpt := CheckpointPayload{
		ActiveTxns: []TxnTableEntry{{TxnID: 7, LastLSN: 4096, Precommitted: true}, {TxnID: 9, LastLSN: lsn.Undefined}},
		DirtyPages: []DirtyPageEntry{{PageID: 3<<40 | 17, RecLSN: 100}},
	}
	clr := NewCLR(42, 3<<40|17, 4096, up.Inverse())
	clr.Seq = 77
	firstAbort := NewAbort(42)
	firstAbort.First = true
	// The four ways a record names its transaction: a first record's ID
	// and slot, a later record's slot, a later record's full ID (the
	// update below, and recovery's CLRs and end records), none.
	firstBySlot := NewUpdate(80_200, lsn.Undefined, 3<<40|17, up)
	firstBySlot.Slot = MaxSlot
	commitBySlot := &Record{Header: Header{Kind: KindCommit, Slot: 3, Seq: 9}}
	for _, rec := range []*Record{
		NewUpdate(42, 4096, 3<<40|17, up),
		NewUpdate(42, 4096, 3<<40|17, grow),
		NewCLR(42, 3<<40|17, 4096, shrink),
		NewUpdate(42, lsn.Undefined, 1<<40, UpdatePayload{Op: OpInsert, Slot: 300, After: row}),
		NewUpdate(42, lsn.Undefined, 3<<40|17, up),
		firstAbort,
		firstBySlot,
		commitBySlot,
		NewEnd(42),
		NewUpdate(42, 0, 5, UpdatePayload{Op: OpDelete, Slot: 1, Before: row[:10]}),
		NewUpdate(42, 0, 5, UpdatePayload{Op: OpInsert, Slot: 2, After: append(row[:19:19], make([]byte, 81)...)}),
		NewUpdate(42, 0, 5, UpdatePayload{Op: OpInsert, Slot: 2, After: make([]byte, 100)}),
		NewUpdate(42, 0, 5, UpdatePayload{Op: OpDelete, Slot: 2, Before: row[:1]}),
		NewCLR(42, 5, lsn.Undefined, UpdatePayload{Op: OpDelete, Slot: 2, Before: make([]byte, 100)}),
		clr,
		NewCommit(42),
		NewPad(64),
		{Header: Header{Kind: KindPad, Aux: 4000}, Payload: []byte{1, 2, 3, 4}},
		{Header: Header{Kind: KindCheckpointEnd, Aux: 12345}, Payload: ckpt.Encode(nil)},
	} {
		buf, err := rec.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		_, n := binary.Uvarint(buf)
		f.Add(buf[n:])
		f.Add(rec.Payload)
	}
	f.Add([]byte{byte(KindCommit-1) | hasTxnID, 0x81, 0x00})     // over-long varint
	f.Add([]byte{byte(KindCommit-1) | isFirst, 0x81, 0x00})      // over-long full ID
	f.Add([]byte{byte(KindCommit-1) | hasTxnID | isFirst, 5, 1}) // a commit marked first
	f.Add([]byte{byte(KindEnd-1) | hasTxnID | isFirst, 5, 1})    // an end marked first
	f.Add([]byte{byte(KindUpdate-1) | hasTxnID | isFirst, 5})    // a first record without its slot
	f.Add([]byte{byte(KindUpdate-1) | hasTxnID | isFirst, 0, 1}) // a first record of no transaction
	f.Add([]byte{byte(KindCommit-1) | hasTxnID, 0})              // a slot of zero
	f.Add([]byte{byte(KindCommit-1) | hasTxnID, 0x80, 0x01})     // a slot above MaxSlot
	pad, _ := NewPad(64).Encode()
	f.Add(append([]byte{63 | 0x80, 0}, pad[1:]...))     // non-shortest length
	f.Add(append([]byte{0}, pad[1:]...))                // zero length
	f.Add(append([]byte{64}, pad[1:]...))               // length past the input
	f.Add([]byte{byte(OpSet), 0, 0, 0, 'a'})            // X starting with a zero byte
	f.Add([]byte{byte(OpSet) | opResize, 0, 0, 0, 'a'}) // the resize bit with a zero delta
	f.Add([]byte{byte(OpSet), 0, 0, 'a', 'b', 0})       // a tail with no resize
	f.Add([]byte{byte(OpSet) | opResize, 0, 0, 4, 'a'}) // a tail longer than the payload
	f.Add([]byte{byte(OpInsert), 0, 3, 'a', 0})         // image ending in a zero byte
	f.Add([]byte{byte(OpDelete), 0, 1, 'a', 'b'})       // image longer than its row

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRecord(t, data)
		fuzzRecord(t, framed(data...))
		fuzzUpdate(t, data)
		fuzzCheckpoint(t, data)
	})
}

func fuzzRecord(t *testing.T, src []byte) {
	rec, n, err := Decode(src)
	if err != nil {
		return
	}
	if n < MinRecordSize || n > len(src) || int(rec.TotalLen) != n || len(rec.Payload) > n-MinRecordSize {
		t.Fatalf("decoded %d of %d bytes, TotalLen %d, payload %d", n, len(src), rec.TotalLen, len(rec.Payload))
	}
	again, err := rec.Encode()
	if err != nil {
		t.Fatalf("accepted record does not encode: %v (%+v)", err, rec.Header)
	}
	if !bytes.Equal(again, src[:n]) {
		t.Fatalf("record does not re-encode byte-identically:\n got %x\nfrom %x", again, src[:n])
	}
	switch rec.Kind {
	case KindUpdate, KindCLR:
		fuzzUpdate(t, rec.Payload)
	case KindCheckpointEnd:
		fuzzCheckpoint(t, rec.Payload)
	}
}

func fuzzUpdate(t *testing.T, src []byte) {
	u, err := DecodeUpdate(src)
	if err != nil {
		return
	}
	if img := len(u.Before) + len(u.After) + len(u.X) + len(u.Tail); img >= len(src) || u.EncodedSize() != len(src) {
		t.Fatalf("update of %d bytes decoded to %d image bytes, EncodedSize %d", len(src), img, u.EncodedSize())
	}
	if u.Op != OpSet && (u.RowLen > MaxRowLen || int(u.RowLen) < len(u.Before)+len(u.After)) {
		t.Fatalf("%v decoded to a %d-byte row from a %d-byte image", u.Op, u.RowLen, len(u.Before)+len(u.After))
	}
	if again := u.Encode(nil); !bytes.Equal(again, src) {
		t.Fatalf("update does not re-encode byte-identically:\n got %x\nfrom %x", again, src)
	}
	if u.Op == OpSet {
		// Apply the splice to a row that is zero where X lands: the
		// result and the row must be the rows Splice makes it from, and
		// the inverse must take the one back to the other.
		before := make([]byte, int(u.Off)+len(u.X), int(u.Off)+len(u.X)+len(u.Tail)+1)
		if u.Delta < 0 {
			before = append(before, u.Tail...)
		}
		before = append(before, 0xFF) // a suffix that ends neither image's tail
		after := applySplice(before, u)
		if s := Splice(nil, u.Slot, before, after); u.Delta == 0 && (s.Off != u.Off || !bytes.Equal(s.X, u.X)) {
			t.Fatalf("accepted an OpSet that Splice would spell otherwise: off %d X %x, Splice makes off %d X %x", u.Off, u.X, s.Off, s.X)
		}
		if back := applySplice(after, u.Inverse()); !bytes.Equal(back, before) {
			t.Fatalf("inverse of %+v turns %x back into %x", u, after, back)
		}
	}
	if inv := u.Inverse().Inverse(); inv.Op != u.Op || inv.Slot != u.Slot || inv.Off != u.Off || inv.RowLen != u.RowLen || inv.Delta != u.Delta ||
		!bytes.Equal(inv.Before, u.Before) || !bytes.Equal(inv.After, u.After) || !bytes.Equal(inv.X, u.X) || !bytes.Equal(inv.Tail, u.Tail) {
		t.Fatalf("inverse is not an involution on %+v", u)
	}
}

func fuzzCheckpoint(t *testing.T, src []byte) {
	c, err := DecodeCheckpoint(src)
	if err != nil {
		return
	}
	if c.EncodedSize() != len(src) {
		t.Fatalf("checkpoint of %d bytes decoded to %d + %d entries", len(src), len(c.ActiveTxns), len(c.DirtyPages))
	}
	if again := c.Encode(nil); !bytes.Equal(again, src) {
		t.Fatalf("checkpoint does not re-encode byte-identically:\n got %x\nfrom %x", again, src)
	}
}

// FuzzSealedStream fuzzes the iterator over a stream of sealed batches —
// the bytes a lane's flushes leave — with one byte changed or the stream
// cut short, as rot or a torn write leaves it. Whatever the input, the
// iterator stops, yields every record of each batch wholly below the
// damage and no record of any other, and a changed byte is a gap (Err),
// never a clean end: no record is ever yielded from a batch whose seal
// fails.
func FuzzSealedStream(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 40, 41, 42, 43, 200, 201}, uint32(3), byte(0x01), false)
	f.Add([]byte{3, 6, 9, 12, 15}, uint32(17), byte(0x80), false)
	f.Add([]byte{1, 5, 130, 131, 255, 254, 7}, uint32(0), byte(0xFF), false)
	f.Add([]byte{1, 5, 130, 131, 255, 254, 7}, uint32(40), byte(0), true)
	f.Add([]byte{250, 251, 252, 253}, uint32(1000), byte(0x10), false)
	f.Fuzz(func(t *testing.T, shape []byte, at uint32, x byte, cut bool) {
		const base = 4096
		stream, recs, ends := sealedStream(t, shape[:min(len(shape), 64)])
		if len(stream) == 0 {
			return
		}
		pos := int(at % uint32(len(stream)))
		if cut {
			stream = stream[:pos]
		} else {
			stream[pos] ^= max(x, 1)
		}
		good := 0 // the end of the last batch wholly below the damage
		for _, end := range ends {
			if end <= pos {
				good = end
			}
		}
		it := NewIterator(stream, base)
		n := 0
		for ; ; n++ {
			rec, ok := it.Next()
			if !ok {
				break
			}
			if n >= len(recs) || recs[n][1] > good {
				t.Fatalf("yielded a record at %v, past the last batch its seal vouches for (%d)", rec.LSN, base+good)
			}
			if want := recs[n]; rec.LSN != lsn.LSN(base+want[0]) || int(rec.TotalLen) != want[1]-want[0] {
				t.Fatalf("record %d: at %v, %d bytes; want %d, %d bytes", n, rec.LSN, rec.TotalLen, base+want[0], want[1]-want[0])
			}
		}
		if want := countBelow(recs, good); n != want {
			t.Fatalf("yielded %d records, want the %d below %d (err %v)", n, want, good, it.Err())
		}
		if !cut && it.Err() == nil {
			t.Fatalf("a byte changed at %d, and the iterator ended cleanly", pos)
		}
		if m, err := Verify(stream, base); m != good || (err == nil) != (it.Err() == nil) {
			t.Fatalf("Verify vouches for %d bytes (%v), the iterator for %d (%v)", m, err, good, it.Err())
		}
	})
}

// sealedStream builds a stream of sealed batches from shape, a record
// per byte — the byte picks its kind and size — with a seal after every
// byte divisible by three and at the end. It returns each record's
// [start, end) offsets and each batch's end (its seal's).
func sealedStream(t *testing.T, shape []byte) (stream []byte, recs [][2]int, ends []int) {
	from := 0
	for i, b := range shape {
		var rec *Record
		switch b % 4 {
		case 0:
			rec = NewPad(int(b))
		case 1:
			rec = NewCommit(uint64(b))
		case 2:
			rec = NewUpdate(uint64(i)+1, lsn.Undefined, uint64(b), Splice(nil, uint16(i), shape[:i], shape[1:i+1]))
		default:
			rec = &Record{Header: Header{Kind: KindAbort, TxnID: uint64(b), Seq: uint32(i) + 1}}
		}
		buf, err := rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, [2]int{len(stream), len(stream) + len(buf)})
		stream = append(stream, buf...)
		if b%3 == 0 || i == len(shape)-1 {
			stream = AppendSeal(stream, from)
			from = len(stream)
			ends = append(ends, from)
		}
	}
	return stream, recs, ends
}

// countBelow counts the records that end at or below end.
func countBelow(recs [][2]int, end int) int {
	n := 0
	for n < len(recs) && recs[n][1] <= end {
		n++
	}
	return n
}
