package logrec

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"aether/internal/lsn"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rec := &Record{
		Header: Header{
			Kind:   KindCLR,
			Flags:  FlagRedoOnly,
			TxnID:  77,
			Slot:   9,
			First:  true,
			PageID: 42,
			Aux:    99,
		},
		Payload: []byte("hello physiological logging"),
	}
	buf, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Length and kind byte (First costs nothing), then 77 and slot 9,
	// page 0/42 and 99.
	if want := MinRecordSize + 1 + 1 + 2 + 1 + len(rec.Payload); len(buf) != want || rec.EncodedSize() != want {
		t.Fatalf("encoded size %d (EncodedSize %d), want %d", len(buf), rec.EncodedSize(), want)
	}
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d, want %d", n, len(buf))
	}
	if got.Kind != KindCLR || got.TxnID != 77 || got.Slot != 9 || !got.First ||
		got.PageID != 42 || got.Aux != 99 || got.Flags != FlagRedoOnly {
		t.Fatalf("header mismatch: %+v", got.Header)
	}
	if !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatal("payload mismatch")
	}
}

func TestEncodeIntoWrongSize(t *testing.T) {
	rec := NewCommit(1)
	if err := rec.EncodeInto(make([]byte, rec.EncodedSize()+1)); err == nil {
		t.Fatal("wrong-size dst must fail")
	}
}

func TestEncodeInvalidKind(t *testing.T) {
	rec := &Record{Header: Header{Kind: KindInvalid}}
	if _, err := rec.Encode(); !errors.Is(err, ErrBadKind) {
		t.Fatalf("got %v, want ErrBadKind", err)
	}
	rec2 := &Record{Header: Header{Kind: numKinds}}
	if _, err := rec2.Encode(); !errors.Is(err, ErrBadKind) {
		t.Fatalf("got %v, want ErrBadKind", err)
	}
}

// Flags are implied by the kind, not logged: a value that would not come
// back is refused at encode.
func TestEncodeFlagsMustMatchKind(t *testing.T) {
	for _, rec := range []*Record{
		{Header: Header{Kind: KindUpdate, Flags: FlagRedoOnly}},
		{Header: Header{Kind: KindCLR}},
	} {
		if _, err := rec.Encode(); !errors.Is(err, ErrBadFlags) {
			t.Fatalf("%v with flags %#x: got %v, want ErrBadFlags", rec.Kind, rec.Flags, err)
		}
	}
}

// sealed returns the records' encodings as one batch closed by its seal.
func sealed(t testing.TB, recs ...*Record) []byte {
	t.Helper()
	var buf []byte
	for _, rec := range recs {
		b, err := rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b...)
	}
	return AppendSeal(buf, 0)
}

// drain runs an iterator over data to its end and returns what it
// yielded and where it stopped.
func drain(data []byte, base lsn.LSN) ([]Record, error) {
	it := NewIterator(data, base)
	var got []Record
	for {
		rec, ok := it.Next()
		if !ok {
			return got, it.Err()
		}
		got = append(got, rec)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	buf := sealed(t, NewPad(100))
	// Flip a payload byte: the seal's CRC must catch it, and the
	// iterator must not yield the record.
	buf[MinRecordSize+3] ^= 0xFF
	if got, err := drain(buf, 0); !errors.Is(err, ErrBadSeal) || len(got) != 0 {
		t.Fatalf("got %d records, %v; want none, ErrBadSeal", len(got), err)
	}
}

func TestDecodeDetectsHeaderCorruption(t *testing.T) {
	buf := sealed(t, NewCommit(9))
	buf[MinRecordSize] ^= 0x01 // the TxnID
	if got, err := drain(buf, 0); !errors.Is(err, ErrBadSeal) || len(got) != 0 {
		t.Fatalf("got %d records, %v; want none, ErrBadSeal", len(got), err)
	}
}

// TestSealShape: a seal is a pad with an Aux and a 4-byte payload and
// nothing else; every other pad with an Aux is refused at encode and at
// decode, and a seal round trips through both.
func TestSealShape(t *testing.T) {
	var seal [MaxSealSize]byte
	for _, n := range []int{1, 127, 128, 16_383, 16_384, 1 << 30} {
		k := PutSeal(seal[:], n, 0xC0FFEE)
		if k != SealSize(n) {
			t.Fatalf("seal of %d bytes: %d long, SealSize says %d", n, k, SealSize(n))
		}
		rec, m, err := Decode(seal[:k])
		if err != nil || m != k || rec.Kind != KindPad || rec.Aux != uint64(n) || binary.LittleEndian.Uint32(rec.Payload) != 0xC0FFEE {
			t.Fatalf("seal of %d bytes decoded to %+v (%d bytes), %v", n, rec.Header, m, err)
		}
		if again, err := rec.Encode(); err != nil || !bytes.Equal(again, seal[:k]) {
			t.Fatalf("seal of %d bytes re-encodes to %x, %v; want %x", n, again, err, seal[:k])
		}
	}
	pad := byte(KindPad-1) | hasAux
	for _, tc := range []struct {
		name string
		rec  Record
		body []byte
	}{
		{"three-byte CRC", Record{Header: Header{Kind: KindPad, Aux: 9}, Payload: make([]byte, 3)}, []byte{pad, 9, 1, 2, 3}},
		{"five-byte CRC", Record{Header: Header{Kind: KindPad, Aux: 9}, Payload: make([]byte, 5)}, []byte{pad, 9, 1, 2, 3, 4, 5}},
		{"a TxnID", Record{Header: Header{Kind: KindPad, TxnID: 3, Aux: 9}, Payload: make([]byte, 4)}, []byte{pad | hasTxnID, 3, 9, 1, 2, 3, 4}},
		{"a PageID", Record{Header: Header{Kind: KindPad, PageID: 3, Aux: 9}, Payload: make([]byte, 4)}, []byte{pad | hasPageID, 0, 3, 9, 1, 2, 3, 4}},
		{"a Seq", Record{Header: Header{Kind: KindPad, Aux: 9, Seq: 3}}, []byte{pad | hasSeq, 9, 3, 1, 2, 3, 4}},
	} {
		if _, err := tc.rec.Encode(); !errors.Is(err, ErrBadHeader) {
			t.Errorf("seal with %s: encode %v, want ErrBadHeader", tc.name, err)
		}
		if _, _, err := Decode(framed(tc.body...)); !errors.Is(err, ErrBadHeader) {
			t.Errorf("seal with %s: decode %v, want ErrBadHeader", tc.name, err)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	rec := NewPad(200)
	buf, _ := rec.Encode()
	if _, _, err := Decode(buf[:MinRecordSize-1]); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short header: got %v", err)
	}
	if _, _, err := Decode(buf[:150]); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short payload: got %v", err)
	}
}

// TestDecodeBadLength: a length that is not the shortest spelling of a
// possible one is ErrBadLength, whatever follows it; one that runs past
// the input is ErrTooShort. PeekLen reads neither.
func TestDecodeBadLength(t *testing.T) {
	pad, _ := NewPad(64).Encode() // length 63 in one byte
	body := pad[1:]
	for _, tc := range []struct {
		name string
		src  []byte
		want error
	}{
		{"zero length", append([]byte{0}, body...), ErrBadLength},
		{"length below the smallest record", append([]byte{MinRecordSize - 2}, body...), ErrBadLength},
		{"non-shortest length", append([]byte{63 | 0x80, 0}, body...), ErrBadLength},
		{"non-shortest length of 128", append([]byte{0x80, 0x81, 0}, make([]byte, 128)...), ErrBadLength},
		{"length past MaxPayload", append(binary.AppendUvarint(nil, maxHeaderSize+MaxPayload+1), body...), ErrBadLength},
		{"length beyond 64 bits", bytes.Repeat([]byte{0xff}, 11), ErrBadLength},
		{"length past the input", append([]byte{64}, body...), ErrTooShort},
		{"unterminated length", []byte{0x80}, ErrTooShort},
		{"empty input", nil, ErrTooShort},
	} {
		if _, _, err := Decode(tc.src); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if tc.want == ErrBadLength {
			if got := PeekLen(tc.src); got != 0 {
				t.Errorf("%s: PeekLen %d, want 0", tc.name, got)
			}
		}
	}
}

func TestPeekLen(t *testing.T) {
	for _, size := range []int{MinRecordSize, 128, 300} {
		buf, _ := NewPad(size).Encode()
		if got := PeekLen(buf); got != size {
			t.Fatalf("PeekLen of a %d-byte record: got %d", size, got)
		}
	}
	buf, _ := NewPad(300).Encode()
	if got := PeekLen(buf[:1]); got != 0 {
		t.Fatalf("PeekLen inside a two-byte length: got %d", got)
	}
}

// TestLengthVarintBoundaries: on each side of the length varint's width
// steps, and at the largest payload, a record encodes to EncodedSize
// bytes with its length in the shortest varint, and decodes whole.
func TestLengthVarintBoundaries(t *testing.T) {
	for _, tc := range []struct {
		rest, width int // the length's value and its width in bytes
	}{
		{MinRecordSize - 1, 1},
		{127, 1}, {128, 2},
		{16_383, 2}, {16_384, 3},
		{1 + MaxPayload, 4},
	} {
		rec := &Record{Header: Header{Kind: KindPad}, Payload: make([]byte, tc.rest-1)}
		buf, err := rec.Encode()
		if err != nil {
			t.Fatalf("length %d: %v", tc.rest, err)
		}
		if len(buf) != tc.width+tc.rest || rec.EncodedSize() != len(buf) {
			t.Fatalf("length %d: %d bytes (EncodedSize %d), want %d", tc.rest, len(buf), rec.EncodedSize(), tc.width+tc.rest)
		}
		if v, n := binary.Uvarint(buf); int(v) != tc.rest || n != tc.width {
			t.Fatalf("length %d: the frame says %d in %d bytes", tc.rest, v, n)
		}
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) || int(got.TotalLen) != len(buf) || len(got.Payload) != len(rec.Payload) || PeekLen(buf) != len(buf) {
			t.Fatalf("length %d: decoded %d bytes, TotalLen %d, payload %d, PeekLen %d: %v",
				tc.rest, n, got.TotalLen, len(got.Payload), PeekLen(buf), err)
		}
		if _, _, err := Decode(buf[:tc.width-1]); !errors.Is(err, ErrTooShort) {
			t.Fatalf("length %d cut inside its varint: %v, want ErrTooShort", tc.rest, err)
		}
		if _, _, err := Decode(buf[:len(buf)-1]); !errors.Is(err, ErrTooShort) {
			t.Fatalf("length %d one byte short: %v, want ErrTooShort", tc.rest, err)
		}
	}
	big := &Record{Header: Header{Kind: KindPad}, Payload: make([]byte, MaxPayload+1)}
	if _, err := big.Encode(); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("payload past MaxPayload: %v, want ErrPayloadTooLarge", err)
	}
}

// TestFirstRecordMark: the first-record mark and the four ways a record
// names its transaction (Header's layout) round trip on every kind a
// transaction can open with. A first record costs its full ID and one
// byte of slot, 0 for none; a later
// record costs one byte with a slot, and reads back with TxnID 0 (the
// resolver's job), or its full ID without one. On a commit, an end or a
// record with no TxnID an encode request for the first mark is refused,
// and the first-record bits there are a malformed header.
func TestFirstRecordMark(t *testing.T) {
	up := Splice(nil, 80, []byte{1, 2, 3, 4}, []byte{4, 3, 2, 1})
	for _, rec := range []*Record{
		NewUpdate(80_200, 33_000_000, 3<<40|1300, up),
		NewCLR(80_200, 3<<40|1300, 4096, up.Inverse()),
		NewAbort(80_200),
	} {
		bare := rec.EncodedSize() - 3 // less the 3-byte ID
		for _, tc := range []struct {
			first     bool
			slot      uint8
			id, slots int    // the bytes Sizes gives each
			want      Header // the name as it reads back
		}{
			{true, 7, 3, 1, Header{TxnID: 80_200, Slot: 7, First: true}},
			{true, 0, 3, 1, Header{TxnID: 80_200, First: true}},
			{false, MaxSlot, 0, 1, Header{Slot: MaxSlot}},
			{false, 0, 3, 0, Header{TxnID: 80_200}},
		} {
			rec.First, rec.Slot = tc.first, tc.slot
			buf, err := rec.Encode()
			if err != nil {
				t.Fatalf("%v first=%v slot=%d: %v", rec.Kind, tc.first, tc.slot, err)
			}
			if size := bare + tc.id + tc.slots; len(buf) != size || rec.EncodedSize() != size {
				t.Errorf("%v first=%v slot=%d: %d bytes (EncodedSize %d), want %d", rec.Kind, tc.first, tc.slot, len(buf), rec.EncodedSize(), size)
			}
			got, _, err := Decode(buf)
			if err != nil || got.Kind != rec.Kind || got.TxnID != tc.want.TxnID || got.Slot != tc.want.Slot || got.First != tc.want.First {
				t.Errorf("%v first=%v slot=%d decoded to %+v, %v", rec.Kind, tc.first, tc.slot, got.Header, err)
			}
			if s := rec.Sizes(); s.TxnID != tc.id || s.Slots != tc.slots {
				t.Errorf("%v first=%v slot=%d: Sizes gives %d ID and %d slot bytes", rec.Kind, tc.first, tc.slot, s.TxnID, s.Slots)
			}
		}
	}
	if !NewUpdate(5, lsn.Undefined, 7, up).First || NewUpdate(5, 0, 7, up).First {
		t.Error("NewUpdate marks first exactly the update with no previous record")
	}
	if _, err := (&Record{Header: Header{Kind: KindCommit, Slot: MaxSlot + 1}}).Encode(); !errors.Is(err, ErrBadSlot) {
		t.Errorf("slot %d: got %v, want ErrBadSlot", MaxSlot+1, err)
	}
	for _, h := range []Header{
		{Kind: KindCommit, TxnID: 80_200, First: true},
		{Kind: KindEnd, TxnID: 80_200, First: true},
		{Kind: KindAbort, First: true},
		{Kind: KindPad, First: true},
	} {
		if _, err := (&Record{Header: h}).Encode(); !errors.Is(err, ErrBadFirst) {
			t.Errorf("%v (txn %d) marked first: got %v, want ErrBadFirst", h.Kind, h.TxnID, err)
		}
		if h.TxnID == 0 {
			continue
		}
		if _, _, err := Decode(framed(byte(h.Kind-1)|hasTxnID|isFirst, 5, 1)); !errors.Is(err, ErrBadHeader) {
			t.Errorf("%v with the first-record bits: got %v, want ErrBadHeader", h.Kind, err)
		}
	}
	if n := NewCommit(80_200).EncodedSize(); n != MinRecordSize+3 {
		t.Errorf("TPC-B commit: %d bytes, want %d", n, MinRecordSize+3)
	}
	if n := (&Record{Header: Header{Kind: KindCommit, TxnID: 80_200, Slot: 1}}).EncodedSize(); n != MinRecordSize+1 {
		t.Errorf("TPC-B commit by slot: %d bytes, want %d", n, MinRecordSize+1)
	}
}

// TestIteratorWalksStream: the iterator yields every record of a stream
// of sealed batches at its address, and none of the seals.
func TestIteratorWalksStream(t *testing.T) {
	var stream []byte
	var lsns []lsn.LSN
	for i := 0; i < 10; i++ {
		buf, _ := NewPad(48 + i*13).Encode()
		lsns = append(lsns, lsn.LSN(1000+len(stream)))
		stream = append(stream, buf...)
		if i%3 == 2 {
			stream = AppendSeal(stream, int(lsns[i-2]-1000))
		}
	}
	stream = AppendSeal(stream, int(lsns[9]-1000))
	got, err := drain(stream, 1000)
	if err != nil {
		t.Fatalf("unexpected gap: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("decoded %d records, want 10", len(got))
	}
	for i, rec := range got {
		if rec.LSN != lsns[i] || rec.Aux != 0 {
			t.Fatalf("record %d at %v (Aux %d), want a pad at %v", i, rec.LSN, rec.Aux, lsns[i])
		}
	}
	if n, err := Verify(stream, 1000); n != len(stream) || err != nil {
		t.Fatalf("Verify: %d of %d bytes, %v", n, len(stream), err)
	}
}

// TestIteratorStopsAtGap: a corrupt batch is a gap, and the iterator
// yields none of its records, the first of them included.
func TestIteratorStopsAtGap(t *testing.T) {
	first := sealed(t, NewPad(64))
	stream := append(append([]byte{}, first...), sealed(t, NewPad(64), NewPad(64))...)
	stream[len(first)+70] ^= 0xFF // corrupt the second batch's second record
	it := NewIterator(stream, 0)
	if _, ok := it.Next(); !ok {
		t.Fatal("the first batch should decode")
	}
	if _, ok := it.Next(); ok {
		t.Fatal("the second batch should be a gap")
	}
	if !errors.Is(it.Err(), ErrBadSeal) {
		t.Fatalf("iterator should report the gap as ErrBadSeal, got %v", it.Err())
	}
	if n, err := Verify(stream, 0); n != len(first) || !errors.Is(err, ErrBadSeal) {
		t.Fatalf("Verify: %d bytes, %v; want %d, ErrBadSeal", n, err, len(first))
	}
}

// TestIteratorRefusesUnsealedTail: records no seal closes are never
// yielded; a stream that ends in them ends at a gap.
func TestIteratorRefusesUnsealedTail(t *testing.T) {
	first := sealed(t, NewPad(64))
	tail, _ := NewCommit(7).Encode()
	stream := append(append(append([]byte{}, first...), tail...), make([]byte, 20)...)
	got, err := drain(stream, 0)
	if len(got) != 1 || !errors.Is(err, ErrBadSeal) {
		t.Fatalf("got %d records, %v; want the first batch's one, then ErrBadSeal", len(got), err)
	}
	// Over checked bytes the verified iterator yields what the seals
	// vouch for, starting mid-batch too, and skips the seals.
	two := sealed(t, NewPad(64), NewCommit(7))
	it := NewVerifiedIterator(two[64:], 64)
	if rec, ok := it.Next(); !ok || rec.Kind != KindCommit || rec.LSN != 64 {
		t.Fatalf("verified iterator from mid-batch: %+v, %v", rec.Header, ok)
	}
	if _, ok := it.Next(); ok || it.Err() != nil {
		t.Fatalf("verified iterator yielded the seal, or stopped at %v", it.Err())
	}
}

func TestIteratorCleanEndOnZeros(t *testing.T) {
	stream := append(sealed(t, NewPad(64)), make([]byte, 100)...)
	it := NewIterator(stream, 0)
	if _, ok := it.Next(); !ok {
		t.Fatal("first record should decode")
	}
	if _, ok := it.Next(); ok {
		t.Fatal("zero tail should end the stream")
	}
	if it.Err() != nil {
		t.Fatalf("zero tail is a clean end, got %v", it.Err())
	}
}

func TestIteratorEmpty(t *testing.T) {
	it := NewIterator(nil, 0)
	if _, ok := it.Next(); ok {
		t.Fatal("empty stream should yield nothing")
	}
	if it.Err() != nil {
		t.Fatal("empty stream is clean")
	}
}

func TestUpdatePayloadRoundTrip(t *testing.T) {
	for _, u := range []UpdatePayload{
		{Op: OpSet, Slot: 7, Off: 3, X: []byte("\x01a"), Tail: []byte("er"), Delta: 2},
		{Op: OpSet, Slot: 7, Off: 3, X: []byte("\x01a"), Tail: []byte("er"), Delta: -2},
		{Op: OpSet, Slot: 300, Off: 90, X: []byte("\x01\x00a")},
	} {
		enc := u.Encode(nil)
		if len(enc) != u.EncodedSize() {
			t.Fatalf("size mismatch: %d vs %d", len(enc), u.EncodedSize())
		}
		got, err := DecodeUpdate(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Op != OpSet || got.Slot != u.Slot || got.Off != u.Off || got.Delta != u.Delta ||
			!bytes.Equal(got.X, u.X) || !bytes.Equal(got.Tail, u.Tail) {
			t.Fatalf("round trip mismatch: %+v, want %+v", got, u)
		}
	}
}

func TestUpdatePayloadMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  []byte
	}{
		{"empty", nil},
		{"unknown op", []byte{99, 0, 'x'}},
		{"set without an offset", []byte{byte(OpSet), 2}},
		{"resize longer than the payload", []byte{byte(OpSet) | opResize, 0, 0, 10, 'a'}},
		{"over-long slot varint", []byte{byte(OpInsert), 0x80, 0x00, 'x'}},
		{"slot beyond uint16", []byte{byte(OpInsert), 0xff, 0xff, 0x04, 'x'}},
		{"over-long offset varint", []byte{byte(OpSet), 0, 0x81, 0x00, 'a'}},
		{"offset beyond a row", binary.AppendUvarint([]byte{byte(OpSet), 0}, MaxRowLen+1)},
		{"X starting with a zero byte (shared first byte)", []byte{byte(OpSet), 0, 0, 0, 'a'}},
		{"X of a resize starting with a zero byte", []byte{byte(OpSet) | opResize, 0, 0, 2, 0, 'a'}},
		{"X ending in a zero byte (shared last byte)", []byte{byte(OpSet), 0, 0, 'a', 0}},
		{"tail with no resize", []byte{byte(OpSet), 0, 0, 'a', 'b', 0, 0}},
		{"resize of zero bytes", []byte{byte(OpSet) | opResize, 0, 0, 0, 'a'}},
		{"over-long delta varint", []byte{byte(OpSet) | opResize, 0, 0, 0x82, 0x00, 'a'}},
		{"resize beyond a row", binary.AppendUvarint([]byte{byte(OpSet) | opResize, 0, 0}, 2*MaxRowLen+1)},
		{"resize bit on an insert", []byte{byte(OpInsert) | opResize, 0, 1, 'a'}},
		{"resize bit on a delete", []byte{byte(OpDelete) | opResize, 0, 1, 'a'}},
		{"empty splice away from offset 0", []byte{byte(OpSet), 0, 3}},
		{"insert without a row length", []byte{byte(OpInsert), 0}},
		{"insert image ending in a zero byte", []byte{byte(OpInsert), 0, 3, 'a', 0}},
		{"delete image ending in a zero byte", []byte{byte(OpDelete), 0, 3, 0}},
		{"insert image longer than its row", []byte{byte(OpInsert), 0, 1, 'a', 'b'}},
		{"over-long row length varint", []byte{byte(OpInsert), 0, 0x82, 0x00, 'a'}},
		{"row longer than a page holds", binary.AppendUvarint([]byte{byte(OpDelete), 0}, MaxRowLen+1)},
	} {
		if _, err := DecodeUpdate(tc.src); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: got %v, want ErrBadPayload", tc.name, err)
		}
	}
}

// TestRowImageDropsZeroTail: an insert's or delete's row is logged as
// its length and its bytes up to the last non-zero one, and decodes to
// that image and the length; its inverse keeps the length, and both
// re-encode to the same bytes.
func TestRowImageDropsZeroTail(t *testing.T) {
	padded := append([]byte("key:1"), make([]byte, 95)...)
	for _, tc := range []struct {
		name string
		row  []byte
		want []byte // the payload after op and slot
	}{
		{"zero-padded row", padded, append([]byte{100}, "key:1"...)},
		{"all-zero row", make([]byte, 100), []byte{100}},
		{"no zero tail", []byte("full"), []byte{4, 'f', 'u', 'l', 'l'}},
		{"one-byte row", []byte{7}, []byte{1, 7}},
		{"one zero byte", []byte{0}, []byte{1}},
		{"empty row", nil, []byte{0}},
		{"zero inside the image", []byte{1, 0, 2, 0}, []byte{4, 1, 0, 2}},
	} {
		for _, u := range []UpdatePayload{
			{Op: OpInsert, Slot: 3, After: tc.row},
			{Op: OpDelete, Slot: 3, Before: tc.row},
		} {
			enc := u.Encode(nil)
			if want := append([]byte{byte(u.Op), 3}, tc.want...); !bytes.Equal(enc, want) || u.EncodedSize() != len(enc) {
				t.Errorf("%s %v: encoded %x (EncodedSize %d), want %x", tc.name, u.Op, enc, u.EncodedSize(), want)
				continue
			}
			got, err := DecodeUpdate(enc)
			if err != nil {
				t.Errorf("%s %v: %v", tc.name, u.Op, err)
				continue
			}
			img := got.After
			if u.Op == OpDelete {
				img = got.Before
			}
			if int(got.RowLen) != len(tc.row) || !bytes.Equal(img, tc.want[1:]) {
				t.Errorf("%s %v: decoded %d-byte row %x, want %d bytes %x", tc.name, u.Op, got.RowLen, img, len(tc.row), tc.want[1:])
			}
			inv, again := got.Inverse(), got.Inverse().Inverse()
			if inv.RowLen != got.RowLen || !bytes.Equal(again.Encode(nil), enc) {
				t.Errorf("%s %v: inverse %+v does not keep the row", tc.name, u.Op, inv)
			}
			if back, err := DecodeUpdate(inv.Encode(nil)); err != nil || back.RowLen != got.RowLen {
				t.Errorf("%s %v: inverse decoded %+v, %v", tc.name, u.Op, back, err)
			}
		}
	}
}

// Encoding an insert trims its row where it stands: re-arming a record
// with a zero-padded row allocates nothing.
func TestRowImageEncodeDoesNotAllocate(t *testing.T) {
	row := append([]byte("history row"), make([]byte, 89)...)
	up := UpdatePayload{Op: OpInsert, Slot: 4, After: row}
	var rec Record
	rec.SetUpdate(1, 2, 3, up)
	if n := testing.AllocsPerRun(100, func() { rec.SetUpdate(1, 2, 3, up); rec.SetCLR(1, 3, 4, up.Inverse()) }); n != 0 {
		t.Fatalf("SetUpdate + SetCLR of a zero-padded row allocate %.0f objects", n)
	}
	if len(rec.Payload) != 3+len("history row") {
		t.Fatalf("CLR payload %x carries the zero tail", rec.Payload)
	}
}

// A CLR stores its undo-next pointer plus one: the end of a chain is the
// absent Aux and costs no bytes, and LSN 0 stays a pointer.
func TestCLRUndoNextEndsChainFree(t *testing.T) {
	up := UpdatePayload{Op: OpInsert, Slot: 1, After: []byte("r")}
	end := NewCLR(5, 7, lsn.Undefined, up)
	toZero := NewCLR(5, 7, 0, up)
	if end.Aux != 0 || end.UndoNext() != lsn.Undefined || end.EncodedSize() != toZero.EncodedSize()-1 {
		t.Fatalf("chain-end CLR: Aux %d, UndoNext %v, %d bytes against %d for undo-next 0",
			end.Aux, end.UndoNext(), end.EncodedSize(), toZero.EncodedSize())
	}
	for _, rec := range []*Record{end, toZero} {
		buf, err := rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Decode(buf)
		if err != nil || got.UndoNext() != rec.UndoNext() {
			t.Fatalf("CLR with undo-next %v decoded to %v, %v", rec.UndoNext(), got.UndoNext(), err)
		}
	}
}

// framed wraps a kind byte, header fields and payload in a valid length,
// so what Decode judges is the header after it.
func framed(body ...byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// TestDecodeRefusesNonCanonicalHeaders: after a valid length, a header
// that is not the one spelling of its fields is ErrBadHeader — so a
// record Decode accepts re-encodes to the bytes it came from.
func TestDecodeRefusesNonCanonicalHeaders(t *testing.T) {
	commit, abort := byte(KindCommit-1), byte(KindAbort-1)
	maxU64 := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"present TxnID of zero", []byte{commit | isFirst, 0}},
		{"over-long TxnID", []byte{commit | isFirst, 0x81, 0x00}},
		{"TxnID past the record's end", []byte{commit | isFirst}},
		{"unterminated varint", []byte{commit | isFirst, 0x80}},
		{"present slot of zero", []byte{commit | hasTxnID, 0}},
		{"slot past the record's end", []byte{commit | hasTxnID}},
		{"slot above MaxSlot", []byte{commit | hasTxnID, 0x80, 0x01}},
		{"over-long slot", []byte{commit | hasTxnID, 0x85, 0x00}},
		{"first record without its slot", []byte{abort | hasTxnID | isFirst, 5}},
		{"first record's slot above MaxSlot", []byte{abort | hasTxnID | isFirst, 5, 0x80, 0x01}},
		{"first record of TxnID zero", []byte{abort | hasTxnID | isFirst, 0, 1}},
		{"commit marked first", []byte{commit | hasTxnID | isFirst, 5, 1}},
		{"varint beyond 64 bits", append([]byte{commit | hasAux, 0xff}, maxU64...)},
		{"present PageID of zero", []byte{commit | hasPageID, 0, 0}},
		{"page space beyond 24 bits", []byte{commit | hasPageID, 0x80, 0x80, 0x80, 0x08, 1}},
		{"page number beyond 40 bits", []byte{commit | hasPageID, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}},
		{"present Aux of zero", []byte{commit | hasAux, 0}},
		{"present Seq of zero", []byte{commit | hasSeq, 0}},
		{"Seq beyond 32 bits", []byte{commit | hasSeq, 0x80, 0x80, 0x80, 0x80, 0x10}},
	} {
		if _, _, err := Decode(framed(tc.body...)); !errors.Is(err, ErrBadHeader) {
			t.Errorf("%s: got %v, want ErrBadHeader", tc.name, err)
		}
	}
	// The same frame around a well-formed header decodes.
	if rec, _, err := Decode(framed(abort|hasTxnID|isFirst, 5, 3)); err != nil || rec.TxnID != 5 || rec.Slot != 3 || !rec.First {
		t.Fatalf("well-formed header: %+v, %v", rec.Header, err)
	}
}

// TestAbsentFieldsCostNothing pins the sizes the format exists for: a
// field at its absent value takes no bytes, a present one its varint.
func TestAbsentFieldsCostNothing(t *testing.T) {
	const page = 3<<40 | 1300 // storage.MakePageID(3, 1300)
	for _, tc := range []struct {
		name string
		rec  *Record
		want int
	}{
		{"checkpoint begin", &Record{Header: Header{Kind: KindCheckpointBegin}}, 2},
		{"first commit of a log", NewCommit(1), 3},
		{"TPC-B commit, full ID", NewCommit(80_200), 2 + 3},
		{"TPC-B commit", &Record{Header: Header{Kind: KindCommit, Slot: 12}}, 2 + 1},
		{"TPC-B commit, lane of three", &Record{Header: Header{Kind: KindCommit, Slot: 12, Seq: 400_000}}, 5 + 1},
		{"page id", &Record{Header: Header{Kind: KindUpdate, PageID: page}}, 2 + 1 + 2},
		{"TPC-B update", withSlot(NewUpdate(0, 33_000_000, page, Splice(nil, 80, []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4, 3, 2, 1})), 12), 2 + 1 + 3 + 3 + 8},
		{"TPC-B first update", withSlot(NewUpdate(80_200, lsn.Undefined, page, Splice(nil, 80, []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4, 3, 2, 1})), 12), 2 + 3 + 1 + 3 + 3 + 8},
		{"seal of a TPC-B flush", &Record{Header: Header{Kind: KindPad, Aux: 4_000}, Payload: make([]byte, 4)}, 2 + 2 + 4},
		// Every field at its widest is a 37-byte rest: a one-byte length.
		{"everything at its widest", &Record{Header: Header{Kind: KindCLR, Flags: FlagRedoOnly, TxnID: math.MaxUint64, Slot: MaxSlot,
			First: true, PageID: math.MaxUint64, Aux: math.MaxUint64, Seq: math.MaxUint32}}, maxHeaderSize - maxLenSize + 1},
	} {
		buf, err := tc.rec.Encode()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(buf) != tc.want {
			t.Errorf("%s: %d bytes, want %d", tc.name, len(buf), tc.want)
		}
		got, _, err := Decode(buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := tc.rec.Header
		want.TotalLen = got.TotalLen
		if got.Header != want {
			t.Errorf("%s: decoded %+v, encoded %+v", tc.name, got.Header, want)
		}
	}
}

// withSlot sets rec's slot.
func withSlot(rec *Record, slot uint8) *Record {
	rec.Slot = slot
	return rec
}

// applySplice is what a splice means, on a plain byte slice: X XORed
// into row[Off:], then Tail inserted after it or |Delta| bytes removed
// there.
func applySplice(row []byte, u UpdatePayload) []byte {
	end := int(u.Off) + len(u.X)
	out := append([]byte(nil), row[:end]...)
	subtle.XORBytes(out[u.Off:], out[u.Off:], u.X)
	if u.Delta > 0 {
		out = append(out, u.Tail...)
	}
	return append(out, row[end+max(-int(u.Delta), 0):]...)
}

// spliced returns the images a splice turns into each other, b into a:
// X is b ⊕ a over their common length and Tail the longer one's rest.
func spliced(b, a string) (x, tail []byte, delta int32) {
	n := min(len(b), len(a))
	x = make([]byte, n)
	subtle.XORBytes(x, []byte(b[:n]), []byte(a[:n]))
	if len(a) > n {
		return x, []byte(a[n:]), int32(len(a) - n)
	}
	return x, []byte(b[n:]), -int32(len(b) - n)
}

// TestSpliceTrimsToWhatChanged: Splice keeps exactly the bytes between
// the rows' common prefix and common suffix, spelt as their XOR and the
// longer one's rest; the payload it makes is one DecodeUpdate accepts,
// and it and its inverse turn each row into the other.
func TestSpliceTrimsToWhatChanged(t *testing.T) {
	row := func(s string) []byte { return []byte(s) }
	long := bytes.Repeat([]byte("0123456789"), 10)
	field := append([]byte(nil), long...)
	copy(field[8:16], "ABCDEFGH")
	for _, tc := range []struct {
		name          string
		before, after []byte
		off           uint32
		b, a          string // the trimmed images
	}{
		{"all changed", row("abcd"), row("wxyz"), 0, "abcd", "wxyz"},
		{"nothing changed", row("same"), row("same"), 0, "", ""},
		{"both empty", nil, nil, 0, "", ""},
		{"first byte", row("abcd"), row("xbcd"), 0, "a", "x"},
		{"last byte", row("abcd"), row("abcx"), 3, "d", "x"},
		{"middle", row("abcdef"), row("abXYef"), 2, "cd", "XY"},
		{"grow at the end", row("beta"), row("beta2"), 4, "", "2"},
		{"shrink at the end", row("beta2"), row("beta"), 4, "2", ""},
		{"grow in the middle", row("aXc"), row("aXYZc"), 2, "", "YZ"},
		{"grow and change", row("aXc"), row("aYZWc"), 1, "X", "YZW"},
		{"shrink and change", row("aYZWc"), row("aXc"), 1, "YZW", "X"},
		{"shrink to a repeated byte", row("aa"), row("a"), 1, "a", ""},
		{"grow from empty", nil, row("new"), 0, "", "new"},
		{"8-byte field of a 100-byte row", long, field, 8, "89012345", "ABCDEFGH"},
		{"100-byte row, last byte", long, append(append([]byte(nil), long[:99]...), 'x'), 99, "9", "x"},
	} {
		u := Splice(nil, 7, tc.before, tc.after)
		x, tail, delta := spliced(tc.b, tc.a)
		if u.Op != OpSet || u.Slot != 7 || u.Off != tc.off || !bytes.Equal(u.X, x) || !bytes.Equal(u.Tail, tail) || u.Delta != delta {
			t.Errorf("%s: Splice = off %d X %x tail %q delta %d, want off %d X %x tail %q delta %d",
				tc.name, u.Off, u.X, u.Tail, u.Delta, tc.off, x, tail, delta)
			continue
		}
		got, err := DecodeUpdate(u.Encode(nil))
		if err != nil || got.Off != u.Off || !bytes.Equal(got.X, u.X) || !bytes.Equal(got.Tail, u.Tail) || got.Delta != u.Delta {
			t.Errorf("%s: decoded %+v, %v", tc.name, got, err)
		}
		if fwd := applySplice(tc.before, u); !bytes.Equal(fwd, tc.after) {
			t.Errorf("%s: applied %q, want %q", tc.name, fwd, tc.after)
		}
		if back := applySplice(tc.after, u.Inverse()); !bytes.Equal(back, tc.before) {
			t.Errorf("%s: inverse applied %q, want %q", tc.name, back, tc.before)
		}
	}
}

// Property: for any two rows, Splice round-trips through the codec and
// through application, both ways, and logs no byte outside what
// differs.
func TestQuickSplice(t *testing.T) {
	f := func(prefix, a, b, suffix []byte) bool {
		before := append(append(append([]byte(nil), prefix...), a...), suffix...)
		after := append(append(append([]byte(nil), prefix...), b...), suffix...)
		u := Splice(nil, 1, before, after)
		enc := u.Encode(nil)
		got, err := DecodeUpdate(enc)
		if err != nil || len(enc) != u.EncodedSize() || !bytes.Equal(got.Encode(nil), enc) {
			return false
		}
		grown, shrunk := max(int(u.Delta), 0), max(-int(u.Delta), 0)
		if len(u.X)+len(u.Tail) > 0 && (int(u.Off) < len(prefix) || len(u.X)+shrunk > len(a) || len(u.X)+grown > len(b)) {
			return false
		}
		return bytes.Equal(applySplice(before, got), after) &&
			bytes.Equal(applySplice(after, got.Inverse()), before)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Splice runs under the page latch of every update: it must not allocate.
func TestSpliceDoesNotAllocate(t *testing.T) {
	before, after := bytes.Repeat([]byte{7}, 100), bytes.Repeat([]byte{7}, 100)
	after[9], after[12] = 1, 2
	var rec Record
	x := make([]byte, 0, 8)                             // the caller's X scratch, reused
	rec.SetUpdate(1, 2, 3, Splice(x, 4, before, after)) // sizes the record's buffer
	if n := testing.AllocsPerRun(100, func() { rec.SetUpdate(1, 2, 3, Splice(x, 4, before, after)) }); n != 0 {
		t.Fatalf("Splice + SetUpdate allocate %.0f objects", n)
	}
}

func TestUpdateInverse(t *testing.T) {
	set := UpdatePayload{Op: OpSet, Slot: 3, Off: 9, X: []byte("a"), Tail: []byte("bc"), Delta: 2}
	inv := set.Inverse()
	if inv.Op != OpSet || inv.Off != 9 || string(inv.X) != "a" || string(inv.Tail) != "bc" || inv.Delta != -2 {
		t.Fatalf("set inverse wrong: %+v", inv)
	}
	ins := UpdatePayload{Op: OpInsert, Slot: 3, After: []byte("row")}
	if inv := ins.Inverse(); inv.Op != OpDelete || string(inv.Before) != "row" {
		t.Fatalf("insert inverse wrong: %+v", inv)
	}
	del := UpdatePayload{Op: OpDelete, Slot: 3, Before: []byte("row")}
	if inv := del.Inverse(); inv.Op != OpInsert || string(inv.After) != "row" {
		t.Fatalf("delete inverse wrong: %+v", inv)
	}
	// Inverse twice = original (for all ops).
	if got := ins.Inverse().Inverse(); got.Op != OpInsert || string(got.After) != "row" {
		t.Fatalf("double inverse wrong: %+v", got)
	}
}

func TestCheckpointPayloadRoundTrip(t *testing.T) {
	c := CheckpointPayload{
		ActiveTxns: []TxnTableEntry{
			{TxnID: 1, LastLSN: 100, Precommitted: true},
			{TxnID: 2, LastLSN: 200},
		},
		DirtyPages: []DirtyPageEntry{
			{PageID: 10, RecLSN: 50},
			{PageID: 11, RecLSN: 60},
			{PageID: 12, RecLSN: 70},
		},
	}
	enc := c.Encode(nil)
	if len(enc) != c.EncodedSize() {
		t.Fatalf("size mismatch: %d vs %d", len(enc), c.EncodedSize())
	}
	got, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ActiveTxns) != 2 || len(got.DirtyPages) != 3 {
		t.Fatalf("lengths wrong: %+v", got)
	}
	if got.ActiveTxns[0] != c.ActiveTxns[0] || got.ActiveTxns[1] != c.ActiveTxns[1] {
		t.Fatal("ATT mismatch")
	}
	if got.DirtyPages[2] != c.DirtyPages[2] {
		t.Fatal("DPT mismatch")
	}
}

func TestCheckpointEmpty(t *testing.T) {
	c := CheckpointPayload{}
	got, err := DecodeCheckpoint(c.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ActiveTxns) != 0 || len(got.DirtyPages) != 0 {
		t.Fatal("empty checkpoint mismatch")
	}
}

func TestCheckpointMalformed(t *testing.T) {
	if _, err := DecodeCheckpoint([]byte{1}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short: got %v", err)
	}
	c := CheckpointPayload{ActiveTxns: []TxnTableEntry{{TxnID: 1}}}
	enc := c.Encode(nil)
	if _, err := DecodeCheckpoint(enc[:len(enc)-1]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("truncated: got %v", err)
	}
	enc[len(enc)-1] = 2 // Precommitted is 0 or 1
	if _, err := DecodeCheckpoint(enc); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("precommitted byte 2: got %v", err)
	}
}

// TestCheckpointChunks: EncodeChunks splits a checkpoint into chunks of
// at most the size asked, ATT entries first, each naming its place and
// the totals; a CheckpointGather fed them in order, with another
// checkpoint's chunks and other records' payloads left out between them,
// returns the whole checkpoint at the last chunk and not before, and
// gives up one that lost a chunk or mixes two checkpoints.
func TestCheckpointChunks(t *testing.T) {
	var c CheckpointPayload
	for i := 0; i < 300; i++ {
		c.ActiveTxns = append(c.ActiveTxns, TxnTableEntry{TxnID: uint64(i + 1), LastLSN: lsn.LSN(10 * i), Precommitted: i%3 == 0})
	}
	for i := 0; i < 700; i++ {
		c.DirtyPages = append(c.DirtyPages, DirtyPageEntry{PageID: uint64(1000 + i), RecLSN: lsn.LSN(7 * i)})
	}
	const max = 4064
	chunks := c.EncodeChunks(max)
	if want := (300*ATTEntrySize + 700*DPTEntrySize + max - CheckpointChunkHeader - 1) / (max - CheckpointChunkHeader); len(chunks) < want || len(chunks) > want+1 {
		t.Fatalf("%d chunks, want about %d", len(chunks), want)
	}
	var g CheckpointGather
	for i, p := range chunks {
		if len(p) > max {
			t.Fatalf("chunk %d is %d bytes, over %d", i, len(p), max)
		}
		d, err := DecodeCheckpoint(p)
		if err != nil || d.Index != i || d.Count != len(chunks) || d.ActiveTotal != 300 || d.DirtyTotal != 700 {
			t.Fatalf("chunk %d decodes to %d of %d, totals %d/%d: %v", i, d.Index, d.Count, d.ActiveTotal, d.DirtyTotal, err)
		}
		if again := d.Encode(nil); !bytes.Equal(again, p) {
			t.Fatalf("chunk %d does not re-encode byte-identically", i)
		}
		got, ok := g.Add(42, p)
		if ok != d.Last() {
			t.Fatalf("chunk %d of %d: whole %v", i, len(chunks), ok)
		}
		if ok && (!reflect.DeepEqual(got.ActiveTxns, c.ActiveTxns) || !reflect.DeepEqual(got.DirtyPages, c.DirtyPages)) {
			t.Fatal("the gathered checkpoint differs from the one chunked")
		}
	}
	// An empty checkpoint is one chunk of no entries.
	empty := (&CheckpointPayload{}).EncodeChunks(max)
	if len(empty) != 1 || len(empty[0]) != CheckpointChunkHeader {
		t.Fatalf("an empty checkpoint makes %d chunks", len(empty))
	}
	if _, ok := g.Add(43, empty[0]); !ok {
		t.Fatal("an empty one-chunk checkpoint is not whole")
	}
	// A lost chunk, another checkpoint's chunk, or a stray middle chunk
	// drops what was gathered.
	other := (&CheckpointPayload{DirtyPages: c.DirtyPages[:300]}).EncodeChunks(max)
	for name, feed := range map[string][][]byte{
		"lost chunk":        append(append([][]byte{}, chunks[:1]...), chunks[2:]...),
		"no first chunk":    chunks[1:],
		"two checkpoints":   append(append([][]byte{}, chunks[:2]...), other[1:]...),
		"chunk given twice": append(append([][]byte{}, chunks[:2]...), chunks[1:]...),
	} {
		var g CheckpointGather
		for _, p := range feed {
			if _, ok := g.Add(42, p); ok {
				t.Fatalf("%s: a checkpoint came out whole", name)
			}
		}
	}
	// The same chunks under two begin addresses are two checkpoints.
	g = CheckpointGather{}
	g.Add(42, chunks[0])
	for _, p := range chunks[1:] {
		if _, ok := g.Add(43, p); ok {
			t.Fatal("chunks of another Aux completed the checkpoint")
		}
	}
}

// TestNewPadExactSize: NewPad hits every size the figures sweep (Fig. 8's
// record sizes, Fig. 11's outliers) and every size beside a length
// varint's width step, except the three no record has, for which it
// builds one a byte longer.
func TestNewPadExactSize(t *testing.T) {
	sizes := []int{0, MinRecordSize, MinRecordSize + 1, 48, 49, 120, 12288,
		360, 1200, 4096, 12000, // Fig. 8 (right)
		512, 2048, 8192, 16_384, 65_536, 262_144, // Fig. 11's outliers
		127, 128, 130, 131, 16_383, 16_385, 16_387, 1<<21 + 2, 1<<21 + 4}
	for _, size := range sizes {
		buf, err := NewPad(size).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if want := max(size, MinRecordSize); len(buf) != want {
			t.Fatalf("NewPad(%d): encoded size %d, want %d", size, len(buf), want)
		}
	}
	for _, size := range []int{129, 16_386, 1<<21 + 3} {
		buf, err := NewPad(size).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != size+1 {
			t.Fatalf("NewPad(%d), a size no record has: encoded size %d, want %d", size, len(buf), size+1)
		}
	}
}

func TestConstructors(t *testing.T) {
	c := NewCommit(5)
	if c.Kind != KindCommit || c.TxnID != 5 || c.First {
		t.Fatal("NewCommit wrong")
	}
	a := NewAbort(5)
	if a.Kind != KindAbort || a.TxnID != 5 || a.First {
		t.Fatal("NewAbort wrong")
	}
	e := NewEnd(5)
	if e.Kind != KindEnd || e.TxnID != 5 || e.First {
		t.Fatal("NewEnd wrong")
	}
	clr := NewCLR(5, 7, 44, UpdatePayload{Op: OpSet, X: []byte("x")})
	if clr.Kind != KindCLR || clr.UndoNext() != 44 || clr.Flags&FlagRedoOnly == 0 || clr.First {
		t.Fatal("NewCLR wrong")
	}
	u := NewUpdate(5, 88, 7, UpdatePayload{Op: OpInsert, After: []byte("x")})
	if u.Kind != KindUpdate || u.PageID != 7 {
		t.Fatal("NewUpdate wrong")
	}
}

func TestKindString(t *testing.T) {
	if KindCommit.String() != "commit" || Kind(200).String() != "kind(200)" {
		t.Fatal("Kind.String wrong")
	}
	if OpSet.String() != "set" || UpdateOp(9).String() != "op(9)" {
		t.Fatal("UpdateOp.String wrong")
	}
}

// Property: any payload round-trips bit-exactly through encode/decode.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(txn uint64, slot uint8, first bool, page uint64, aux uint64, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		first, slot = first && txn != 0, slot%(MaxSlot+1)
		if slot != 0 && !first {
			txn = 0 // named by the slot alone: the resolver's to fill in
		}
		rec := &Record{
			Header:  Header{Kind: KindUpdate, TxnID: txn, Slot: slot, First: first, PageID: page, Aux: aux},
			Payload: payload,
		}
		buf, err := rec.Encode()
		if err != nil {
			return false
		}
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return got.TxnID == txn && got.Slot == slot && got.First == first &&
			got.PageID == page && got.Aux == aux && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: a single flipped bit anywhere in a sealed batch, its seal
// included, is detected: the iterator yields nothing and reports a gap.
func TestQuickBitFlipDetected(t *testing.T) {
	f := func(payload []byte, pos uint16, bit uint8) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		if len(payload) > 512 {
			payload = payload[:512]
		}
		buf := sealed(t, &Record{Header: Header{Kind: KindPad}, Payload: payload})
		p := int(pos) % len(buf)
		buf[p] ^= 1 << (bit % 8)
		got, err := drain(buf, 0)
		return len(got) == 0 && err != nil
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: a splice's inverse negates its Delta and keeps its bytes,
// so inverting twice gives the splice back.
func TestQuickUpdateInverseInvolution(t *testing.T) {
	f := func(slot uint16, off uint16, x, tail []byte, shrink bool) bool {
		u := UpdatePayload{Op: OpSet, Slot: slot, Off: uint32(off), X: x, Tail: tail, Delta: int32(len(tail))}
		if shrink {
			u.Delta = -u.Delta
		}
		inv, inv2 := u.Inverse(), u.Inverse().Inverse()
		return inv.Delta == -u.Delta && bytes.Equal(inv.X, u.X) && bytes.Equal(inv.Tail, u.Tail) &&
			inv2.Op == u.Op && inv2.Slot == u.Slot && inv2.Off == u.Off && inv2.Delta == u.Delta &&
			bytes.Equal(inv2.X, u.X) && bytes.Equal(inv2.Tail, u.Tail)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 200}
}

// TestSetInPlaceEncodesLikeFresh: a Record re-armed in place — whatever
// it carried before, including the Seq and Aux a multi-log append
// stamped into it — encodes to exactly the bytes of a record spelled out
// field by field. This is what lets a transaction agent build every
// record it logs in one scratch Record without changing a byte of the
// log.
func TestSetInPlaceEncodesLikeFresh(t *testing.T) {
	before, after := bytes.Repeat([]byte{0xB0}, 100), bytes.Repeat([]byte{0xAF}, 100)
	up := Splice(nil, 5, before, after)
	inv := up.Inverse()
	cases := []struct {
		name string
		set  func(r *Record)
		want Record
	}{
		{"update", func(r *Record) { r.SetUpdate(42, 4096, 77, up) },
			Record{Header: Header{Kind: KindUpdate, TxnID: 42, PageID: 77}, Payload: up.Encode(nil)}},
		{"first update", func(r *Record) { r.SetUpdate(42, lsn.Undefined, 77, up) },
			Record{Header: Header{Kind: KindUpdate, TxnID: 42, First: true, PageID: 77}, Payload: up.Encode(nil)}},
		{"clr", func(r *Record) { r.SetCLR(42, 77, 1024, inv) },
			Record{Header: Header{Kind: KindCLR, Flags: FlagRedoOnly, TxnID: 42, PageID: 77, Aux: 1024 + 1}, Payload: inv.Encode(nil)}},
		{"commit", func(r *Record) { r.Reset(KindCommit, 42) },
			Record{Header: Header{Kind: KindCommit, TxnID: 42}}},
		{"abort", func(r *Record) { r.Reset(KindAbort, 42) },
			Record{Header: Header{Kind: KindAbort, TxnID: 42}}},
	}
	var scratch Record
	for _, dirty := range cases {
		for _, tc := range cases {
			dirty.set(&scratch)
			scratch.Seq, scratch.Aux, scratch.LSN, scratch.Slot = 9, 8, 7, 6 // as an agent's multi-log append leaves it
			tc.set(&scratch)
			got, err := scratch.Encode()
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.want.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s after %s: in-place record encodes differently from a fresh one", tc.name, dirty.name)
			}
		}
	}
	fresh, err := NewUpdate(42, 4096, 77, up).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := cases[0].want.Encode(); !bytes.Equal(fresh, want) {
		t.Error("NewUpdate encodes differently from the spelled-out record")
	}
}
