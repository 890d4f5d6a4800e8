package logrec

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"aether/internal/lsn"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rec := &Record{
		Header: Header{
			Kind:    KindUpdate,
			Flags:   FlagRedoOnly,
			TxnID:   77,
			PrevLSN: 1234,
			PageID:  42,
			Aux:     99,
		},
		Payload: []byte("hello physiological logging"),
	}
	buf, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != HeaderSize+len(rec.Payload) {
		t.Fatalf("encoded size %d", len(buf))
	}
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d, want %d", n, len(buf))
	}
	if got.Kind != KindUpdate || got.TxnID != 77 || got.PrevLSN != 1234 ||
		got.PageID != 42 || got.Aux != 99 || got.Flags != FlagRedoOnly {
		t.Fatalf("header mismatch: %+v", got.Header)
	}
	if !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatal("payload mismatch")
	}
}

func TestEncodeIntoWrongSize(t *testing.T) {
	rec := NewCommit(1, lsn.Undefined)
	if err := rec.EncodeInto(make([]byte, HeaderSize+1)); err == nil {
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

func TestDecodeDetectsCorruption(t *testing.T) {
	rec := NewPad(100)
	buf, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: CRC must catch it.
	buf[HeaderSize+3] ^= 0xFF
	if _, _, err := Decode(buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
}

func TestDecodeDetectsHeaderCorruption(t *testing.T) {
	rec := NewCommit(9, 5)
	buf, _ := rec.Encode()
	buf[16] ^= 0x01 // TxnID bit
	if _, _, err := Decode(buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	rec := NewPad(200)
	buf, _ := rec.Encode()
	if _, _, err := Decode(buf[:40]); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short header: got %v", err)
	}
	if _, _, err := Decode(buf[:150]); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short payload: got %v", err)
	}
}

func TestDecodeBadLength(t *testing.T) {
	buf := make([]byte, HeaderSize)
	// TotalLen = 3 (< HeaderSize)
	buf[0] = 3
	if _, _, err := Decode(buf); !errors.Is(err, ErrBadLength) {
		t.Fatalf("got %v, want ErrBadLength", err)
	}
}

func TestPeekLen(t *testing.T) {
	rec := NewPad(128)
	buf, _ := rec.Encode()
	if got := PeekLen(buf); got != 128 {
		t.Fatalf("PeekLen: got %d", got)
	}
	if got := PeekLen(buf[:3]); got != 0 {
		t.Fatalf("PeekLen short: got %d", got)
	}
}

func TestIteratorWalksStream(t *testing.T) {
	var stream []byte
	var sizes []int
	for i := 0; i < 10; i++ {
		rec := NewPad(48 + i*13)
		buf, _ := rec.Encode()
		stream = append(stream, buf...)
		sizes = append(sizes, len(buf))
	}
	it := NewIterator(stream, 1000)
	var got []Record
	for {
		rec, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, rec)
	}
	if it.Err() != nil {
		t.Fatalf("unexpected gap: %v", it.Err())
	}
	if len(got) != 10 {
		t.Fatalf("decoded %d records, want 10", len(got))
	}
	wantLSN := lsn.LSN(1000)
	for i, rec := range got {
		if rec.LSN != wantLSN {
			t.Fatalf("record %d LSN %v, want %v", i, rec.LSN, wantLSN)
		}
		wantLSN = wantLSN.Add(sizes[i])
	}
}

func TestIteratorStopsAtGap(t *testing.T) {
	a, _ := NewPad(64).Encode()
	b, _ := NewPad(64).Encode()
	stream := append(append([]byte{}, a...), b...)
	stream[70] ^= 0xFF // corrupt second record
	it := NewIterator(stream, 0)
	if _, ok := it.Next(); !ok {
		t.Fatal("first record should decode")
	}
	if _, ok := it.Next(); ok {
		t.Fatal("second record should be a gap")
	}
	if it.Err() == nil {
		t.Fatal("iterator should report the gap")
	}
}

func TestIteratorCleanEndOnZeros(t *testing.T) {
	a, _ := NewPad(64).Encode()
	stream := append(append([]byte{}, a...), make([]byte, 100)...)
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
	u := UpdatePayload{
		Op:     OpSet,
		Slot:   7,
		Before: []byte("old"),
		After:  []byte("newer"),
	}
	enc := u.Encode(nil)
	if len(enc) != u.EncodedSize() {
		t.Fatalf("size mismatch: %d vs %d", len(enc), u.EncodedSize())
	}
	got, err := DecodeUpdate(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != OpSet || got.Slot != 7 ||
		!bytes.Equal(got.Before, u.Before) || !bytes.Equal(got.After, u.After) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestUpdatePayloadMalformed(t *testing.T) {
	if _, err := DecodeUpdate([]byte{1, 2, 3}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short: got %v", err)
	}
	u := UpdatePayload{Op: OpSet, After: []byte("x")}
	enc := u.Encode(nil)
	if _, err := DecodeUpdate(enc[:len(enc)-1]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("truncated: got %v", err)
	}
	enc2 := u.Encode(nil)
	enc2[0] = 99 // bad op
	if _, err := DecodeUpdate(enc2); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("bad op: got %v", err)
	}
}

func TestUpdateInverse(t *testing.T) {
	set := UpdatePayload{Op: OpSet, Slot: 3, Before: []byte("a"), After: []byte("b")}
	inv := set.Inverse()
	if inv.Op != OpSet || string(inv.Before) != "b" || string(inv.After) != "a" {
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
}

func TestNewPadExactSize(t *testing.T) {
	for _, size := range []int{0, 48, 49, 120, 12288} {
		rec := NewPad(size)
		want := size
		if want < HeaderSize {
			want = HeaderSize
		}
		if rec.EncodedSize() != want {
			t.Fatalf("NewPad(%d): encoded size %d, want %d", size, rec.EncodedSize(), want)
		}
	}
}

func TestConstructors(t *testing.T) {
	c := NewCommit(5, 88)
	if c.Kind != KindCommit || c.TxnID != 5 || c.PrevLSN != 88 {
		t.Fatal("NewCommit wrong")
	}
	a := NewAbort(5, 88)
	if a.Kind != KindAbort {
		t.Fatal("NewAbort wrong")
	}
	e := NewEnd(5, 88)
	if e.Kind != KindEnd {
		t.Fatal("NewEnd wrong")
	}
	clr := NewCLR(5, 88, 7, 44, UpdatePayload{Op: OpSet, After: []byte("x")})
	if clr.Kind != KindCLR || clr.UndoNext() != 44 || clr.Flags&FlagRedoOnly == 0 {
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
	f := func(txn uint64, prev uint64, page uint64, aux uint64, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		rec := &Record{
			Header:  Header{Kind: KindUpdate, TxnID: txn, PrevLSN: lsn.LSN(prev), PageID: page, Aux: aux},
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
		return got.TxnID == txn && got.PrevLSN == lsn.LSN(prev) &&
			got.PageID == page && got.Aux == aux && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: a single flipped bit anywhere in the encoding is detected.
func TestQuickBitFlipDetected(t *testing.T) {
	f := func(payload []byte, pos uint16, bit uint8) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		if len(payload) > 512 {
			payload = payload[:512]
		}
		rec := &Record{Header: Header{Kind: KindPad}, Payload: payload}
		buf, err := rec.Encode()
		if err != nil {
			return false
		}
		p := int(pos) % len(buf)
		buf[p] ^= 1 << (bit % 8)
		_, _, err = Decode(buf)
		return err != nil
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: update payload inverse is an involution and swaps images.
func TestQuickUpdateInverseInvolution(t *testing.T) {
	f := func(slot uint16, before, after []byte) bool {
		u := UpdatePayload{Op: OpSet, Slot: slot, Before: before, After: after}
		inv2 := u.Inverse().Inverse()
		return inv2.Op == u.Op && inv2.Slot == u.Slot &&
			bytes.Equal(inv2.Before, u.Before) && bytes.Equal(inv2.After, u.After)
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
	up := UpdatePayload{Op: OpSet, Slot: 5, Before: before, After: after}
	inv := up.Inverse()
	cases := []struct {
		name string
		set  func(r *Record)
		want Record
	}{
		{"update", func(r *Record) { r.SetUpdate(42, 4096, 77, up) },
			Record{Header: Header{Kind: KindUpdate, TxnID: 42, PrevLSN: 4096, PageID: 77}, Payload: up.Encode(nil)}},
		{"clr", func(r *Record) { r.SetCLR(42, 4096, 77, 1024, inv) },
			Record{Header: Header{Kind: KindCLR, Flags: FlagRedoOnly, TxnID: 42, PrevLSN: 4096, PageID: 77, Aux: 1024}, Payload: inv.Encode(nil)}},
		{"commit", func(r *Record) { r.Reset(KindCommit, 42, 4096) },
			Record{Header: Header{Kind: KindCommit, TxnID: 42, PrevLSN: 4096}}},
	}
	var scratch Record
	for _, dirty := range cases {
		for _, tc := range cases {
			dirty.set(&scratch)
			scratch.Seq, scratch.Aux, scratch.LSN = 9, 8, 7 // as a multi-log append leaves it
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
