package logdev

import (
	"bytes"
	"errors"
	"testing"

	"aether/internal/logrec"
	"aether/internal/lsn"
)

// FuzzRemoteObject fuzzes the cold store's object decoders — the
// envelope, the images payload and the manifest payload — which parse
// bytes fetched from a remote store that may hand back torn, truncated or
// hostile objects. The decoders must reject garbage with an error, never
// panic or over-allocate; only segment, images and manifest envelopes are
// accepted (kinds 2 and 3, the retired pack and replayed snapshot, must
// fail), and anything accepted must re-encode to the same bytes.
func FuzzRemoteObject(f *testing.F) {
	seg := bytes.Repeat([]byte{0xAB}, 64)
	images := []PageImage{{PID: 1, Image: []byte("page")}, {PID: 7, Image: []byte("egap")}}
	man := &Manifest{At: 4096, Checkpoint: 3000, Lanes: []ManifestLane{{LowWater: 2048, End: 4096}},
		Pages: []ManifestPage{{PID: 1, Version: 9, Object: ImageRef{At: 4096}}, {PID: 7, Version: 2, Object: ImageRef{At: 1024, Chunk: 1}}}}
	f.Add(EncodeObject(ObjImages, 4096, EncodeImages(images)))
	f.Add(EncodeObject(ObjManifest, 4096, EncodeManifest(man)))
	f.Add(EncodeObject(ObjSegment, 42, seg))
	f.Add(EncodeObject(2, 7, seg))                               // a well-formed envelope of the retired pack kind
	f.Add(EncodeObject(3, 4096, EncodeImages(images)))           // and of the retired replayed snapshot
	f.Add(EncodeObject(ObjManifest, 4096, EncodeImages(images))) // a payload of the wrong kind
	f.Add([]byte("AEOB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, meta, payload, err := DecodeObject(data)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		// Accepted envelopes must round-trip bit-identically.
		if !bytes.Equal(EncodeObject(kind, meta, payload), data) {
			t.Fatalf("envelope round-trip mismatch (kind %d)", kind)
		}
		switch kind {
		case ObjSegment:
		case ObjImages:
			pages, derr := DecodeImages(payload)
			if derr == nil && !bytes.Equal(EncodeImages(pages), payload) {
				t.Fatal("images round-trip mismatch")
			}
		case ObjManifest:
			m, derr := DecodeManifest(payload)
			if derr == nil && !bytes.Equal(EncodeManifest(m), payload) {
				t.Fatal("manifest round-trip mismatch")
			}
		default:
			t.Fatalf("accepted an object of kind %d", kind)
		}
	})
}

// FuzzSegmentHeader fuzzes the durable-watermark decoder and the
// admission of a slot: the segment header a reopen reads from a file a
// crash (or bit rot) may have left in any state, over log bytes that may
// be sealed, torn, short or garbage. The log starts at the truncation
// base, one segment below the header's (segment 0's own start for
// segment 0); reads below it fail, as for a recycled segment, and reads
// past its end see zeros, as in a file's unwritten space. Whatever the
// bytes, judging them must not panic; a slot reported as written must
// re-encode byte-identically; and a slot is admitted exactly when its
// range is sane and the seals vouch for every byte it covers above the
// base — never over covered bytes that fail their seals, the property
// that lets one fsync carry both data and watermark.
func FuzzSegmentHeader(f *testing.F) {
	const segSize = 512
	enc := func(w wmSlot) []byte {
		b := make([]byte, wmSlotSize)
		w.encode(b)
		return b
	}
	// Segment 3's header over the log from segment 2's start, 1024: the
	// middle batch crosses into segment 3 at 1536.
	log := append(append(batch(300, 'a'), batch(260, 'b')...), batch(100, 'c')...)
	const base = 2 * segSize
	own := enc(wmSlot{Durable: base + 660, From: base + 560})      // the last batch
	spanning := enc(wmSlot{Durable: base + 660, From: base + 300}) // the last two
	stale := enc(wmSlot{Durable: base + 600, From: base + 560})    // ends mid-batch
	fromSeg := enc(wmSlot{Durable: base + 660, From: base + 512})  // starts mid-batch
	f.Add(own, stale, log, uint8(3))
	f.Add(stale, spanning, log, uint8(3))
	f.Add(spanning, fromSeg, log, uint8(3))
	f.Add(spanning, own, log[:620], uint8(3)) // covered bytes missing
	f.Add(own, []byte{}, log, uint8(0))       // range outside the segment
	f.Add([]byte("AEWM"), []byte{}, []byte{}, uint8(1))

	var buf []byte
	// The fuzzer supplies the two slots and the log; the rest of the
	// 4 KiB header is zeros, as in a real file (keeping inputs small
	// keeps the mutator fast).
	f.Fuzz(func(t *testing.T, slot0, slot1, log []byte, idx8 uint8) {
		idx := int64(idx8)
		base := max(idx-1, 0) * segSize
		log = log[:min(len(log), 2*segSize)]
		img := make([]byte, SegmentHeaderSize)
		copy(img[:wmSlotStride], slot0)
		copy(img[wmSlotStride:], slot1)
		read := func(p []byte, off int64) (int, error) {
			if off < base {
				return 0, errors.New("below the base")
			}
			clear(p[copy(p, log[min(off-base, int64(len(log))):]):])
			return len(p), nil
		}
		rep, err := inspectHeader(bytes.NewReader(img), idx, segSize, base, read, &buf)
		if err != nil {
			t.Fatalf("in-memory header read failed: %v", err)
		}
		for i, sl := range rep.Slots {
			raw := img[i*wmSlotStride : i*wmSlotStride+wmSlotSize]
			w, ok := decodeWMSlot(raw)
			if ok != sl.Written {
				t.Fatalf("slot %d: decoder says written=%v, report says %v", i, ok, sl.Written)
			}
			if !ok {
				if sl.DataOK {
					t.Fatalf("slot %d admitted without a valid slot CRC", i)
				}
				continue
			}
			if !bytes.Equal(enc(w), raw) {
				t.Fatalf("slot %d does not re-encode byte-identically", i)
			}
			segStart := idx * segSize
			sane := w.From >= 0 && w.From <= w.Durable && w.Durable > segStart && w.Durable <= segStart+segSize
			vouched := sane
			if lo, hi := max(w.From, base)-base, w.Durable-base; sane && lo < hi {
				n, err := -1, error(nil)
				if hi <= int64(len(log)) {
					n, err = logrec.Verify(log[lo:hi], lsn.LSN(lo+base))
				}
				vouched = err == nil && int64(n) == hi-lo
			}
			if sl.DataOK && !vouched {
				t.Fatalf("slot %d admitted over [%d, %d), whose bytes fail their seals (log of %d bytes from %d)",
					i, w.From, w.Durable, len(log), base)
			}
			if !sl.DataOK && vouched {
				t.Fatalf("slot %d refused over [%d, %d), whose seals vouch for every byte", i, w.From, w.Durable)
			}
		}
	})
}
