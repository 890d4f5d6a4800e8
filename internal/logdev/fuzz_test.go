package logdev

import (
	"bytes"
	"hash/crc32"
	"testing"
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

// FuzzSegmentHeader fuzzes the durable-watermark decoder: the segment
// header a reopen reads from a file a crash (or bit rot) may have left
// in any state. Whatever the bytes, judging them must not panic; a slot
// reported as written must re-encode byte-identically; and a slot is
// never admitted unless the range it covers lies inside the segment
// and the file and the bytes there match its data CRC — the property
// that lets one fsync carry both data and watermark.
func FuzzSegmentHeader(f *testing.F) {
	const segSize = 512
	enc := func(w wmSlot) []byte {
		b := make([]byte, wmSlotSize)
		w.encode(b)
		return b
	}
	body := bytes.Repeat([]byte("log bytes "), 12)
	good := enc(wmSlot{Durable: 3*segSize + 100, From: 3*segSize + 40, DataCRC: crc32.Checksum(body[40:100], wmCRC)})
	stale := enc(wmSlot{Durable: 3*segSize + 120, From: 3*segSize + 100, DataCRC: 0xDEADBEEF})
	f.Add(good, stale, body, uint8(3))
	f.Add(stale, good, body[:90], uint8(3)) // covered bytes missing
	f.Add(good, []byte{}, body, uint8(0))   // range outside the segment
	f.Add([]byte("AEWM"), []byte{}, []byte{}, uint8(1))

	buf := make([]byte, 64)
	// The fuzzer supplies the two slots and the data; the rest of the
	// 4 KiB header is zeros, as in a real file (keeping inputs small
	// keeps the mutator fast).
	f.Fuzz(func(t *testing.T, slot0, slot1, body []byte, idx8 uint8) {
		idx := int64(idx8)
		img := make([]byte, SegmentHeaderSize, SegmentHeaderSize+len(body))
		copy(img[:wmSlotStride], slot0)
		copy(img[wmSlotStride:], slot1)
		img = append(img, body...)
		have := min(int64(len(body)), segSize)
		rep, err := inspectHeader(bytes.NewReader(img), idx, segSize, have, buf)
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
			if !sl.DataOK {
				continue
			}
			lo, hi := w.From-idx*segSize, w.Durable-idx*segSize
			if lo < 0 || lo > hi || hi > have {
				t.Fatalf("slot %d admitted with range [%d, %d) outside the %d data bytes held", i, lo, hi, have)
			}
			if crc32.Checksum(body[lo:hi], wmCRC) != w.DataCRC {
				t.Fatalf("slot %d admitted over bytes that do not match its data CRC", i)
			}
		}
	})
}
