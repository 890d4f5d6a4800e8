// remoteobj.go defines the on-wire formats of the cold store's object
// kinds and their decoders. Every object starts with a fixed
// self-validating envelope (magic, kind, meta, payload CRC-32C), so a
// torn upload — the store kept a prefix, the client saw an error — is
// detected on read and treated as if the object were absent. The
// decoders are the fuzz surface: a corrupt or truncated object must fail
// loudly, never misdirect a restore (FuzzRemoteObject).
//
// Object kinds:
//
//	segment   one archived log segment, payload = the segment's bytes
//	images    page images a snapshot copied out of the page file
//	manifest  a snapshot: which images object holds each page's image,
//	          the checkpoint they follow, and each lane's low-water mark
//
// Every object is written once and never rewritten until retention
// deletes it. Kinds 2 (compacted segment packs) and 3 (replayed
// snapshots with an undo stash) are retired: they never decode
// (ErrBadObject).
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
	// ObjImages holds page images a snapshot copied.
	ObjImages = uint16(4)
	// ObjManifest is a snapshot's manifest.
	ObjManifest = uint16(5)
)

const (
	objMagic = "AEOB"
	// objVersion names the envelope and what its payloads hold: a
	// segment object is log bytes, so the version moves with the log's
	// record encoding (9 = MANIFEST format 10's). An object of another
	// version is refused, never handed to a decoder of the wrong
	// encoding.
	objVersion = uint16(9)
	// envelopeSize is the fixed header before the payload:
	// magic(4) version(2) kind(2) meta(8) payloadLen(4) crc(4).
	envelopeSize = 24
)

var remoteCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrBadObject reports an object that failed envelope or payload
// validation — torn, corrupt, or not a remote-tier object at all.
var ErrBadObject = errors.New("logdev: bad remote object")

// EncodeObject wraps payload in the self-validating envelope.
// meta is kind-specific: the segment index, or the restore point of the
// snapshot that wrote the images or manifest.
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
// retired or unknown kind, truncated or corrupt payload — returns
// ErrBadObject.
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
	if kind != ObjSegment && kind != ObjImages && kind != ObjManifest {
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

// PageImage is one page's image in an images object.
type PageImage struct {
	PID   uint64 // the page
	Image []byte // its bytes as the page file held them
}

// ImageRef names an images object.
type ImageRef struct {
	At    uint64 // the restore point of the snapshot that uploaded it
	Chunk uint32 // its place among that snapshot's images objects
}

// ManifestLane is one log lane as a snapshot found it.
type ManifestLane struct {
	// LowWater is where a restore seeded by the snapshot starts reading
	// the lane: its base right after the checkpoint's truncation.
	LowWater uint64
	End      uint64 // the lane's durable size when the images were copied
}

// ManifestPage is one page of a snapshot.
type ManifestPage struct {
	PID uint64 // the page
	// Version is the page-file version of the image: the next snapshot
	// uploads the page again only if it changed.
	Version uint64
	Object  ImageRef // the images object holding the image
}

// Manifest is a snapshot: a checkpoint's page file, as the images
// objects that hold it, and where a restore it seeds starts replaying.
type Manifest struct {
	// At is the snapshot's restore point: the durable stamp read while
	// the images were copied. Every image is stamped at or below it, so
	// the snapshot seeds a restore to any point from At on.
	At uint64
	// Checkpoint is the lane-0 address of the begin record of the
	// checkpoint whose sweep the images follow: a restore's analysis
	// starts there and at no later checkpoint.
	Checkpoint uint64
	// Lanes holds every log lane, in lane order.
	Lanes []ManifestLane
	// Pages lists every page, in ascending page-ID order.
	Pages []ManifestPage
}

// maxObjectItems bounds decode-side allocations for item counts in the
// face of corrupt headers.
const maxObjectItems = 1 << 24

var le = binary.LittleEndian

// EncodeImages serializes page images, all of one page's size, into an
// images object payload: count and size, then each page ID and image.
func EncodeImages(pages []PageImage) []byte {
	size := 0
	if len(pages) > 0 {
		size = len(pages[0].Image)
	}
	buf := le.AppendUint32(le.AppendUint32(nil, uint32(len(pages))), uint32(size))
	for _, p := range pages {
		buf = append(le.AppendUint64(buf, p.PID), p.Image[:size]...)
	}
	return buf
}

// DecodeImages parses an images payload; the images alias it.
func DecodeImages(p []byte) ([]PageImage, error) {
	if len(p) < 8 {
		return nil, fmt.Errorf("%w: images truncated", ErrBadObject)
	}
	n, size := uint64(le.Uint32(p)), 8+uint64(le.Uint32(p[4:]))
	if n > maxObjectItems || uint64(len(p)-8) != n*size {
		return nil, fmt.Errorf("%w: %d bytes do not hold %d images of %d", ErrBadObject, len(p)-8, n, size-8)
	}
	pages := make([]PageImage, n)
	for i := range pages {
		e := p[8+uint64(i)*size : 8+uint64(i+1)*size]
		pages[i] = PageImage{PID: le.Uint64(e), Image: e[8:]}
	}
	return pages, nil
}

// EncodeManifest serializes a manifest into an object payload: At,
// Checkpoint, the lanes and the pages, each list counted.
func EncodeManifest(m *Manifest) []byte {
	buf := le.AppendUint64(le.AppendUint64(nil, m.At), m.Checkpoint)
	buf = le.AppendUint32(buf, uint32(len(m.Lanes)))
	for _, l := range m.Lanes {
		buf = le.AppendUint64(le.AppendUint64(buf, l.LowWater), l.End)
	}
	buf = le.AppendUint32(buf, uint32(len(m.Pages)))
	for _, pg := range m.Pages {
		buf = le.AppendUint64(le.AppendUint64(buf, pg.PID), pg.Version)
		buf = le.AppendUint32(le.AppendUint64(buf, pg.Object.At), pg.Object.Chunk)
	}
	return buf
}

// DecodeManifest parses a manifest payload. Pages out of ascending
// page-ID order, or in an images object of a later snapshot, are
// refused.
func DecodeManifest(p []byte) (*Manifest, error) {
	if len(p) < 16 {
		return nil, fmt.Errorf("%w: manifest truncated", ErrBadObject)
	}
	m := &Manifest{At: le.Uint64(p), Checkpoint: le.Uint64(p[8:])}
	n, p, err := count(p[16:], 16)
	if err != nil || len(p) < 16*n {
		return nil, fmt.Errorf("%w: manifest lanes truncated", ErrBadObject)
	}
	for ; n > 0; n, p = n-1, p[16:] {
		m.Lanes = append(m.Lanes, ManifestLane{LowWater: le.Uint64(p), End: le.Uint64(p[8:])})
	}
	if n, p, err = count(p, 28); err != nil || len(p) != 28*n {
		return nil, fmt.Errorf("%w: manifest pages truncated or trailed", ErrBadObject)
	}
	m.Pages = make([]ManifestPage, n)
	for i := range m.Pages {
		e := p[28*i:]
		m.Pages[i] = ManifestPage{PID: le.Uint64(e), Version: le.Uint64(e[8:]), Object: ImageRef{At: le.Uint64(e[16:]), Chunk: le.Uint32(e[24:])}}
		if m.Pages[i].Object.At > m.At || (i > 0 && m.Pages[i].PID <= m.Pages[i-1].PID) {
			return nil, fmt.Errorf("%w: manifest page %d out of order or in a later snapshot", ErrBadObject, i)
		}
	}
	return m, nil
}

// count reads an item count off p, refusing one that the rest of p
// cannot hold at minSize bytes an item.
func count(p []byte, minSize int) (int, []byte, error) {
	if len(p) < 4 {
		return 0, nil, fmt.Errorf("%w: count truncated", ErrBadObject)
	}
	n := uint64(le.Uint32(p))
	if n > maxObjectItems || n*uint64(minSize) > uint64(len(p)-4) {
		return 0, nil, fmt.Errorf("%w: count %d out of range", ErrBadObject, n)
	}
	return int(n), p[4:], nil
}
