// snapshot.go is the cold store's snapshots. A snapshot is a
// checkpoint's page file: write-once images objects holding the images
// written since the previous snapshot, and a manifest naming every
// page's object, the checkpoint, the restore point and each lane's
// low-water mark. Images go up first and the manifest last, so a
// manifest names only objects whose upload succeeded; a torn manifest is
// absent — a restore falls back past it (as past an images object
// damaged since), and retention never makes it the floor.
package logdev

import (
	"errors"
	"fmt"
	"strings"
)

// Snapshot key layout, at the root of the cold store whatever the lane
// count: a snapshot covers every lane.
const (
	snapManifestDir = "manifest/"
	snapImageDir    = "image/"
	// imagesPerObject bounds an images object: 256 images of an 8 KiB
	// page are about 2 MiB, all a restore holds of a snapshot at once.
	imagesPerObject = 256
)

// SnapshotStore keeps a database's snapshots in its cold store, beside
// the lanes' archived segments, whose retention it decides.
type SnapshotStore struct {
	store ObjectStore
	lanes []*RemoteArchiver
}

// NewSnapshotStore returns the snapshots of the log whose lanes archive
// through lanes (in lane order), kept in store.
func NewSnapshotStore(store ObjectStore, lanes []*RemoteArchiver) *SnapshotStore {
	return &SnapshotStore{store: store, lanes: lanes}
}

func manifestKey(at uint64) string { return fmt.Sprintf("%s%020d", snapManifestDir, at) }

func imageKey(ref ImageRef) string {
	return fmt.Sprintf("%s%020d-%06d", snapImageDir, ref.At, ref.Chunk)
}

// Put uploads snapshot m. images are the pages that changed since the
// previous snapshot, in ascending page-ID order and each listed in
// m.Pages: Put stores them in images objects of m's own, points their
// entries there, then uploads the manifest. An error leaves no manifest,
// so no snapshot.
func (s *SnapshotStore) Put(m *Manifest, images []PageImage) error {
	next := 0
	for i := range m.Pages {
		if next < len(images) && images[next].PID == m.Pages[i].PID {
			m.Pages[i].Object = ImageRef{At: m.At, Chunk: uint32(next / imagesPerObject)}
			next++
		}
	}
	if next != len(images) {
		return fmt.Errorf("logdev: snapshot at %d: %d images not in the manifest", m.At, len(images)-next)
	}
	for lo := 0; lo < len(images); lo += imagesPerObject {
		key := imageKey(ImageRef{At: m.At, Chunk: uint32(lo / imagesPerObject)})
		obj := EncodeObject(ObjImages, m.At, EncodeImages(images[lo:min(lo+imagesPerObject, len(images))]))
		if err := s.store.Put(key, obj); err != nil {
			return fmt.Errorf("logdev: upload snapshot images %s: %w", key, err)
		}
	}
	if err := s.store.Put(manifestKey(m.At), EncodeObject(ObjManifest, m.At, EncodeManifest(m))); err != nil {
		return fmt.Errorf("logdev: upload snapshot manifest at %d: %w", m.At, err)
	}
	return nil
}

// Manifests lists the restore points of the manifest objects, ascending.
// It reads key names only, so it lists a torn manifest too until
// retention deletes it.
func (s *SnapshotStore) Manifests() ([]uint64, error) {
	keys, err := s.store.List(snapManifestDir)
	ats := make([]uint64, 0, len(keys))
	for _, k := range keys {
		var at uint64
		if _, err := fmt.Sscanf(strings.TrimPrefix(k, snapManifestDir), "%d", &at); err == nil {
			ats = append(ats, at) // fixed-width keys: listed in stamp order
		}
	}
	return ats, err
}

// GetManifest downloads and decodes the manifest of the snapshot at at.
// A torn or foreign manifest is ErrBadObject.
func (s *SnapshotStore) GetManifest(at uint64) (*Manifest, error) {
	data, err := s.store.Get(manifestKey(at))
	if err != nil {
		return nil, err
	}
	kind, meta, payload, err := DecodeObject(data)
	if err != nil || kind != ObjManifest || meta != at {
		return nil, fmt.Errorf("logdev: snapshot manifest at %d: %w", at, errOr(err, ErrBadObject))
	}
	m, err := DecodeManifest(payload)
	if err == nil && (m.At != at || len(m.Lanes) != len(s.lanes)) {
		err = fmt.Errorf("%w: manifest under key %d is at %d over %d lanes, want %d", ErrBadObject, at, m.At, len(m.Lanes), len(s.lanes))
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// NewestAtOrBelow returns the newest manifest whose restore point is at
// or below at, skipping torn ones; nil if there is none.
func (s *SnapshotStore) NewestAtOrBelow(at uint64) (*Manifest, error) {
	ats, err := s.Manifests()
	for i := len(ats) - 1; i >= 0 && err == nil; i-- {
		if ats[i] > at {
			continue
		}
		m, err := s.GetManifest(ats[i])
		if !torn(err) {
			return m, err
		}
	}
	return nil, err
}

// GetImages downloads one images object. A torn, foreign or missing
// object is ErrBadObject: the snapshot naming it is absent.
func (s *SnapshotStore) GetImages(ref ImageRef) ([]PageImage, error) {
	data, err := s.store.Get(imageKey(ref))
	if errors.Is(err, ErrObjectNotFound) {
		err = ErrBadObject
	}
	if err != nil {
		return nil, fmt.Errorf("logdev: snapshot images %s: %w", imageKey(ref), err)
	}
	kind, meta, payload, err := DecodeObject(data)
	if err != nil || kind != ObjImages || meta != ref.At {
		return nil, fmt.Errorf("logdev: snapshot images %s: %w", imageKey(ref), errOr(err, ErrBadObject))
	}
	return DecodeImages(payload)
}

// Objects returns the images objects m names, in the order their pages
// first appear in it.
func (m *Manifest) Objects() []ImageRef {
	seen := make(map[ImageRef]bool)
	var refs []ImageRef
	for _, p := range m.Pages {
		if !seen[p.Object] {
			seen[p.Object] = true
			refs = append(refs, p.Object)
		}
	}
	return refs
}

// Floor returns the oldest restorable point: 0 while every lane's log
// from offset 0 can still be read, and otherwise the oldest retained
// snapshot's restore point (Prune only ever leaves a whole one there). A
// lane reads from 0 while its segment 0 object exists, or while it has
// recycled no segment: then it has archived none, and the oldest
// manifest's low-water mark on it still lies in its first segment (or,
// where the segment size is unknown, at 0). A lane whose list of segment
// objects is empty for any other reason may have been pruned bare.
func (s *SnapshotStore) Floor() (uint64, error) {
	ats, err := s.Manifests()
	if err != nil || len(ats) == 0 {
		return 0, err
	}
	var oldest *Manifest
	for i, lane := range s.lanes {
		segs, err := lane.Segments()
		if err != nil {
			return 0, err
		}
		if len(segs) > 0 {
			if segs[0] != 0 {
				return ats[0], nil
			}
			continue
		}
		if oldest == nil {
			// A torn manifest is deleted by retention, one gone by a
			// concurrent prune: either way the floor is at least its.
			if oldest, err = s.GetManifest(ats[0]); torn(err) || errors.Is(err, ErrObjectNotFound) {
				return ats[0], nil
			} else if err != nil {
				return 0, err
			}
		}
		if oldest.Lanes[i].LowWater >= uint64(max(lane.segSize, 1)) {
			return ats[0], nil
		}
	}
	return 0, nil
}

// Prune keeps the newest keep snapshots (keep <= 0: all) and deletes
// the older manifests, each lane's segment objects wholly below the
// oldest survivor's — the floor's — low-water mark, and every images
// object no survivor names. A torn snapshot never becomes the floor: it
// is deleted and the next older one takes its place. It returns the
// segment and images objects deleted, and the manifests.
func (s *SnapshotStore) Prune(keep int) (objects, manifests int, err error) {
	if keep <= 0 {
		return 0, 0, nil
	}
	ats, err := s.Manifests()
	var floor *Manifest
	for err == nil && len(ats) > keep && floor == nil {
		at := len(ats) - keep
		if floor, err = s.GetManifest(ats[at]); torn(err) {
			if err = s.store.Delete(manifestKey(ats[at])); err == nil {
				manifests++
				ats = append(ats[:at], ats[at+1:]...)
			}
		}
	}
	if err != nil || floor == nil {
		return 0, manifests, err
	}
	// Old manifests first: once they are gone the floor is durably
	// advanced, and a crash mid-prune just leaves extra objects.
	for _, at := range ats[:len(ats)-keep] {
		if err := s.store.Delete(manifestKey(at)); err != nil {
			return 0, manifests, err
		}
		manifests++
	}
	for i, lane := range s.lanes {
		n, err := lane.pruneBelow(floor.Lanes[i].LowWater)
		if objects += n; err != nil {
			return objects, manifests, err
		}
	}
	named := make(map[ImageRef]bool)
	for _, at := range ats[len(ats)-keep:] {
		m := floor
		if at != floor.At {
			if m, err = s.GetManifest(at); torn(err) {
				continue // names nothing a restore can use
			} else if err != nil {
				return objects, manifests, err
			}
		}
		for _, p := range m.Pages {
			named[p.Object] = true
		}
	}
	keys, err := s.store.List(snapImageDir)
	for _, key := range keys {
		var ref ImageRef
		if _, serr := fmt.Sscanf(strings.TrimPrefix(key, snapImageDir), "%d-%d", &ref.At, &ref.Chunk); serr != nil || named[ref] {
			continue
		}
		if err = s.store.Delete(key); err != nil {
			break
		}
		objects++
	}
	return objects, manifests, err
}

// pruneBelow deletes the segment objects lying wholly below offset
// lowWater; the one holding it stays, since its tail is live log.
func (r *RemoteArchiver) pruneBelow(lowWater uint64) (n int, err error) {
	if r.segSize <= 0 {
		return 0, fmt.Errorf("logdev: cold store lane %q: pruning needs the segment size", r.prefix)
	}
	segs, err := r.Segments()
	for _, idx := range segs {
		if uint64(idx+1)*uint64(r.segSize) > lowWater || err != nil {
			break
		}
		if err = r.store.Delete(r.segKey(idx)); err == nil {
			n++
		}
	}
	return n, err
}
