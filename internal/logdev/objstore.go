// objstore.go is the S3-style object API underneath the cold store: a
// flat namespace of immutable blobs with whole-object put/get semantics.
// Two implementations ship — MemObjectStore, an in-memory "cloud" with
// an injectable network-failure model (latency, transient 5xx storms,
// torn uploads, permanent outages) for tests and the soak harness, and
// DirObjectStore, a directory of files: the local cold store behind
// Options.ArchiveDir, and what logdump inspects offline.
//
// The failure model is deliberately server-side: a torn upload leaves a
// truncated object *in the store* while the client sees an error,
// exactly the case "Immutable Log Storage as a Service" warns about —
// so every object the remote tier writes carries a self-validating
// envelope (see remote.go) and a reader treats a torn object as absent.
package logdev

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aether/internal/vfs"
)

// ObjectStore is the minimal S3-style contract the remote log tier
// needs: whole-object put/get/delete plus prefix listing. Puts
// overwrite atomically from the reader's point of view (a successful
// Get returns some complete former Put, or a torn prefix of a failed
// one — never an interleaving). Keys use "/" separators by convention.
type ObjectStore interface {
	// Put stores data under key, overwriting any existing object.
	Put(key string, data []byte) error
	// Get returns the object's bytes, or ErrObjectNotFound.
	Get(key string) ([]byte, error)
	// Delete removes the object; deleting a missing key is not an error.
	Delete(key string) error
	// List returns the keys with the given prefix, sorted ascending.
	List(prefix string) ([]string, error)
}

// ErrObjectNotFound reports a Get for a key the store does not hold.
var ErrObjectNotFound = errors.New("logdev: object not found")

// ErrTornUpload is the error a torn Put returns to the client while the
// store keeps the truncated prefix — the connection died mid-transfer.
var ErrTornUpload = errors.New("logdev: object upload torn mid-transfer")

// ObjectStoreStats counts MemObjectStore traffic, including the faults
// the network model injected.
type ObjectStoreStats struct {
	Puts      int64 // successful whole-object uploads
	Gets      int64 // successful downloads
	Deletes   int64 // delete calls (missing keys included)
	Lists     int64 // prefix listings
	PutErrors int64 // puts failed by the fault model (storms, outage)
	TornPuts  int64 // puts that persisted a truncated object
	GetErrors int64 // gets failed by an outage
	BytesUp   int64 // bytes durably uploaded
}

// NetFault arms MemObjectStore's network-failure model for the next
// operations. Zero values disarm each dimension.
type NetFault struct {
	// Latency is added to every operation (upload bandwidth, RTT).
	Latency time.Duration
	// FailPuts makes the next N puts fail with FailErr (or a generic
	// 503-style error) without storing anything — a transient 5xx storm.
	FailPuts int
	// FailErr is the error returned during a FailPuts storm.
	FailErr error
	// TearPutAfter > 0 tears the N-th subsequent put: the store keeps
	// roughly half the object and the client gets ErrTornUpload.
	// TearPutAfter == 1 tears the very next put.
	TearPutAfter int
	// OnTear runs synchronously when the torn put fires, before the
	// error returns — the soak harness uses it to power-cut the machine
	// mid-upload.
	OnTear func()
	// Outage fails every put and get with this error until the fault is
	// re-armed with a nil Outage — a permanent (until healed) network
	// partition or credential loss.
	Outage error
}

// MemObjectStore is an in-memory ObjectStore with an injectable
// network-failure model. It is the soak harness's "cloud": it survives
// local power cuts (Crash on the fault filesystem does not touch it),
// so whatever was durably uploaded before a cut must still restore.
type MemObjectStore struct {
	mu    sync.Mutex
	objs  map[string][]byte
	fault NetFault
	stats ObjectStoreStats
}

// NewMemObjectStore returns an empty in-memory object store with no
// faults armed.
func NewMemObjectStore() *MemObjectStore {
	return &MemObjectStore{objs: make(map[string][]byte)}
}

// Arm replaces the network-failure model. Arm(NetFault{}) heals
// everything.
func (m *MemObjectStore) Arm(f NetFault) {
	m.mu.Lock()
	m.fault = f
	m.mu.Unlock()
}

// Stats returns a snapshot of the traffic counters.
func (m *MemObjectStore) Stats() ObjectStoreStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Put stores data under key, subject to the armed fault model.
func (m *MemObjectStore) Put(key string, data []byte) error {
	m.mu.Lock()
	lat := m.fault.Latency
	m.mu.Unlock()
	if lat > 0 {
		time.Sleep(lat)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fault.Outage != nil {
		m.stats.PutErrors++
		return m.fault.Outage
	}
	if m.fault.FailPuts > 0 {
		m.fault.FailPuts--
		m.stats.PutErrors++
		if m.fault.FailErr != nil {
			return m.fault.FailErr
		}
		return errors.New("logdev: object store: 503 service unavailable")
	}
	if m.fault.TearPutAfter > 0 {
		m.fault.TearPutAfter--
		if m.fault.TearPutAfter == 0 {
			// Keep a prefix: the server committed what arrived before the
			// connection died. Half the object keeps the envelope header
			// intact for realistic torn-object detection.
			m.objs[key] = append([]byte(nil), data[:len(data)/2]...)
			m.stats.TornPuts++
			m.stats.PutErrors++
			if cb := m.fault.OnTear; cb != nil {
				m.mu.Unlock()
				cb()
				m.mu.Lock()
			}
			return ErrTornUpload
		}
	}
	m.objs[key] = append([]byte(nil), data...)
	m.stats.Puts++
	m.stats.BytesUp += int64(len(data))
	return nil
}

// Get returns a copy of the object's bytes.
func (m *MemObjectStore) Get(key string) ([]byte, error) {
	m.mu.Lock()
	lat := m.fault.Latency
	m.mu.Unlock()
	if lat > 0 {
		time.Sleep(lat)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fault.Outage != nil {
		m.stats.GetErrors++
		return nil, m.fault.Outage
	}
	data, ok := m.objs[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrObjectNotFound, key)
	}
	m.stats.Gets++
	return append([]byte(nil), data...), nil
}

// Delete removes the object if present.
func (m *MemObjectStore) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.objs, key)
	m.stats.Deletes++
	return nil
}

// List returns the keys with the given prefix, sorted.
func (m *MemObjectStore) List(prefix string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Lists++
	var keys []string
	for k := range m.objs {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// DirObjectStore is a file-per-object ObjectStore rooted at a
// directory: key "seg/000…042" becomes <root>/seg/000…042. It is the local
// cold store (Options.ArchiveDir is a RemoteArchiver over one), so it
// keeps the install discipline a cold store's acknowledgement stands on —
// the caller unlinks its hot copy as soon as Put returns:
//
//   - an object is written and fsynced under a temporary name, renamed
//     into place, and its directory fsynced, so a crash at any point
//     leaves the old complete object or the new one under the final
//     name, never a truncated or mixed one;
//   - every directory the store creates — the root, lane prefixes,
//     seg/, snap/ — has its own entry fsynced in its parent
//     before the first Put beneath it returns, or a power loss could drop
//     the directory wholesale with acknowledged objects inside;
//   - temporaries a crash left behind are swept by the next write-side
//     open.
type DirObjectStore struct {
	fs       vfs.FS
	root     string
	readOnly bool
	tmpSeq   atomic.Uint64 // distinct temporary names for concurrent Puts

	mu      sync.Mutex
	durable map[string]bool // directories whose entry this open has fsynced
}

// NewDirObjectStore opens (creating if needed) a directory-backed
// object store rooted at dir on the host filesystem.
func NewDirObjectStore(dir string) (*DirObjectStore, error) {
	return NewDirObjectStoreFS(vfs.OS{}, dir)
}

// NewDirObjectStoreFS is NewDirObjectStore on an explicit VFS, so
// tests can put the "cloud" on a fault filesystem too. It is the
// write-side open: the root is created durably, and temporaries of a
// crashed Put are removed. A directory holding *.seg files — the
// one-file-per-segment archive layout that preceded object envelopes,
// which no reader here understands — is refused with ErrFormat and left
// as it is, rather than taken for an empty store whose log history then
// silently starts over.
func NewDirObjectStoreFS(fs vfs.FS, dir string) (*DirObjectStore, error) {
	d := &DirObjectStore{fs: fs, root: filepath.Clean(dir), durable: make(map[string]bool)}
	// The root's entry is fsynced in its parent whether or not the root
	// was there already (see ensureDir), and so is every ancestor that had
	// to be made for it, outermost first: a directory is only as durable
	// as its entry in its parent.
	sync := []string{d.root}
	for p := filepath.Dir(d.root); filepath.Dir(p) != p; p = filepath.Dir(p) {
		if _, err := fs.Stat(p); err == nil {
			break
		}
		sync = append(sync, p)
	}
	if err := fs.MkdirAll(d.root, 0o755); err != nil {
		return nil, fmt.Errorf("logdev: create object store %s: %w", dir, err)
	}
	for i := len(sync) - 1; i >= 0; i-- {
		if err := fs.SyncDir(filepath.Dir(sync[i])); err != nil {
			return nil, fmt.Errorf("logdev: sync parent of %s: %w", sync[i], err)
		}
	}
	d.durable[d.root] = true
	temps, err := d.scan()
	if err != nil {
		return nil, err
	}
	for _, tmp := range temps {
		if err := fs.Remove(tmp); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("logdev: sweep stale temp %s: %w", tmp, err)
		}
	}
	return d, nil
}

// DirObjectStoreAt is the read-side open for diagnostic tools (logdump):
// the directory must exist, nothing in it is created, swept or otherwise
// touched — a live writer may own its temporaries — and Put and Delete
// fail with ErrReadOnly. An old-layout directory is refused as on the
// write side.
func DirObjectStoreAt(dir string) (*DirObjectStore, error) {
	st, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("logdev: open object store %s: %w", dir, err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("logdev: object store %s is not a directory", dir)
	}
	d := &DirObjectStore{fs: vfs.OS{}, root: filepath.Clean(dir), readOnly: true}
	if _, err := d.scan(); err != nil {
		return nil, err
	}
	return d, nil
}

// scan walks the store and returns the temporaries in it, refusing
// (ErrFormat) a tree that holds old-layout *.seg files. It changes
// nothing.
func (d *DirObjectStore) scan() (temps []string, err error) {
	err = d.walk("", func(rel string) error {
		switch {
		case strings.HasSuffix(rel, ".seg"):
			return fmt.Errorf("%w: %s holds %s: a one-file-per-segment archive, not an object store (its layout predates object envelopes; nothing was changed)", ErrFormat, d.root, rel)
		case strings.HasSuffix(rel, ".tmp"):
			temps = append(temps, d.path(rel))
		}
		return nil
	})
	return temps, err
}

func (d *DirObjectStore) path(key string) string {
	return filepath.Join(d.root, filepath.FromSlash(key))
}

// ensureDir makes dir (at or below the root) exist with its entry
// fsynced in its parent. Existing is not enough: a directory a crashed
// process made and never synced is still one power loss from gone, so
// the first use per open syncs regardless and later ones hit the cache.
func (d *DirObjectStore) ensureDir(dir string) error {
	if d.durable[dir] {
		return nil
	}
	parent := filepath.Dir(dir)
	if parent == dir {
		return fmt.Errorf("%s is outside the store", dir)
	}
	if err := d.ensureDir(parent); err != nil {
		return err
	}
	if err := d.fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := d.fs.SyncDir(parent); err != nil {
		return err
	}
	d.durable[dir] = true
	return nil
}

// Put stores data under key: synced temporary, rename, directory fsync.
func (d *DirObjectStore) Put(key string, data []byte) error {
	if d.readOnly {
		return ErrReadOnly
	}
	p := d.path(key)
	dir := filepath.Dir(p)
	d.mu.Lock()
	err := d.ensureDir(dir)
	d.mu.Unlock()
	if err != nil {
		return fmt.Errorf("logdev: object store: directory for %s: %w", key, err)
	}
	tmp := fmt.Sprintf("%s.%d.tmp", p, d.tmpSeq.Add(1))
	if err := vfs.WriteFileSync(d.fs, tmp, data, 0o644); err != nil {
		_ = d.fs.Remove(tmp) // best effort: the next open sweeps what stays
		return fmt.Errorf("logdev: object store: write %s: %w", key, err)
	}
	if err := d.fs.Rename(tmp, p); err != nil {
		_ = d.fs.Remove(tmp)
		return fmt.Errorf("logdev: object store: install %s: %w", key, err)
	}
	if err := d.fs.SyncDir(dir); err != nil {
		return fmt.Errorf("logdev: object store: sync directory of %s: %w", key, err)
	}
	return nil
}

// Get returns the object's bytes.
func (d *DirObjectStore) Get(key string) ([]byte, error) {
	data, err := d.fs.ReadFile(d.path(key))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrObjectNotFound, key)
		}
		return nil, err
	}
	return data, nil
}

// Delete removes the object if present. The unlink is not fsynced: a
// crash may bring a deleted object back, which every caller tolerates (a
// segment or snapshot below the retention floor) — the reverse,
// an acknowledged object vanishing, is what Put's fsyncs rule out.
func (d *DirObjectStore) Delete(key string) error {
	if d.readOnly {
		return ErrReadOnly
	}
	err := d.fs.Remove(d.path(key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// List walks the store for keys with the given prefix, sorted — only
// the directory the prefix names, not the whole tree. Temporaries of
// in-flight or crashed Puts are not objects.
func (d *DirObjectStore) List(prefix string) ([]string, error) {
	var keys []string
	dir := strings.TrimSuffix(prefix[:strings.LastIndexByte(prefix, '/')+1], "/")
	err := d.walk(dir, func(rel string) error {
		if strings.HasPrefix(rel, prefix) && !strings.HasSuffix(rel, ".tmp") {
			keys = append(keys, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}

// walk calls fn with the slash-separated path, relative to the root, of
// every file under rel.
func (d *DirObjectStore) walk(rel string, fn func(rel string) error) error {
	ents, err := d.fs.ReadDir(d.path(rel))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	for _, e := range ents {
		child := e.Name()
		if rel != "" {
			child = rel + "/" + e.Name()
		}
		if e.IsDir() {
			err = d.walk(child, fn)
		} else {
			err = fn(child)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
