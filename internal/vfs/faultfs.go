package vfs

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// ErrPowerCut is returned by every operation on a FaultFS that has
// suffered a simulated power cut, until Recover is called. File
// handles opened before the cut stay dead even after Recover — the
// "process" that held them did not survive.
var ErrPowerCut = errors.New("vfs: simulated power cut")

// ErrInjected is the default error returned by a fault rule whose Err
// field is nil.
var ErrInjected = errors.New("vfs: injected I/O error")

// Op names a filesystem operation class for fault-rule matching and
// the op trace.
type Op string

// Operation classes. OpWrite covers both positional WriteAt and
// sequential Write; OpRead covers ReadAt and ReadFile's body read.
const (
	OpOpen     Op = "open"
	OpRead     Op = "read"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpTruncate Op = "truncate"
	OpClose    Op = "close"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpMkdir    Op = "mkdir"
	OpReadDir  Op = "readdir"
	OpStat     Op = "stat"
	OpSyncDir  Op = "syncdir"
)

// Rule is a deterministic fault trigger: on the matchCount-th
// operation whose op, directory and base name all match, inject an
// error or a power cut.
type Rule struct {
	// Op selects the operation class; empty matches every op.
	Op Op
	// Dir, when non-empty, must equal the operation path's parent
	// directory (for Rename, the new name's parent). This
	// disambiguates e.g. hot-log segments from archived copies, which
	// share the "*.seg" base-name shape.
	Dir string
	// Path is a path.Match glob applied to the operation path's base
	// name; empty matches every name.
	Path string
	// OffBelow, when positive, restricts the rule to read, write and
	// truncate operations whose offset is below it — e.g. the header
	// region of a file whose body is written through the same handle.
	OffBelow int64
	// After is the number of matching operations to let through
	// unharmed before the rule starts firing. 0 fires on the first
	// match.
	After int
	// Times bounds how many matches fire once the rule is active: a
	// transient fault. 0 means unbounded (a permanent fault).
	Times int
	// Err is the injected error; nil defaults to ErrInjected. Ignored
	// when Cut is set.
	Err error
	// Cut triggers a simulated power cut instead of an error return.
	// For write ops the triggering write reaches the (volatile) page
	// cache first, so it becomes the torn-write candidate.
	Cut bool
}

// RuleStat reports a rule's match and fire counters.
type RuleStat struct {
	// Rule is the rule these counters belong to.
	Rule Rule
	// Matched counts operations that matched the op/dir/path triggers.
	Matched int
	// Fired counts matches that actually injected a fault.
	Fired int
}

// TraceEntry is one record in the bounded operation trace.
type TraceEntry struct {
	// Seq is the operation's global sequence number.
	Seq uint64
	// Op is the operation class.
	Op Op
	// Path is the primary path the operation touched (for Rename, the
	// new name).
	Path string
	// Off is the byte offset of a read/write/truncate, -1 otherwise.
	Off int64
	// Len is the byte count of a read/write, 0 otherwise.
	Len int
	// Err is the operation's outcome (nil on success).
	Err error
}

// String renders the entry for failure-repro logs.
func (t TraceEntry) String() string {
	s := fmt.Sprintf("#%d %s %s", t.Seq, t.Op, t.Path)
	if t.Op == OpRead || t.Op == OpWrite {
		s += fmt.Sprintf(" off=%d len=%d", t.Off, t.Len)
	}
	if t.Err != nil {
		s += " err=" + t.Err.Error()
	}
	return s
}

const traceCap = 512

// fnode is an in-memory inode. It keeps one byte image, the volatile one
// that reads and writes see. The durable image is not stored: it is the
// volatile image with the bytes changed since the last Sync put back,
// newest first, cut to the durable length. So Sync copies nothing, and a
// power cut puts back only what changed, except that unsynced writes may
// tear in at sector granularity.
//
// The image holds only the bytes up to the furthest one written (its
// materialized prefix); the rest of the file's length (size, syncedSize)
// reads as zeros, so growing a file by Truncate costs no memory — a log
// segment born at its full size is as long as what was appended to it.
// An append past the durable prefix changes no durable byte, so a log
// write saves nothing.
type fnode struct {
	data       []byte
	size       int64 // the volatile length; data holds at most this many bytes
	syncedLen  int   // the durable image's materialized prefix
	syncedSize int64 // the durable length
	// saved lists the ranges of the durable prefix overwritten or cut
	// away since the last Sync, oldest first; savedBytes holds what they
	// held before, end to end. Both keep their capacity across Syncs, so
	// a header rewritten in place at every Sync allocates nothing.
	saved      []extent
	savedBytes []byte
	// unsynced lists the extents written since the last Sync, oldest
	// first. Those from tearFrom on are the tearing candidates; a
	// Truncate retires the earlier ones from tearing.
	unsynced []extent
	tearFrom int
}

// save keeps the bytes of [off, end) that the durable prefix holds,
// before a write or a shrink changes them.
func (n *fnode) save(off, end int64) {
	end = min(end, int64(n.syncedLen), int64(len(n.data)))
	if off < end {
		n.saved = append(n.saved, extent{off: off, len: int(end - off)})
		n.savedBytes = append(n.savedBytes, n.data[off:end]...)
	}
}

// put writes p into the image at off, growing the file if it ends past
// it.
func (n *fnode) put(p []byte, off int64) {
	end := off + int64(len(p))
	n.size = max(n.size, end)
	if int64(len(n.data)) < end {
		n.data = extend(n.data, int(end), n.size)
	}
	copy(n.data[off:end], p)
}

// sync makes the volatile image durable (Sync). It copies nothing.
func (n *fnode) sync() {
	n.syncedLen, n.syncedSize = len(n.data), n.size
	n.saved, n.savedBytes = n.saved[:0], n.savedBytes[:0]
	n.unsynced, n.tearFrom = n.unsynced[:0], 0
}

// extend returns b lengthened to n bytes, the new ones zero, for a file
// limit bytes long. Capacity doubles, so a file that grows by appends is
// copied O(1) times per byte; a file already sized (a segment born
// full-size) up to wholeCap gets its whole length at once, and is never
// copied to grow.
func extend(b []byte, n int, limit int64) []byte {
	if cap(b) < n {
		c := max(int64(n), 2*int64(cap(b)))
		if limit <= wholeCap {
			c = max(c, limit)
		}
		b = append(make([]byte, 0, c), b...)
	}
	old := len(b)
	b = b[:n]
	clear(b[old:])
	return b
}

// wholeCap is the longest file extend allocates at its full length.
const wholeCap = 64 << 20

// resize sets the volatile length; growth reads as zeros and the writes
// before it stop being tearing candidates.
func (n *fnode) resize(size int64) {
	if size < int64(len(n.data)) {
		n.save(size, int64(len(n.data)))
		n.data = n.data[:size]
	}
	n.size = size
	n.tearFrom = len(n.unsynced)
}

// extent is one byte range of a file.
type extent struct {
	off int64
	len int
}

// nsOp is a pending (not yet dir-fsynced) namespace mutation with its
// undo. Power cut undoes pending ops in reverse order; SyncDir
// commits the ops pending against one directory.
type nsOp struct {
	dir  string
	undo func(f *FaultFS)
}

// FaultFS is a deterministic, fully in-memory filesystem implementing
// strict POSIX crash semantics:
//
//   - File writes are volatile until File.Sync; a power cut reverts
//     each file to its last-synced image, optionally tearing unsynced
//     writes in at sector granularity: the most recent one under the
//     seeded RNG, every one of them (oldest first) under a TearMask
//     hook, so table-driven tests can persist any subset of what a
//     crash could. Each file is held once: a write saves the durable
//     bytes it overwrites, Sync drops what was saved, and a power cut
//     puts it back.
//   - Namespace changes (create, rename, remove) are volatile until
//     SyncDir on the parent directory; a power cut rolls pending ones
//     back in reverse order. Syncing a file does NOT persist its
//     directory entry, exactly as on ext4/xfs with default mounts.
//   - Fault rules inject seeded transient or permanent errors, or a
//     power cut, at the Nth operation matching an (op, dir, base-glob)
//     trigger, with match/fire counters exposed for assertions.
//   - A bounded trace of recent operations supports failure repro.
//
// Directories are durable upon creation — a deliberate simplification
// (MkdirAll happens once at setup in every caller, never on a crash
// path worth modelling).
//
// All methods are safe for concurrent use.
type FaultFS struct {
	mu sync.Mutex

	// SectorSize is the tearing granularity in bytes. Set before use;
	// defaults to 512.
	sectorSize int
	// tornWrites enables tearing unsynced writes on power cut; when
	// false they are dropped whole.
	tornWrites bool
	// tearMask, when non-nil, overrides the seeded RNG: for each
	// unsynced write of a file, oldest first, it receives the file
	// path and the write's sector count and returns which sectors
	// persist. Used by table-driven tests.
	tearMask func(path string, sectors int) []bool

	rng    *rand.Rand
	files  map[string]*fnode
	dirs   map[string]bool
	pend   []nsOp
	frozen bool
	gen    uint64
	cuts   int

	rules []*ruleState
	ops   map[Op]int64

	// trace is a ring of the last traceCap operations; traceSeq counts
	// every operation ever recorded, so entry traceSeq-1 mod traceCap is
	// the newest.
	trace    [traceCap]TraceEntry
	traceSeq uint64
}

type ruleState struct {
	r       Rule
	matched int
	fired   int
}

// NewFaultFS returns an empty FaultFS whose tearing decisions are
// driven by seed. The root directory "/" exists.
func NewFaultFS(seed int64) *FaultFS {
	return &FaultFS{
		sectorSize: 512,
		rng:        rand.New(rand.NewSource(seed)),
		files:      make(map[string]*fnode),
		dirs:       map[string]bool{"/": true},
		ops:        make(map[Op]int64),
	}
}

// SetSectorSize sets the tearing granularity (bytes). Small values
// (e.g. 4) let tests tear sub-512-byte structures such as the 16-byte
// watermark slots.
func (f *FaultFS) SetSectorSize(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n > 0 {
		f.sectorSize = n
	}
}

// SetTornWrites enables or disables sector tearing of the last
// unsynced write on power cut. Disabled, the write drops whole.
func (f *FaultFS) SetTornWrites(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tornWrites = on
}

// SetTearMask installs a deterministic tearing hook for table-driven
// tests: fn is called once per unsynced write of each file, oldest
// first, with the file path and the write's sector count, and returns
// which sectors persist (nil: none). nil restores the seeded RNG
// behaviour, which tears only each file's most recent unsynced write.
func (f *FaultFS) SetTearMask(fn func(path string, sectors int) []bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tearMask = fn
}

// AddRule arms a fault rule and returns its index for RuleStats.
func (f *FaultFS) AddRule(r Rule) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &ruleState{r: r})
	return len(f.rules) - 1
}

// ClearRules disarms all fault rules.
func (f *FaultFS) ClearRules() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// RuleStats returns the match/fire counters of every armed rule, in
// AddRule order.
func (f *FaultFS) RuleStats() []RuleStat {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]RuleStat, len(f.rules))
	for i, rs := range f.rules {
		out[i] = RuleStat{Rule: rs.r, Matched: rs.matched, Fired: rs.fired}
	}
	return out
}

// OpCounts returns the total number of operations seen per class,
// including ones that failed or were refused.
func (f *FaultFS) OpCounts() map[Op]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[Op]int64, len(f.ops))
	for k, v := range f.ops {
		out[k] = v
	}
	return out
}

// Trace returns the most recent operations, oldest first, capped at
// an internal bound. Use it to reproduce and report fault scenarios.
func (f *FaultFS) Trace() []TraceEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.traceSeq <= traceCap {
		return append([]TraceEntry(nil), f.trace[:f.traceSeq]...)
	}
	head := f.traceSeq % traceCap
	return append(append([]TraceEntry(nil), f.trace[head:]...), f.trace[:head]...)
}

// Cuts reports how many power cuts this FaultFS has suffered.
func (f *FaultFS) Cuts() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cuts
}

// PowerCut simulates sudden power loss: every subsequent operation —
// including ones on already-open files — fails with ErrPowerCut until
// Recover is called.
func (f *FaultFS) PowerCut() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cut()
}

func (f *FaultFS) cut() {
	if f.frozen {
		return
	}
	f.frozen = true
	f.cuts++
}

// Recover models the machine coming back up: pending namespace
// operations roll back in reverse order, every file's volatile image
// reverts to its last-synced bytes (with the last unsynced write
// optionally torn in at sector granularity), and the filesystem
// accepts operations again. Handles opened before the cut stay dead.
func (f *FaultFS) Recover() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.frozen {
		return
	}
	for i := len(f.pend) - 1; i >= 0; i-- {
		f.pend[i].undo(f)
	}
	f.pend = nil
	for p, n := range f.files {
		f.revert(p, n)
	}
	f.frozen = false
	f.gen++
}

// revert rolls a file's volatile image back to its durable one, tearing
// unsynced writes in at sector granularity when enabled.
func (f *FaultFS) revert(path string, n *fnode) {
	// The sectors that tear in are read first: the rollback overwrites
	// them.
	var torn []extent
	var tornBytes []byte
	if candidates := n.unsynced[n.tearFrom:]; f.tornWrites && len(candidates) > 0 {
		if f.tearMask == nil {
			candidates = candidates[len(candidates)-1:]
		}
		for _, w := range candidates {
			if w.len == 0 {
				continue
			}
			sectors := (w.len + f.sectorSize - 1) / f.sectorSize
			var keep []bool
			if f.tearMask != nil {
				keep = f.tearMask(path, sectors)
			} else {
				keep = make([]bool, sectors)
				for i := range keep {
					keep[i] = f.rng.Intn(2) == 0
				}
			}
			for s := 0; s < sectors && s < len(keep); s++ {
				if !keep[s] {
					continue
				}
				off := w.off + int64(s*f.sectorSize)
				end := min(off+int64(f.sectorSize), w.off+int64(w.len))
				torn = append(torn, extent{off: off, len: int(end - off)})
				tornBytes = append(tornBytes, n.data[off:end]...)
			}
		}
	}
	// The saved ranges reach the durable prefix's end whenever a shrink
	// cut the image short of it, so putting them back regrows it.
	at := len(n.savedBytes)
	for i := len(n.saved) - 1; i >= 0; i-- {
		at -= n.saved[i].len
		n.put(n.savedBytes[at:at+n.saved[i].len], n.saved[i].off)
	}
	n.data, n.size = n.data[:n.syncedLen], n.syncedSize
	for _, r := range torn {
		n.put(tornBytes[:r.len], r.off)
		tornBytes = tornBytes[r.len:]
	}
	n.sync()
}

// record appends to the bounded op trace. Caller holds mu.
func (f *FaultFS) record(op Op, path string, off int64, length int, err error) {
	f.ops[op]++
	f.trace[f.traceSeq%traceCap] = TraceEntry{Seq: f.traceSeq + 1, Op: op, Path: path, Off: off, Len: length, Err: err}
	f.traceSeq++
}

// check runs the fault rules for one operation. It returns the
// injected error (nil if none fired) and whether a power cut should
// happen after the operation's mutation is applied — true only for
// Cut rules on write-class ops, so the triggering write lands in the
// volatile image and becomes the tearing candidate. Caller holds mu.
func (f *FaultFS) check(op Op, path string, off int64) (error, bool) {
	for _, rs := range f.rules {
		if rs.r.Op != "" && rs.r.Op != op {
			continue
		}
		if rs.r.OffBelow > 0 && (off >= rs.r.OffBelow || (op != OpRead && op != OpWrite && op != OpTruncate)) {
			continue
		}
		if rs.r.Dir != "" && filepath.Dir(path) != filepath.Clean(rs.r.Dir) {
			continue
		}
		if rs.r.Path != "" {
			ok, _ := filepath.Match(rs.r.Path, filepath.Base(path))
			if !ok {
				continue
			}
		}
		rs.matched++
		if rs.matched <= rs.r.After {
			continue
		}
		if rs.r.Times > 0 && rs.fired >= rs.r.Times {
			continue
		}
		rs.fired++
		if rs.r.Cut {
			if op == OpWrite || op == OpTruncate {
				return nil, true
			}
			f.cut()
			return ErrPowerCut, false
		}
		if rs.r.Err != nil {
			return rs.r.Err, false
		}
		return ErrInjected, false
	}
	return nil, false
}

// enter is the common op prologue: frozen check, trace, rules.
// Returns (injectErr, cutAfter). Caller holds mu.
func (f *FaultFS) enter(op Op, path string, off int64, length int) (error, bool) {
	if f.frozen {
		f.record(op, path, off, length, ErrPowerCut)
		return ErrPowerCut, false
	}
	err, cutAfter := f.check(op, path, off)
	f.record(op, path, off, length, err)
	return err, cutAfter
}

func patherr(op Op, path string, err error) error {
	return &os.PathError{Op: string(op), Path: path, Err: err}
}

// OpenFile implements FS. The parent directory must exist; O_CREATE,
// O_EXCL and O_TRUNC behave as in the os package. Creation and
// truncation are namespace/content mutations with the usual
// volatile-until-synced semantics.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if err, _ := f.enter(OpOpen, name, 0, 0); err != nil {
		return nil, patherr(OpOpen, name, err)
	}
	if f.dirs[name] {
		return nil, patherr(OpOpen, name, errors.New("is a directory"))
	}
	n, ok := f.files[name]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, patherr(OpOpen, name, os.ErrNotExist)
	case ok && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, patherr(OpOpen, name, os.ErrExist)
	case !ok:
		if !f.dirs[filepath.Dir(name)] {
			return nil, patherr(OpOpen, name, os.ErrNotExist)
		}
		n = &fnode{}
		f.files[name] = n
		created := name
		f.pend = append(f.pend, nsOp{dir: filepath.Dir(name), undo: func(f *FaultFS) {
			delete(f.files, created)
		}})
	}
	if flag&os.O_TRUNC != 0 {
		n.resize(0)
	}
	h := &faultFile{fs: f, path: name, n: n, gen: f.gen}
	if flag&os.O_APPEND != 0 {
		h.off = n.size
	}
	return h, nil
}

// Rename implements FS: atomic replace, volatile until SyncDir on the
// new name's parent. A crash before that sync restores the old name
// and any overwritten target.
func (f *FaultFS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	if err, _ := f.enter(OpRename, newname, 0, 0); err != nil {
		return &os.LinkError{Op: "rename", Old: oldname, New: newname, Err: err}
	}
	src, ok := f.files[oldname]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldname, New: newname, Err: os.ErrNotExist}
	}
	if !f.dirs[filepath.Dir(newname)] {
		return &os.LinkError{Op: "rename", Old: oldname, New: newname, Err: os.ErrNotExist}
	}
	overwritten, had := f.files[newname]
	delete(f.files, oldname)
	f.files[newname] = src
	on, nn := oldname, newname
	f.pend = append(f.pend, nsOp{dir: filepath.Dir(newname), undo: func(f *FaultFS) {
		f.files[on] = src
		if had {
			f.files[nn] = overwritten
		} else {
			delete(f.files, nn)
		}
	}})
	return nil
}

// Remove implements FS: the unlink is volatile until SyncDir on the
// parent; a crash before that sync restores the file.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if err, _ := f.enter(OpRemove, name, 0, 0); err != nil {
		return patherr(OpRemove, name, err)
	}
	return f.removeLocked(name)
}

func (f *FaultFS) removeLocked(name string) error {
	if n, ok := f.files[name]; ok {
		delete(f.files, name)
		f.pend = append(f.pend, nsOp{dir: filepath.Dir(name), undo: func(f *FaultFS) {
			f.files[name] = n
		}})
		return nil
	}
	if f.dirs[name] {
		for p := range f.files {
			if filepath.Dir(p) == name {
				return patherr(OpRemove, name, errors.New("directory not empty"))
			}
		}
		delete(f.dirs, name)
		f.pend = append(f.pend, nsOp{dir: filepath.Dir(name), undo: func(f *FaultFS) {
			f.dirs[name] = true
		}})
		return nil
	}
	return patherr(OpRemove, name, os.ErrNotExist)
}

// MkdirAll implements FS. Created directories are durable immediately
// — a documented simplification: every caller creates its directories
// once at setup, never on a crash path.
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	path = filepath.Clean(path)
	if err, _ := f.enter(OpMkdir, path, 0, 0); err != nil {
		return patherr(OpMkdir, path, err)
	}
	if f.files[path] != nil {
		return patherr(OpMkdir, path, errors.New("not a directory"))
	}
	for p := path; ; p = filepath.Dir(p) {
		f.dirs[p] = true
		if p == filepath.Dir(p) {
			break
		}
	}
	return nil
}

// ReadDir implements FS, listing files and subdirectories in name
// order. Entries reflect the volatile namespace, as a live process
// would see it.
func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if err, _ := f.enter(OpReadDir, name, 0, 0); err != nil {
		return nil, patherr(OpReadDir, name, err)
	}
	if !f.dirs[name] {
		return nil, patherr(OpReadDir, name, os.ErrNotExist)
	}
	var out []os.DirEntry
	for p, n := range f.files {
		if filepath.Dir(p) == name {
			out = append(out, &faultDirEntry{name: filepath.Base(p), size: n.size})
		}
	}
	for d := range f.dirs {
		if d != name && filepath.Dir(d) == name {
			out = append(out, &faultDirEntry{name: filepath.Base(d), dir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// Stat implements FS against the volatile namespace.
func (f *FaultFS) Stat(name string) (os.FileInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if err, _ := f.enter(OpStat, name, 0, 0); err != nil {
		return nil, patherr(OpStat, name, err)
	}
	if n, ok := f.files[name]; ok {
		return &faultFileInfo{name: filepath.Base(name), size: n.size}, nil
	}
	if f.dirs[name] {
		return &faultFileInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, patherr(OpStat, name, os.ErrNotExist)
}

// ReadFile implements FS, returning a copy of the volatile contents.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if err, _ := f.enter(OpRead, name, 0, -1); err != nil {
		return nil, patherr(OpRead, name, err)
	}
	n, ok := f.files[name]
	if !ok {
		return nil, patherr(OpRead, name, os.ErrNotExist)
	}
	out := make([]byte, n.size)
	copy(out, n.data)
	return out, nil
}

// SyncDir implements FS: all pending namespace operations in dir
// become durable (they survive a power cut).
func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir = filepath.Clean(dir)
	if err, _ := f.enter(OpSyncDir, dir, 0, 0); err != nil {
		return patherr(OpSyncDir, dir, err)
	}
	if !f.dirs[dir] {
		return patherr(OpSyncDir, dir, os.ErrNotExist)
	}
	kept := f.pend[:0]
	for _, op := range f.pend {
		if op.dir != dir {
			kept = append(kept, op)
		}
	}
	f.pend = kept
	return nil
}

var _ FS = (*FaultFS)(nil)

// faultFile is an open handle on a FaultFS file. It dies with the
// generation it was opened in: after a power cut + Recover, leftover
// handles keep failing, like fds of a dead process.
type faultFile struct {
	fs     *FaultFS
	path   string
	n      *fnode
	gen    uint64
	off    int64
	closed bool
}

// stale reports whether the handle outlived its filesystem
// generation or was closed. Caller holds fs.mu.
func (h *faultFile) stale() error {
	if h.closed {
		return os.ErrClosed
	}
	if h.gen != h.fs.gen {
		return ErrPowerCut
	}
	return nil
}

// ReadAt implements io.ReaderAt with standard partial-read + io.EOF
// semantics against the volatile image.
func (h *faultFile) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.stale(); err != nil {
		return 0, patherr(OpRead, h.path, err)
	}
	if err, _ := h.fs.enter(OpRead, h.path, off, len(p)); err != nil {
		return 0, patherr(OpRead, h.path, err)
	}
	n := h.n
	if off >= n.size {
		return 0, io.EOF
	}
	nn := int(min(int64(len(p)), n.size-off))
	c := 0
	if off < int64(len(n.data)) {
		c = copy(p[:nn], n.data[off:])
	}
	clear(p[c:nn]) // past the materialized prefix
	if nn < len(p) {
		return nn, io.EOF
	}
	return nn, nil
}

// WriteAt implements io.WriterAt into the volatile image; the write
// stays a torn-write candidate until the next Sync.
func (h *faultFile) WriteAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.stale(); err != nil {
		return 0, patherr(OpWrite, h.path, err)
	}
	err, cutAfter := h.fs.enter(OpWrite, h.path, off, len(p))
	if err != nil {
		return 0, patherr(OpWrite, h.path, err)
	}
	h.writeLocked(p, off)
	if cutAfter {
		h.fs.cut()
		return 0, patherr(OpWrite, h.path, ErrPowerCut)
	}
	return len(p), nil
}

// writeLocked applies a write to the volatile image and records it as
// a tearing candidate. Caller holds fs.mu.
func (h *faultFile) writeLocked(p []byte, off int64) {
	h.n.save(off, off+int64(len(p)))
	h.n.put(p, off)
	h.n.unsynced = append(h.n.unsynced, extent{off: off, len: len(p)})
}

// Write implements sequential io.Writer at the handle's offset.
func (h *faultFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.stale(); err != nil {
		return 0, patherr(OpWrite, h.path, err)
	}
	err, cutAfter := h.fs.enter(OpWrite, h.path, h.off, len(p))
	if err != nil {
		return 0, patherr(OpWrite, h.path, err)
	}
	h.writeLocked(p, h.off)
	h.off += int64(len(p))
	if cutAfter {
		h.fs.cut()
		return 0, patherr(OpWrite, h.path, ErrPowerCut)
	}
	return len(p), nil
}

// Sync makes the volatile image the durable one, copying nothing. It
// does not make the file's directory entry durable.
func (h *faultFile) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.stale(); err != nil {
		return patherr(OpSync, h.path, err)
	}
	if err, _ := h.fs.enter(OpSync, h.path, 0, 0); err != nil {
		return patherr(OpSync, h.path, err)
	}
	h.n.sync()
	return nil
}

// Truncate resizes the volatile image; like any write it is lost on a
// power cut unless synced first.
func (h *faultFile) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.stale(); err != nil {
		return patherr(OpTruncate, h.path, err)
	}
	err, cutAfter := h.fs.enter(OpTruncate, h.path, size, 0)
	if err != nil {
		return patherr(OpTruncate, h.path, err)
	}
	if cutAfter {
		h.fs.cut()
		return patherr(OpTruncate, h.path, ErrPowerCut)
	}
	h.n.resize(size)
	return nil
}

// Stat reports the handle's volatile size.
func (h *faultFile) Stat() (os.FileInfo, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.stale(); err != nil {
		return nil, patherr(OpStat, h.path, err)
	}
	if err, _ := h.fs.enter(OpStat, h.path, 0, 0); err != nil {
		return nil, patherr(OpStat, h.path, err)
	}
	return &faultFileInfo{name: filepath.Base(h.path), size: h.n.size}, nil
}

// Close invalidates the handle. Closing is never faulted — a real
// close of an already-written fd cannot lose data that fsync promised.
func (h *faultFile) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	h.closed = true
	h.fs.record(OpClose, h.path, 0, 0, nil)
	return nil
}

var _ File = (*faultFile)(nil)

// faultFileInfo implements os.FileInfo for FaultFS entries.
type faultFileInfo struct {
	name string
	size int64
	dir  bool
}

// Name implements os.FileInfo.
func (i *faultFileInfo) Name() string { return i.name }

// Size implements os.FileInfo.
func (i *faultFileInfo) Size() int64 { return i.size }

// Mode implements os.FileInfo.
func (i *faultFileInfo) Mode() iofs.FileMode {
	if i.dir {
		return iofs.ModeDir | 0o755
	}
	return 0o644
}

// ModTime implements os.FileInfo; FaultFS does not track times.
func (i *faultFileInfo) ModTime() time.Time { return time.Time{} }

// IsDir implements os.FileInfo.
func (i *faultFileInfo) IsDir() bool { return i.dir }

// Sys implements os.FileInfo.
func (i *faultFileInfo) Sys() any { return nil }

// faultDirEntry implements os.DirEntry for ReadDir listings.
type faultDirEntry struct {
	name string
	size int64
	dir  bool
}

// Name implements os.DirEntry.
func (e *faultDirEntry) Name() string { return e.name }

// IsDir implements os.DirEntry.
func (e *faultDirEntry) IsDir() bool { return e.dir }

// Type implements os.DirEntry.
func (e *faultDirEntry) Type() iofs.FileMode {
	if e.dir {
		return iofs.ModeDir
	}
	return 0
}

// Info implements os.DirEntry.
func (e *faultDirEntry) Info() (iofs.FileInfo, error) {
	return &faultFileInfo{name: e.name, size: e.size, dir: e.dir}, nil
}
