// Package vfs abstracts the filesystem the durable layers sit on: a
// small interface covering exactly the operations the log device, the
// page archive and the cold store perform, with two implementations —
// the passthrough OS filesystem used in production, and a deterministic
// fault-injecting filesystem (FaultFS) that models strict POSIX crash
// semantics for tests and the crash-storm soak harness.
//
// The interface is deliberately narrow. Every durable structure in the
// engine is built from the same few primitives — positional file I/O,
// fsync, rename-into-place, directory fsync — and the crash-ordering
// invariants (ARCHITECTURE.md "Fsync-ordering invariants") are stated
// in terms of them. Threading vfs.FS through logdev and storage lets one
// fault model exercise every layer.
package vfs

import (
	"io"
	"os"
	"path/filepath"
)

// File is an open file: positional reads and writes, durability, and
// sequential Write for the write-whole-file helpers. *os.File
// implements it natively.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Writer
	io.Closer
	// Sync flushes the file's written bytes to stable storage. It does
	// NOT persist the file's directory entry — that is SyncDir's job,
	// exactly as on a real POSIX filesystem.
	Sync() error
	// Truncate changes the file's size.
	Truncate(size int64) error
	// Stat returns the file's metadata (the durable layers use Size).
	Stat() (os.FileInfo, error)
}

// FS is the filesystem the durable layers run on.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics (O_RDWR, O_CREATE,
	// O_TRUNC, O_RDONLY and O_WRONLY are the flags the engine uses).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newname with oldname's file. The new
	// directory entry is durable only after SyncDir on the parent.
	Rename(oldname, newname string) error
	// Remove unlinks a file.
	Remove(name string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory in name order.
	ReadDir(name string) ([]os.DirEntry, error)
	// Stat returns file or directory metadata.
	Stat(name string) (os.FileInfo, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// SyncDir fsyncs a directory, making creates, renames and removals
	// in it durable. fsync of a file does not persist its directory
	// entry; every crash-ordering protocol that installs files must
	// also sync the directory before relying on them.
	SyncDir(dir string) error
}

// OS is the passthrough FS over the real filesystem — the production
// implementation.
type OS struct{}

// OpenFile implements FS via os.OpenFile.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename implements FS via os.Rename.
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS via os.Remove.
func (OS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS via os.MkdirAll.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// ReadDir implements FS via os.ReadDir.
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// Stat implements FS via os.Stat.
func (OS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// ReadFile implements FS via os.ReadFile.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// SyncDir implements FS by opening and fsyncing the directory.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

var _ FS = OS{}

// WriteFileSync writes data to path on fs durably: the bytes are fsynced
// before the file is closed. The caller still owns directory durability
// (fs.SyncDir) if the file is new or renamed.
func WriteFileSync(fs FS, path string, data []byte, perm os.FileMode) error {
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RemoveAll removes the directory dir and everything below it, durably:
// each directory is synced once emptied, and the parent once dir is
// gone, so a power cut cannot bring any of it back.
func RemoveAll(fs FS, dir string) error {
	entries, err := fs.ReadDir(dir)
	for _, e := range entries {
		if err != nil {
			break
		}
		if p := filepath.Join(dir, e.Name()); e.IsDir() {
			err = RemoveAll(fs, p)
		} else {
			err = fs.Remove(p)
		}
	}
	if err == nil {
		err = fs.SyncDir(dir)
	}
	if err == nil {
		err = fs.Remove(dir)
	}
	if err == nil {
		err = fs.SyncDir(filepath.Dir(dir))
	}
	return err
}
