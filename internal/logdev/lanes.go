// lanes.go is the on-disk layout of an N-lane log: where each lane's
// files live under a root, and the check that a root is being opened
// with the lane count it was written with. Open, the soak harness and
// logdump all go through it.
package logdev

import (
	"fmt"
	"path/filepath"

	"aether/internal/vfs"
)

// LaneDir names where lane i of an n-lane log keeps its files under
// root: root itself on one lane (the flat layout), root/p<i> on N. The
// same rule lays out hot segment directories, cold-store directories
// and object-store key prefixes (root "").
func LaneDir(root string, i, n int) string {
	if n == 1 {
		return root
	}
	return filepath.Join(root, fmt.Sprintf("p%d", i))
}

// CountLanes returns the lane count root was written with: the number of
// consecutive p<i> directories, or 1 for the flat layout.
func CountLanes(fs vfs.FS, root string) int {
	n := 0
	for isDir(fs, LaneDir(root, n, 2)) {
		n++
	}
	return max(n, 1)
}

// CheckLaneLayout rejects opening root with a lane count its on-disk
// layout contradicts: reading a flat directory as N lanes, or N lanes as
// fewer, would silently leave the other logs' records out of recovery. A
// regular file at root — the single-file log an earlier version wrote —
// is refused with ErrFormat and left as it is.
func CheckLaneLayout(fs vfs.FS, root string, n int) error {
	if st, err := fs.Stat(root); err == nil && !st.IsDir() {
		return fmt.Errorf("%w: %s is a file, and the single-file log layout is gone (a log is a segmented directory)", ErrFormat, root)
	}
	if n == 1 {
		if isDir(fs, LaneDir(root, 0, 2)) {
			return fmt.Errorf("aether: %s holds a partitioned database; set Options.LogPartitions to its partition count", root)
		}
		return nil
	}
	if HasManifest(fs, root) {
		return fmt.Errorf("aether: %s holds a single-log segmented database; open it with LogPartitions 0 or 1", root)
	}
	if isDir(fs, LaneDir(root, n, n+1)) {
		return fmt.Errorf("aether: %s has more than the requested %d log partitions; open it with its original LogPartitions", root, n)
	}
	return nil
}

// HasManifest reports whether dir already holds a segmented log, whose
// MANIFEST then fixes its segment size.
func HasManifest(fs vfs.FS, dir string) bool {
	st, err := fs.Stat(filepath.Join(dir, manifestName))
	return err == nil && !st.IsDir()
}

func isDir(fs vfs.FS, path string) bool {
	st, err := fs.Stat(path)
	return err == nil && st.IsDir()
}
