package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aether"
)

// buildLog writes a small deterministic history — two tables, so that
// on three lanes transactions home on different lanes and share pages —
// into a fresh n-lane segmented database and closes it.
func buildLog(t *testing.T, dir string, n int) {
	t.Helper()
	db, err := aether.Open(aether.Options{LogPath: dir, SegmentSize: 4096, LogPartitions: n, Mode: aether.CommitSync})
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.CreateTable("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable("b")
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	for k := uint64(1); k <= 4; k++ {
		tx := s.Begin()
		first, second := a, b
		if k%2 == 0 {
			first, second = b, a
		}
		if err := tx.Insert(first, k, aether.Row(k, []byte("first"))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(second, k, aether.Row(k, []byte("second"))); err != nil {
			t.Fatal(err)
		}
		if k == 3 {
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	got := <-out
	if err != nil {
		t.Fatalf("%v\n%s", err, got)
	}
	return got
}

// TestDumpGolden pins dump's output over a one-lane and a three-lane
// directory: the same code prints both, the seq and lane columns appear
// only where seqs exist, and the three-lane records come out in global
// seq order. Watermark-slot lines are left out of the comparison: which
// bytes each flush covered depends on when the flush daemon's timer
// fired.
func TestDumpGolden(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			buildLog(t, dir, n)
			raw := capture(t, func() error { return dump(dir, "", 0, false) })
			var kept []string
			for _, line := range strings.Split(strings.ReplaceAll(raw, dir, "$DIR"), "\n") {
				if !strings.HasPrefix(line, "  header ") {
					kept = append(kept, line)
				}
			}
			got := strings.Join(kept, "\n")
			golden := filepath.Join("testdata", fmt.Sprintf("dump_%d_lanes.golden", n))
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("dump of a %d-lane directory differs from %s; got:\n%s", n, golden, got)
			}
		})
	}
}
