package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"aether"
)

// buildAetherd compiles cmd/aetherd into a temp dir and returns the
// binary path.
func buildAetherd(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not at %s: %v", root, err)
	}
	bin := filepath.Join(t.TempDir(), "aetherd")
	cmd := exec.Command("go", "build", "-o", bin, "aether/cmd/aetherd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build aetherd: %v\n%s", err, out)
	}
	return bin
}

// startAetherd launches the daemon against dbDir and returns the
// process plus the address it bound.
func startAetherd(t *testing.T, bin, dbDir string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"-db", dbDir, "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start aetherd: %v", err)
	}
	sc := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addrCh <- a
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("aetherd did not report its address")
		return nil, ""
	}
}

// TestKillMidCommitRecovers SIGKILLs a live aetherd while a commit is
// in flight and verifies against a model of the acknowledged commits
// that the on-disk state recovers to exactly the acknowledged commits,
// plus at most the one in-doubt transaction whose ack the kill
// swallowed. A restarted aetherd must then serve the recovered table
// from its durable catalog.
func TestKillMidCommitRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real process; skipped in -short")
	}
	bin := buildAetherd(t)
	dbDir := t.TempDir()
	proc, addr := startAetherd(t, bin, dbDir, "-mode", "sync")

	cl, err := Dial(addr, ClientOptions{})
	if err != nil {
		proc.Process.Kill()
		proc.Wait()
		t.Fatalf("dial: %v", err)
	}
	s, err := cl.Session()
	if err != nil {
		proc.Process.Kill()
		proc.Wait()
		t.Fatalf("session: %v", err)
	}
	tbl, err := s.CreateTable("kv")
	if err != nil {
		proc.Process.Kill()
		proc.Wait()
		t.Fatalf("create table: %v", err)
	}

	// Sequential synchronous commits: every Commit that returns nil is
	// durably acknowledged and goes into the model.
	model := make(map[uint64]uint64)
	const committed = 120
	for i := uint64(1); i <= committed; i++ {
		val := i * 7
		if err := s.BeginMode(ModeSync); err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
		if err := s.Insert(tbl, i, aether.Row(i, u64(val))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if err := s.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		model[i] = val
	}

	// One more transaction — and the kill lands while its commit is in
	// flight. Its ack never arrives, so it is in doubt: recovery may
	// have it or not, but nothing else may change.
	inDoubtKey := uint64(committed + 1)
	if err := s.BeginMode(ModeSync); err != nil {
		t.Fatalf("begin in-doubt: %v", err)
	}
	if err := s.Insert(tbl, inDoubtKey, aether.Row(inDoubtKey, u64(inDoubtKey*7))); err != nil {
		t.Fatalf("insert in-doubt: %v", err)
	}
	ackErr := make(chan error, 1)
	if err := s.CommitAsync(func(err error) { ackErr <- err }); err != nil {
		t.Fatalf("send in-doubt commit: %v", err)
	}
	if err := proc.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	proc.Wait()
	if err := <-ackErr; err == nil {
		// The ack beat the kill: the transaction is committed, not in
		// doubt.
		model[inDoubtKey] = inDoubtKey * 7
	}
	s.Close()
	cl.Close()

	// Recover in-process and compare against the model.
	got := readKVState(t, dbDir)
	diffs := diffKV(model, got)
	if len(diffs) > 0 {
		withDoubt := make(map[uint64]uint64, len(model)+1)
		for k, v := range model {
			withDoubt[k] = v
		}
		withDoubt[inDoubtKey] = inDoubtKey * 7
		if d2 := diffKV(withDoubt, got); len(d2) > 0 {
			t.Fatalf("recovered state diverges from model (and model+in-doubt):\nvs model: %v\nvs model+in-doubt: %v", diffs, d2)
		}
	}

	// A restarted aetherd must re-create the table from its catalog and
	// serve the recovered rows.
	proc2, addr2 := startAetherd(t, bin, dbDir, "-mode", "sync")
	defer func() {
		proc2.Process.Signal(syscall.SIGTERM)
		proc2.Wait()
	}()
	cl2, err := Dial(addr2, ClientOptions{})
	if err != nil {
		t.Fatalf("dial restarted: %v", err)
	}
	defer cl2.Close()
	s2, err := cl2.Session()
	if err != nil {
		t.Fatalf("session restarted: %v", err)
	}
	defer s2.Close()
	tbl2, err := s2.OpenTable("kv")
	if err != nil {
		t.Fatalf("catalog did not restore table: %v", err)
	}
	if err := s2.Begin(); err != nil {
		t.Fatalf("begin on restarted: %v", err)
	}
	row, err := s2.Read(tbl2, 1)
	if err != nil {
		t.Fatalf("read committed key from restarted aetherd: %v", err)
	}
	if got := binary.BigEndian.Uint64(aether.RowPayload(row)); got != 7 {
		t.Fatalf("restarted read = %d, want 7", got)
	}
	if err := s2.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
}

// diffKV lists the differences between the model want and the
// recovered state got (empty = equal).
func diffKV(want, got map[uint64]uint64) []string {
	var diffs []string
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			diffs = append(diffs, fmt.Sprintf("key %d: got %d (present %v), want %d", k, gv, ok, v))
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("key %d resurrected (value %d, want absent)", k, v))
		}
	}
	return diffs
}

// readKVState opens the killed daemon's database in-process (the same
// layout aetherd uses) and scans table "kv" into a key→value map.
func readKVState(t *testing.T, dbDir string) map[uint64]uint64 {
	t.Helper()
	db, err := aether.Open(aether.Options{LogPath: filepath.Join(dbDir, "logseg")})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("kv")
	if err != nil {
		t.Fatalf("re-create table: %v", err)
	}
	if err := db.RebuildAfterRecovery(); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	sess := db.Session()
	defer sess.Close()
	tx := sess.Begin()
	defer tx.Abort()
	got := make(map[uint64]uint64)
	err = tx.Scan(tbl, 0, ^uint64(0), func(key uint64, row []byte) bool {
		got[key] = binary.BigEndian.Uint64(aether.RowPayload(row))
		return true
	})
	if err != nil {
		t.Fatalf("scan recovered state: %v", err)
	}
	return got
}
