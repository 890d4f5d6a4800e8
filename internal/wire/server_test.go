package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aether"
)

// startServer opens a database with opts, wraps it in a wire server
// with srvOpts, and serves it on a loopback listener. Cleanup closes
// the server and the database.
func startServer(t *testing.T, opts aether.Options, srvOpts ServerOptions) (*Server, *aether.DB, string) {
	t.Helper()
	db, err := aether.Open(opts)
	if err != nil {
		t.Fatalf("open db: %v", err)
	}
	srv := NewServer(db, srvOpts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		db.Close()
	})
	return srv, db, ln.Addr().String()
}

func u64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// TestLoopbackPipelinedDurable drives N connections of pipelined
// commits against a file-backed server and asserts every acknowledged
// commit survives reopening the database — no lost acks.
func TestLoopbackPipelinedDurable(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log")
	opts := aether.Options{LogPath: logPath, Mode: aether.CommitPipelined}
	// Managed by hand (not startServer) because the test shuts the
	// server and database down mid-test to reopen the log.
	db, err := aether.Open(opts)
	if err != nil {
		t.Fatalf("open db: %v", err)
	}
	srv := NewServer(db, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	cl, err := Dial(addr, ClientOptions{Conns: 8})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	admin, err := cl.Session()
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if _, err := admin.CreateTable("kv"); err != nil {
		t.Fatalf("create table: %v", err)
	}
	admin.Close()

	const conns, txns = 8, 40
	var mu sync.Mutex
	acked := make(map[uint64]uint64)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, err := cl.Session()
			if err != nil {
				t.Errorf("conn %d: session: %v", c, err)
				return
			}
			defer s.Close()
			tbl, err := s.OpenTable("kv")
			if err != nil {
				t.Errorf("conn %d: open table: %v", c, err)
				return
			}
			for i := 0; i < txns; i++ {
				key := uint64(c*txns + i)
				val := key * 3
				if err := s.BeginMode(ModePipelined); err != nil {
					t.Errorf("conn %d: begin: %v", c, err)
					return
				}
				// Rows carry the 8-byte key prefix (aether.Row) so the
				// reopened database can rebuild its indexes from the heap.
				if err := s.Insert(tbl, key, aether.Row(key, u64(val))); err != nil {
					t.Errorf("conn %d: insert: %v", c, err)
					return
				}
				err := s.CommitAsync(func(err error) {
					if err != nil {
						t.Errorf("conn %d txn %d: commit ack: %v", c, i, err)
						return
					}
					mu.Lock()
					acked[key] = val
					mu.Unlock()
				})
				if err != nil {
					t.Errorf("conn %d: commit send: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait() // Session.Close inside each goroutine waited for its acks
	if err := cl.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	if len(acked) != conns*txns {
		t.Fatalf("acked %d commits, want %d", len(acked), conns*txns)
	}

	// Stop the server and database, then reopen the log: every
	// acknowledged commit must have survived.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	db.Close()
	db2, err := aether.Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	tbl, err := db2.CreateTable("kv")
	if err != nil {
		t.Fatalf("re-create table: %v", err)
	}
	if err := db2.RebuildAfterRecovery(); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	sess := db2.Session()
	defer sess.Close()
	tx := sess.Begin()
	defer tx.Abort()
	for key, val := range acked {
		row, err := tx.Read(tbl, key)
		if err != nil {
			t.Fatalf("acked key %d lost after reopen: %v", key, err)
		}
		if got := binary.BigEndian.Uint64(aether.RowPayload(row)); got != val {
			t.Fatalf("key %d: value %d after reopen, want %d", key, got, val)
		}
	}
}

// TestGracefulShutdownDrains asserts Shutdown lets a connection with an
// open transaction finish it, while refusing new transactions and new
// connections.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, _, addr := startServer(t, aether.Options{Device: aether.DeviceFlash}, ServerOptions{})
	cl, err := Dial(addr, ClientOptions{Conns: 2})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	s, err := cl.Session()
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	tbl, err := s.CreateTable("kv")
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	if err := s.Begin(); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := s.Insert(tbl, 1, u64(10)); err != nil {
		t.Fatalf("insert: %v", err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Wait until the server is visibly draining (listener closed).
	deadline := time.Now().Add(5 * time.Second)
	for {
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			break // new connections refused
		}
		nc.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The in-flight transaction still completes durably.
	if err := s.Commit(); err != nil {
		t.Fatalf("commit during drain: %v", err)
	}
	// But new work on the drained server is refused: either the server
	// answered StatusShuttingDown or it already closed the connection.
	if err := s.Begin(); err == nil {
		t.Fatal("Begin succeeded on a draining server")
	} else if !errors.Is(err, ErrShuttingDown) && !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Begin on draining server: %v", err)
	}
	s.Close()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := srv.Stats(); st.Active != 0 {
		t.Fatalf("%d connections still active after Shutdown", st.Active)
	}
}

// TestGroupCommitConsolidation is the paper's headline measured over
// the network path: 32 pipelined loopback connections commit
// concurrently and the engine must absorb them into far fewer log
// flushes than commits.
func TestGroupCommitConsolidation(t *testing.T) {
	_, db, addr := startServer(t,
		aether.Options{Device: aether.DeviceFlash, Mode: aether.CommitPipelined},
		ServerOptions{})
	cl, err := Dial(addr, ClientOptions{Conns: 32})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	admin, err := cl.Session()
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if _, err := admin.CreateTable("kv"); err != nil {
		t.Fatalf("create table: %v", err)
	}
	admin.Close()

	before := db.Stats()
	const conns, txns = 32, 30
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, err := cl.Session()
			if err != nil {
				t.Errorf("conn %d: session: %v", c, err)
				return
			}
			defer s.Close()
			tbl, err := s.OpenTable("kv")
			if err != nil {
				t.Errorf("conn %d: open table: %v", c, err)
				return
			}
			for i := 0; i < txns; i++ {
				if err := s.BeginMode(ModePipelined); err != nil {
					t.Errorf("conn %d: begin: %v", c, err)
					return
				}
				if err := s.Insert(tbl, uint64(c*txns+i), u64(1)); err != nil {
					t.Errorf("conn %d: insert: %v", c, err)
					return
				}
				if err := s.CommitAsync(nil); err != nil {
					t.Errorf("conn %d: commit: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// Read the deltas over the wire (OpStats), like a monitoring client
	// would.
	m, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	commits := m["aether_commits"] - before.Commits
	flushes := m["aether_log_flushes"] - before.LogFlushes
	if commits < conns*txns {
		t.Fatalf("only %d commits measured, want >= %d", commits, conns*txns)
	}
	if flushes*2 >= commits {
		t.Fatalf("no consolidation over the wire: %d flushes for %d commits (want < 0.5x)", flushes, commits)
	}
	t.Logf("network group commit: %d commits, %d flushes (%.2fx)", commits, flushes, float64(flushes)/float64(commits))
}

// rawConn dials a raw TCP connection for malformed-client tests.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// waitStat polls get until it returns true or the deadline passes.
func waitStat(t *testing.T, what string, get func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !get() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertHealthy asserts a well-formed client still gets service.
func assertHealthy(t *testing.T, addr string) {
	t.Helper()
	cl, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatalf("healthy dial after abuse: %v", err)
	}
	defer cl.Close()
	s, err := cl.Session()
	if err != nil {
		t.Fatalf("healthy session after abuse: %v", err)
	}
	defer s.Close()
	if err := s.Ping(); err != nil {
		t.Fatalf("healthy ping after abuse: %v", err)
	}
}

// TestMalformedClients runs each abuse case against one server and
// asserts each closes only its own connection, with the typed reason
// counted, while a well-formed client keeps getting service.
func TestMalformedClients(t *testing.T) {
	srv, _, addr := startServer(t, aether.Options{}, ServerOptions{
		MaxFrame:     1 << 16,
		ReadTimeout:  time.Minute,
		WriteTimeout: 300 * time.Millisecond,
	})

	t.Run("oversized frame", func(t *testing.T) {
		nc := rawConn(t, addr)
		// Length prefix far above MaxFrame; the server must reject it
		// before allocating and close the connection.
		if _, err := nc.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
			t.Fatalf("write: %v", err)
		}
		waitStat(t, "oversized counter", func() bool { return srv.Stats().Oversized >= 1 })
		assertConnClosed(t, nc)
		assertHealthy(t, addr)
	})

	t.Run("truncated header", func(t *testing.T) {
		nc := rawConn(t, addr)
		// Half a length prefix, then hang up mid-frame.
		if _, err := nc.Write([]byte{0, 0}); err != nil {
			t.Fatalf("write: %v", err)
		}
		nc.Close()
		waitStat(t, "truncated counter", func() bool { return srv.Stats().Truncated >= 1 })
		assertHealthy(t, addr)
	})

	t.Run("unknown opcode", func(t *testing.T) {
		nc := rawConn(t, addr)
		frame := make([]byte, 0, 16)
		frame = append(frame, 0, 0, 0, 9)                   // length = header only
		frame = append(frame, 0, 0, 0, 0, 0, 0, 0, 7, 0xEE) // id=7, opcode 0xEE
		if _, err := nc.Write(frame); err != nil {
			t.Fatalf("write: %v", err)
		}
		// The server answers with StatusBadRequest, then closes.
		payload, err := ReadFrame(nc, 1<<16)
		if err != nil {
			t.Fatalf("read error reply: %v", err)
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("decode error reply: %v", err)
		}
		if resp.ID != 7 || resp.Status != StatusBadRequest {
			t.Fatalf("error reply = id %d status %d, want id 7 StatusBadRequest", resp.ID, resp.Status)
		}
		waitStat(t, "unknown-op counter", func() bool { return srv.Stats().UnknownOps >= 1 })
		assertConnClosed(t, nc)
		assertHealthy(t, addr)
	})

	t.Run("malformed body", func(t *testing.T) {
		nc := rawConn(t, addr)
		frame := make([]byte, 0, 16)
		frame = append(frame, 0, 0, 0, 10)                                 // length = header + 1
		frame = append(frame, 0, 0, 0, 0, 0, 0, 0, 8, byte(OpBegin), 0xFF) // id=8, Begin in mode 0xFF
		if _, err := nc.Write(frame); err != nil {
			t.Fatalf("write: %v", err)
		}
		// The frame is whole and its opcode known, but the body is not
		// a request: StatusBadRequest, then the server hangs up.
		payload, err := ReadFrame(nc, 1<<16)
		if err != nil {
			t.Fatalf("read error reply: %v", err)
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("decode error reply: %v", err)
		}
		if resp.ID != 8 || resp.Status != StatusBadRequest {
			t.Fatalf("error reply = id %d status %d, want id 8 StatusBadRequest", resp.ID, resp.Status)
		}
		waitStat(t, "bad-request counter", func() bool { return srv.Stats().BadRequests >= 1 })
		assertConnClosed(t, nc)
		assertHealthy(t, addr)
	})

	t.Run("stalled reader", func(t *testing.T) {
		// Seed one big row through a well-behaved session.
		cl, err := Dial(addr, ClientOptions{})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer cl.Close()
		s, err := cl.Session()
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		tbl, err := s.CreateTable("big")
		if err != nil {
			t.Fatalf("create table: %v", err)
		}
		if err := s.Begin(); err != nil {
			t.Fatalf("begin: %v", err)
		}
		bigRow := make([]byte, 4<<10)
		if err := s.Insert(tbl, 1, bigRow); err != nil {
			t.Fatalf("insert: %v", err)
		}
		if err := s.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		s.Close()

		// The abusive connection requests the big row over and over
		// without ever reading a byte back; once the kernel buffers
		// fill, the server's write deadline trips.
		nc := rawConn(t, addr)
		var frames []byte
		frames = AppendRequest(frames, &Request{ID: 1, Op: OpOpenTable, Name: "big"})
		frames = AppendRequest(frames, &Request{ID: 2, Op: OpBegin, Mode: ModeSync})
		for i := 0; i < 8192; i++ {
			frames = AppendRequest(frames, &Request{ID: uint64(3 + i), Op: OpRead, Table: 1, Key: 1})
		}
		nc.SetWriteDeadline(time.Now().Add(30 * time.Second))
		nc.Write(frames) // a late write error is fine: the server may kill us first
		waitStat(t, "write-timeout counter", func() bool { return srv.Stats().WriteTimeouts >= 1 })
		assertHealthy(t, addr)
	})

	// All abuse closed only its own connection: the server's error
	// counters match the abuse delivered, and nothing else died.
	st := srv.Stats()
	if st.Oversized != 1 || st.Truncated < 1 || st.UnknownOps != 1 || st.BadRequests != 1 || st.WriteTimeouts < 1 {
		t.Fatalf("unexpected abuse counters: %+v", st)
	}
}

// TestConnectionEndCounters: the three other ways a connection ends
// without the client's say-so each count once — an idle connection is
// closed past ReadTimeout, a connection dropped mid-transaction has its
// transaction aborted, and a dial the listener hands over after
// Shutdown began is refused.
func TestConnectionEndCounters(t *testing.T) {
	t.Run("read timeout", func(t *testing.T) {
		srv, _, addr := startServer(t, aether.Options{}, ServerOptions{ReadTimeout: 100 * time.Millisecond})
		nc := rawConn(t, addr)
		waitStat(t, "read-timeout counter", func() bool { return srv.Stats().ReadTimeouts >= 1 })
		assertConnClosed(t, nc)
		if st := srv.Stats(); st.ReadTimeouts != 1 {
			t.Fatalf("one idle connection, %d read timeouts", st.ReadTimeouts)
		}
	})

	t.Run("dropped mid-transaction", func(t *testing.T) {
		srv, _, addr := startServer(t, aether.Options{}, ServerOptions{})
		cl, err := Dial(addr, ClientOptions{})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s, err := cl.Session()
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		tbl, err := s.CreateTable("kv")
		if err != nil {
			t.Fatalf("create table: %v", err)
		}
		if err := s.Begin(); err != nil {
			t.Fatalf("begin: %v", err)
		}
		if err := s.Insert(tbl, 1, u64(1)); err != nil {
			t.Fatalf("insert: %v", err)
		}
		if err := s.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		if err := s.Begin(); err != nil {
			t.Fatalf("begin: %v", err)
		}
		if err := s.Update(tbl, 1, u64(2)); err != nil {
			t.Fatalf("update: %v", err)
		}
		// Hang up with the update uncommitted: with the pool closed, the
		// session's connection closes with it.
		cl.Close()
		s.Close()
		waitStat(t, "aborted-on-close counter", func() bool { return srv.Stats().TxnsAbortedOnClose >= 1 })

		cl2, err := Dial(addr, ClientOptions{})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer cl2.Close()
		s2, err := cl2.Session()
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		defer s2.Close()
		tbl2, err := s2.OpenTable("kv") // table handles are per connection
		if err != nil {
			t.Fatalf("open table: %v", err)
		}
		if err := s2.Begin(); err != nil {
			t.Fatalf("begin: %v", err)
		}
		got, err := s2.Read(tbl2, 1)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, u64(1)) {
			t.Fatalf("row 1 = %x after its updater hung up, want the committed %x", got, u64(1))
		}
		if err := s2.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		if st := srv.Stats(); st.TxnsAbortedOnClose != 1 {
			t.Fatalf("one dropped transaction, %d aborted on close", st.TxnsAbortedOnClose)
		}
	})

	t.Run("dial during shutdown", func(t *testing.T) {
		db, err := aether.Open(aether.Options{})
		if err != nil {
			t.Fatalf("open db: %v", err)
		}
		defer db.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer ln.Close()
		dl := &drainListener{Listener: ln, closing: make(chan struct{})}
		srv := NewServer(db, ServerOptions{})
		served := make(chan error, 1)
		go func() { served <- srv.Serve(dl) }()

		// The dial completes into the listen backlog; the server accepts
		// it only once Shutdown has begun.
		nc := rawConn(t, ln.Addr().String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Fatalf("Serve: %v", err)
		}
		assertConnClosed(t, nc)
		if st := srv.Stats(); st.Refused != 1 || st.Accepted != 0 {
			t.Fatalf("one dial during shutdown: %d refused, %d accepted", st.Refused, st.Accepted)
		}
	})
}

// drainListener holds every Accept until Close, then hands over the one
// connection already waiting in the backlog before it reports itself
// closed: a dial that reaches the server while it drains. The wrapped
// listener is the caller's to close.
type drainListener struct {
	net.Listener
	closing  chan struct{}
	once     sync.Once
	accepted atomic.Bool
}

func (l *drainListener) Accept() (net.Conn, error) {
	<-l.closing
	if l.accepted.Swap(true) {
		return nil, net.ErrClosed
	}
	return l.Listener.Accept()
}

func (l *drainListener) Close() error {
	l.once.Do(func() { close(l.closing) })
	return nil
}

// pipeListener hands Serve the server ends of in-memory pipes: a pipe
// buffers nothing, so a client that stops reading stalls the server's
// writer at its first frame, with no kernel buffers to fill first.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

// dial returns the client end of a new connection to the server.
func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case nc := <-l.conns:
		return nc, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestCommitAcksBounded: a client that pipelines commits and never reads
// a response is held at maxPendingAcks commit acknowledgements in flight
// or queued — the read loop takes no further commit — until WriteTimeout
// closes the connection.
func TestCommitAcksBounded(t *testing.T) {
	db, err := aether.Open(aether.Options{Mode: aether.CommitPipelined})
	if err != nil {
		t.Fatalf("open db: %v", err)
	}
	defer db.Close()
	if _, err := db.CreateTable("kv"); err != nil {
		t.Fatalf("create table: %v", err)
	}
	const writeTimeout = time.Second
	srv := NewServer(db, ServerOptions{WriteTimeout: writeTimeout})
	ln := newPipeListener()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	nc := ln.dial()
	defer nc.Close()
	sent := make(chan error, 1)
	go func() {
		// Open the table, then Begin, Insert, Commit without end; the
		// write fails once the server closes the connection.
		frame := AppendRequest(nil, &Request{ID: 1, Op: OpOpenTable, Name: "kv"})
		_, err := nc.Write(frame)
		for i := uint64(0); err == nil; i++ {
			frame = AppendRequest(frame[:0], &Request{ID: 3*i + 2, Op: OpBegin, Mode: ModePipelined})
			frame = AppendRequest(frame, &Request{ID: 3*i + 3, Op: OpInsert, Table: 1, Key: i, Row: aether.Row(i, u64(i))})
			frame = AppendRequest(frame, &Request{ID: 3*i + 4, Op: OpCommit})
			_, err = nc.Write(frame)
		}
		sent <- err
	}()

	// pending is the connection's commit acknowledgements in flight or
	// queued, and whether the connection is still open.
	pending := func() (int, bool) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for c := range srv.conns {
			c.q.mu.Lock()
			defer c.q.mu.Unlock()
			return c.q.acks + c.q.queuedAcks, !c.q.closed
		}
		return 0, false
	}
	start := time.Now()
	for {
		n, open := pending()
		if n > maxPendingAcks {
			t.Fatalf("%d commit acknowledgements pending, bound %d", n, maxPendingAcks)
		}
		if n == maxPendingAcks {
			break
		}
		if !open && time.Since(start) > 100*time.Millisecond {
			t.Fatalf("connection closed with %d acknowledgements pending, before reaching the bound %d", n, maxPendingAcks)
		}
		time.Sleep(time.Millisecond)
	}
	// Held there: the read loop goes on to read the next transaction's
	// Begin, Insert and Commit, waits in that Commit for an ack slot, and
	// reads no further request while the writer is stalled. That is one
	// frame for OpenTable and three for each of maxPendingAcks+1
	// transactions; the count is taken once the loop is there, not as
	// soon as the acks reach the bound, while it may still be on its way.
	const heldAt = 1 + 3*(maxPendingAcks+1)
	waitStat(t, "the read loop to reach the next commit", func() bool { return srv.Stats().FramesIn >= heldAt })
	framesIn := srv.Stats().FramesIn
	if framesIn != heldAt {
		t.Fatalf("the read loop read %d requests, want %d: it took the commit past the bound", framesIn, heldAt)
	}
	time.Sleep(100 * time.Millisecond)
	if n, open := pending(); open && n != maxPendingAcks {
		t.Fatalf("%d commit acknowledgements pending after the hold, want the bound %d", n, maxPendingAcks)
	}
	if got := srv.Stats().FramesIn; got != framesIn {
		t.Fatalf("%d more requests read while the connection was held", got-framesIn)
	}

	waitStat(t, "write-timeout counter", func() bool { return srv.Stats().WriteTimeouts >= 1 })
	if err := <-sent; err == nil {
		t.Fatal("the client's writes never failed")
	}
	waitStat(t, "connection close", func() bool { return srv.Stats().Active == 0 })
	if st := srv.Stats(); st.WriteTimeouts != 1 || st.CommitsAcked != maxPendingAcks || st.TxnsAbortedOnClose != 1 {
		t.Fatalf("one stalled client: %d write timeouts, %d commits acknowledged, %d aborted on close; want 1, %d, 1",
			st.WriteTimeouts, st.CommitsAcked, st.TxnsAbortedOnClose, maxPendingAcks)
	}
}

// assertConnClosed asserts the server has hung up on nc.
func assertConnClosed(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 4096)
	for {
		if _, err := nc.Read(buf); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("server did not close the abusive connection")
			}
			return
		}
	}
}

// TestStatsOverWire asserts the metrics page carries both engine and
// wire counters with sane values.
func TestStatsOverWire(t *testing.T) {
	_, _, addr := startServer(t, aether.Options{}, ServerOptions{})
	cl, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	s, err := cl.Session()
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer s.Close()
	tbl, err := s.CreateTable("kv")
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	if err := s.Begin(); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := s.Insert(tbl, 9, u64(9)); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	m, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for _, key := range []string{"aether_commits", "aether_log_flushes", "wire_accepted", "wire_frames_in", "wire_commits_acked"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics page missing %s (got %d keys)", key, len(m))
		}
	}
	if m["aether_commits"] < 1 || m["wire_commits_acked"] < 1 {
		t.Fatalf("commit not visible in metrics: %v", m)
	}
}

// TestErrorMapping asserts engine sentinels round-trip the wire as
// errors.Is-able values.
func TestErrorMapping(t *testing.T) {
	_, _, addr := startServer(t, aether.Options{}, ServerOptions{})
	cl, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	s, err := cl.Session()
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer s.Close()
	tbl, err := s.CreateTable("kv")
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	if err := s.Begin(); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := s.Read(tbl, 404); !errors.Is(err, aether.ErrKeyNotFound) {
		t.Fatalf("read missing key: %v, want ErrKeyNotFound", err)
	}
	if err := s.Insert(tbl, 5, u64(5)); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := s.Insert(tbl, 5, u64(5)); !errors.Is(err, aether.ErrDuplicateKey) {
		t.Fatalf("duplicate insert: %v, want ErrDuplicateKey", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	// Data ops with no transaction open are refused with a RemoteError
	// carrying StatusNoTxn.
	var re *RemoteError
	if err := s.Insert(tbl, 6, u64(6)); !errors.As(err, &re) || re.Status != StatusNoTxn {
		t.Fatalf("insert outside txn: %v, want StatusNoTxn", err)
	}
	// An unknown table name maps to StatusNoTable.
	if _, err := s.OpenTable("nope"); !errors.As(err, &re) || re.Status != StatusNoTable {
		t.Fatalf("open missing table: %v, want StatusNoTable", err)
	}
}

// TestScanOverWire round-trips a range scan.
func TestScanOverWire(t *testing.T) {
	_, _, addr := startServer(t, aether.Options{}, ServerOptions{})
	cl, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	s, err := cl.Session()
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer s.Close()
	tbl, err := s.CreateTable("kv")
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	if err := s.Begin(); err != nil {
		t.Fatalf("begin: %v", err)
	}
	for i := uint64(1); i <= 20; i++ {
		if err := s.Insert(tbl, i, u64(i*100)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := s.Begin(); err != nil {
		t.Fatalf("begin: %v", err)
	}
	rows, err := s.Scan(tbl, 5, 14, 0)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(rows) != 10 {
		t.Fatalf("scan returned %d rows, want 10", len(rows))
	}
	for i, r := range rows {
		want := uint64(5 + i)
		if r.Key != want || binary.BigEndian.Uint64(r.Row) != want*100 {
			t.Fatalf("row %d = key %d, want %d", i, r.Key, want)
		}
	}
	// MaxRows caps the result.
	rows, err = s.Scan(tbl, 0, 99, 3)
	if err != nil {
		t.Fatalf("bounded scan: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("bounded scan returned %d rows, want 3", len(rows))
	}
	if err := s.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
}

// TestKeyZeroOverWire: key 0 is a row like any other. A client inserts
// and reads it, and while its transaction still holds key 0 a second
// client reads and commits key 5 at once — with an hour's deadlock
// timeout, only a lock on the whole table could keep it waiting.
func TestKeyZeroOverWire(t *testing.T) {
	_, _, addr := startServer(t, aether.Options{DeadlockTimeout: time.Hour}, ServerOptions{})
	session := func() *Session {
		cl, err := Dial(addr, ClientOptions{})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { cl.Close() })
		s, err := cl.Session()
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	a, b := session(), session()
	tbl, err := a.CreateTable("kv")
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{0, 5} {
		if err := a.Insert(tbl, k, u64(k+100)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	btbl, err := b.OpenTable("kv")
	if err != nil {
		t.Fatalf("open table: %v", err)
	}
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := a.Update(tbl, 0, u64(200)); err != nil {
		t.Fatalf("update key 0: %v", err)
	}
	if row, err := a.Read(tbl, 0); err != nil || binary.BigEndian.Uint64(row) != 200 {
		t.Fatalf("read key 0: %x, %v", row, err)
	}
	done := make(chan error, 1)
	go func() {
		if err := b.Begin(); err != nil {
			done <- err
			return
		}
		row, err := b.Read(btbl, 5)
		if err == nil && binary.BigEndian.Uint64(row) != 105 {
			err = fmt.Errorf("key 5 holds %x", row)
		}
		if err != nil {
			b.Abort()
			done <- err
			return
		}
		done <- b.Commit()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second client reading key 5: %v", err)
		}
	case <-time.After(5 * time.Second):
		a.Abort()
		<-done
		t.Fatal("a read of key 5 waits behind a transaction that holds key 0")
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
}
