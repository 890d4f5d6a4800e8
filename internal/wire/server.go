package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aether"
)

const (
	// maxScanRows caps rows per OpScan response; scan responses are
	// additionally bounded by MaxFrame.
	maxScanRows = 4096
	// maxQueuedBytes bounds the per-connection response queue; a read
	// loop outrunning the writer blocks (TCP backpressure) at this many
	// queued bytes. Commit acknowledgements are exempt — the log daemon's
	// callback must never block — and are bounded by maxPendingAcks
	// instead.
	maxQueuedBytes = 8 << 20
	// maxPendingAcks bounds a connection's commit acknowledgements in
	// flight (the commit not yet durable) plus queued (not yet written):
	// at this many the read loop takes no further commit until one is
	// written, so a client that pipelines commits and never reads its
	// socket is held here until WriteTimeout closes it.
	maxPendingAcks = 1024
)

// ServerOptions tunes a Server. Zero values pick production defaults.
type ServerOptions struct {
	// ReadTimeout bounds how long a connection may sit idle (or stall
	// mid-frame) before it is closed with ErrReadTimeout. Default 2m.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write; a client that stops
	// draining its socket is closed with ErrWriteTimeout once its
	// responses stop fitting in kernel buffers. Default 10s.
	WriteTimeout time.Duration
	// MaxFrame is the request-frame size ceiling (DefaultMaxFrame when
	// zero). Oversized frames close the connection before allocation.
	MaxFrame uint32
	// OnCreateTable, when non-nil, runs after each successful
	// OpCreateTable — the hook aetherd uses to append the name to its
	// durable table catalog so a restart re-creates tables in the
	// original order. An error is reported to the client.
	OnCreateTable func(name string) error
	// Logf, when non-nil, receives one line per connection close that
	// was not a clean disconnect (the typed reason included).
	Logf func(format string, args ...any)
}

func (o *ServerOptions) withDefaults() ServerOptions {
	out := *o
	if out.ReadTimeout <= 0 {
		out.ReadTimeout = 2 * time.Minute
	}
	if out.WriteTimeout <= 0 {
		out.WriteTimeout = 10 * time.Second
	}
	if out.MaxFrame == 0 {
		out.MaxFrame = DefaultMaxFrame
	}
	return out
}

// ServerStats is a snapshot of the server's wire-level counters,
// surfaced on the OpStats metrics page next to the engine counters.
type ServerStats struct {
	// Accepted counts connections ever accepted.
	Accepted int64
	// Active is the number of currently live connections.
	Active int64
	// Refused counts connections refused because the server was
	// draining.
	Refused int64
	// FramesIn counts request frames fully read.
	FramesIn int64
	// FramesOut counts response frames fully written.
	FramesOut int64
	// CommitsAcked counts commit acknowledgements delivered durably
	// (StatusOK commit responses).
	CommitsAcked int64
	// Oversized counts connections closed for a frame above MaxFrame.
	Oversized int64
	// Truncated counts connections that died or stalled mid-frame.
	Truncated int64
	// BadRequests counts connections closed for malformed request
	// bodies.
	BadRequests int64
	// UnknownOps counts connections closed for unknown opcodes.
	UnknownOps int64
	// ReadTimeouts counts connections closed idle past ReadTimeout.
	ReadTimeouts int64
	// WriteTimeouts counts connections closed by the stalled-reader
	// write deadline.
	WriteTimeouts int64
	// TxnsAbortedOnClose counts transactions the server had to abort
	// because their connection went away mid-transaction.
	TxnsAbortedOnClose int64
}

type serverCounters struct {
	accepted, active, refused   atomic.Int64
	framesIn, framesOut         atomic.Int64
	commitsAcked                atomic.Int64
	oversized, truncated        atomic.Int64
	badRequests, unknownOps     atomic.Int64
	readTimeouts, writeTimeouts atomic.Int64
	txnsAborted                 atomic.Int64
}

// Server serves the wire protocol over an aether database: one
// goroutine plus one aether.Session per connection, so every connection
// is the paper's agent thread and concurrent in-flight commits from
// many connections consolidate into shared group-commit flushes.
type Server struct {
	db   *aether.DB
	opts ServerOptions

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining atomic.Bool
	wg       sync.WaitGroup
	st       serverCounters
}

// NewServer wraps db in a wire server. The caller keeps ownership of
// db (Shutdown does not close it).
func NewServer(db *aether.DB, opts ServerOptions) *Server {
	return &Server{db: db, opts: opts.withDefaults(), conns: make(map[*conn]struct{})}
}

// Serve accepts connections on ln until Shutdown (or a listener error)
// and blocks for the accept loop's lifetime. A nil return means the
// listener was closed by Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		if s.draining.Load() {
			s.st.refused.Add(1)
			nc.Close()
			continue
		}
		s.st.accepted.Add(1)
		s.st.active.Add(1)
		c := newConn(s, nc)
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go c.serve()
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains the server gracefully: the listener closes (new
// connections are refused), idle connections are released immediately,
// and connections with an open transaction get to finish it — commit
// acknowledgements still in flight are delivered before their
// connections close. When ctx expires first, the remaining connections
// are force-closed. Shutdown does not close the underlying database.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.beginDrain()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.forceClose()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close force-closes every connection and the listener immediately.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// Stats snapshots the wire-level counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Accepted:           s.st.accepted.Load(),
		Active:             s.st.active.Load(),
		Refused:            s.st.refused.Load(),
		FramesIn:           s.st.framesIn.Load(),
		FramesOut:          s.st.framesOut.Load(),
		CommitsAcked:       s.st.commitsAcked.Load(),
		Oversized:          s.st.oversized.Load(),
		Truncated:          s.st.truncated.Load(),
		BadRequests:        s.st.badRequests.Load(),
		UnknownOps:         s.st.unknownOps.Load(),
		ReadTimeouts:       s.st.readTimeouts.Load(),
		WriteTimeouts:      s.st.writeTimeouts.Load(),
		TxnsAbortedOnClose: s.st.txnsAborted.Load(),
	}
}

// MetricsText renders the plaintext /metrics-style page: every int64
// engine counter from aether.Stats (prefixed aether_) plus the wire
// counters (prefixed wire_), one "name value" line each.
func (s *Server) MetricsText() string {
	var b strings.Builder
	b.WriteString("# aetherd metrics\n")
	writeMetrics(&b, "aether_", s.db.Stats())
	writeMetrics(&b, "wire_", s.Stats())
	return b.String()
}

// writeMetrics emits every int/int64 field of v as a snake_cased line;
// an []int64 field (a per-log-partition counter) becomes one line per
// element, suffixed with the partition index.
func writeMetrics(b *strings.Builder, prefix string, v any) {
	rv := reflect.ValueOf(v)
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rv.Field(i)
		name := snakeCase(rt.Field(i).Name)
		switch {
		case f.Kind() == reflect.Int64 || f.Kind() == reflect.Int:
			fmt.Fprintf(b, "%s%s %d\n", prefix, name, f.Int())
		case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Int64:
			for j := 0; j < f.Len(); j++ {
				fmt.Fprintf(b, "%s%s_%d %d\n", prefix, name, j, f.Index(j).Int())
			}
		}
	}
}

// snakeCase converts CamelCase to snake_case (acronym runs stay one
// word: "TPS" → "tps", "LogBase" → "log_base").
func snakeCase(name string) string {
	var b strings.Builder
	for i, r := range name {
		if r >= 'A' && r <= 'Z' {
			prevLower := i > 0 && name[i-1] >= 'a' && name[i-1] <= 'z'
			nextLower := i+1 < len(name) && name[i+1] >= 'a' && name[i+1] <= 'z'
			if i > 0 && (prevLower || nextLower) {
				b.WriteByte('_')
			}
			b.WriteByte(byte(r - 'A' + 'a'))
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// outq is a connection's response queue: the read loop and the log
// daemon's commit callbacks produce frames, one writer goroutine drains
// them to the socket. Ordinary responses block when the queue is full
// (backpressure against a stalled reader); commit acknowledgements
// never block — the daemon callback must not stall the engine — and
// are tracked so a graceful close waits for every pipelined ack to be
// delivered first, and so the read loop starts no commit past
// maxPendingAcks of them.
type outq struct {
	mu         sync.Mutex
	cond       *sync.Cond
	frames     []outFrame
	bytes      int
	maxBytes   int
	acks       int  // commit acks started but not yet enqueued
	queuedAcks int  // commit acks enqueued but not yet written
	drain      bool // finish queued frames + pending acks, then close
	closed     bool // drop everything, conn is dead
}

// outFrame is one queued response frame.
type outFrame struct {
	b   []byte
	ack bool // a commit acknowledgement
}

func newOutq(maxBytes int) *outq {
	q := &outq{maxBytes: maxBytes}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues an ordinary response, blocking while the queue is over
// budget. It reports false when the connection is already dead.
func (q *outq) push(frame []byte) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.bytes >= q.maxBytes && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return false
	}
	q.frames = append(q.frames, outFrame{b: frame})
	q.bytes += len(frame)
	q.cond.Broadcast()
	return true
}

// ackStarted records one in-flight commit acknowledgement, first
// blocking while maxPendingAcks are in flight or queued. It reports
// false when the connection is already dead.
func (q *outq) ackStarted() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.acks+q.queuedAcks >= maxPendingAcks && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return false
	}
	q.acks++
	return true
}

// finishAck enqueues a commit acknowledgement without ever blocking
// (the queue budget does not apply) and retires its ackStarted.
func (q *outq) finishAck(frame []byte) {
	q.mu.Lock()
	q.acks--
	if !q.closed {
		q.frames = append(q.frames, outFrame{b: frame, ack: true})
		q.bytes += len(frame)
		q.queuedAcks++
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// beginDrain tells the writer to exit once the queue is empty and all
// pending acks have been enqueued and written.
func (q *outq) beginDrain() {
	q.mu.Lock()
	q.drain = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// close drops all queued frames and unblocks producers and the writer.
func (q *outq) close() {
	q.mu.Lock()
	q.closed = true
	q.frames = nil
	q.bytes = 0
	q.queuedAcks = 0
	q.cond.Broadcast()
	q.mu.Unlock()
}

// next blocks for the next frame; ok=false means the writer should
// exit (connection dead, or drained to completion).
func (q *outq) next() (frame []byte, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return nil, false
		}
		if len(q.frames) > 0 {
			f := q.frames[0]
			q.frames = q.frames[1:]
			q.bytes -= len(f.b)
			if f.ack {
				q.queuedAcks--
			}
			q.cond.Broadcast()
			return f.b, true
		}
		if q.drain && q.acks == 0 {
			return nil, false
		}
		q.cond.Wait()
	}
}

// conn is one client connection: its goroutine owns an aether.Session
// (the paper's agent thread) and processes requests in order; a writer
// goroutine serializes responses, including commit acks arriving from
// the log daemon.
type conn struct {
	srv  *Server
	nc   net.Conn
	br   *bufio.Reader
	sess *aether.Session

	tx       *aether.Tx
	txActive atomic.Bool
	tables   []*aether.Table

	q          *outq
	writerDone chan struct{}
	closeErr   error // first typed close reason (read side)
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:        s,
		nc:         nc,
		br:         bufio.NewReaderSize(nc, 64<<10),
		sess:       s.db.Session(),
		q:          newOutq(maxQueuedBytes),
		writerDone: make(chan struct{}),
	}
}

// beginDrain nudges an idle connection out of its blocking read; a
// connection with an open transaction is left to finish it (the read
// loop re-checks the draining flag after every transaction end).
func (c *conn) beginDrain() {
	if !c.txActive.Load() {
		c.nc.SetReadDeadline(time.Now())
	}
}

// forceClose kills the connection immediately (Shutdown deadline).
func (c *conn) forceClose() {
	c.q.close()
	c.nc.Close()
}

// serve runs the connection to completion.
func (c *conn) serve() {
	defer c.srv.wg.Done()
	go c.writeLoop()
	graceful := c.readLoop()

	// The read side is done: abort any transaction the client left
	// open, then let the writer deliver what remains (graceful) or tear
	// down immediately (error path).
	if c.tx != nil {
		c.tx.Abort()
		c.tx = nil
		c.txActive.Store(false)
		c.srv.st.txnsAborted.Add(1)
	}
	if graceful {
		c.q.beginDrain()
	} else {
		c.q.close()
	}
	<-c.writerDone
	c.q.close()
	c.nc.Close()
	c.sess.Close()

	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
	c.srv.st.active.Add(-1)
	if c.closeErr != nil && c.srv.opts.Logf != nil {
		c.srv.opts.Logf("wire: %s closed: %v", c.nc.RemoteAddr(), c.closeErr)
	}
}

// writeLoop drains the response queue to the socket under the write
// deadline; a stalled reader trips the deadline and kills the
// connection.
func (c *conn) writeLoop() {
	defer close(c.writerDone)
	for {
		frame, ok := c.q.next()
		if !ok {
			return
		}
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.opts.WriteTimeout))
		if _, err := c.nc.Write(frame); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				c.srv.st.writeTimeouts.Add(1)
				c.setCloseErr(fmt.Errorf("%w: %v", ErrWriteTimeout, err))
			}
			c.q.close()
			c.nc.Close()
			return
		}
		c.srv.st.framesOut.Add(1)
	}
}

func (c *conn) setCloseErr(err error) {
	if c.closeErr == nil {
		c.closeErr = err
	}
}

// readLoop processes requests until the connection ends. It reports
// whether the end was graceful (drain pending responses) or not (drop
// them).
func (c *conn) readLoop() (graceful bool) {
	for {
		if c.srv.draining.Load() && !c.txActive.Load() {
			return true
		}
		c.nc.SetReadDeadline(time.Now().Add(c.srv.opts.ReadTimeout))
		payload, err := ReadFrame(c.br, c.srv.opts.MaxFrame)
		if err != nil {
			return c.classifyReadErr(err)
		}
		c.srv.st.framesIn.Add(1)
		req, derr := DecodeRequest(payload)
		if derr != nil {
			// The framing held but the contents are garbage: answer with
			// the reason, then close — the peer cannot be trusted.
			id := req.ID
			if errors.Is(derr, ErrUnknownOpcode) {
				c.srv.st.unknownOps.Add(1)
			} else {
				c.srv.st.badRequests.Add(1)
			}
			c.setCloseErr(derr)
			c.q.push(AppendResponse(nil, id, StatusBadRequest, []byte(derr.Error())))
			return true
		}
		if !c.handle(&req) {
			return true
		}
	}
}

// classifyReadErr maps a frame-read failure to a typed close reason.
func (c *conn) classifyReadErr(err error) (graceful bool) {
	switch {
	case err == io.EOF:
		return true // clean disconnect at a frame boundary
	case errors.Is(err, ErrFrameTooLarge):
		c.srv.st.oversized.Add(1)
		c.setCloseErr(err)
		return false
	default:
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			if c.srv.draining.Load() && !c.txActive.Load() {
				return true // the shutdown nudge, not a real timeout
			}
			c.srv.st.readTimeouts.Add(1)
			c.setCloseErr(fmt.Errorf("%w: %v", ErrReadTimeout, err))
			return false
		}
		if errors.Is(err, ErrTruncatedFrame) {
			c.srv.st.truncated.Add(1)
		}
		c.setCloseErr(err)
		return false
	}
}

// handle executes one request, enqueueing its response. It reports
// false when the connection should close.
func (c *conn) handle(req *Request) bool {
	switch req.Op {
	case OpPing:
		return c.reply(req.ID, StatusOK, nil)
	case OpStats:
		return c.reply(req.ID, StatusOK, []byte(c.srv.MetricsText()))
	case OpCreateTable:
		tbl, err := c.srv.db.CreateTable(req.Name)
		if err != nil {
			return c.replyErr(req.ID, err)
		}
		if hook := c.srv.opts.OnCreateTable; hook != nil {
			if err := hook(req.Name); err != nil {
				return c.replyErr(req.ID, fmt.Errorf("table created but catalog update failed: %w", err))
			}
		}
		return c.replyTable(req.ID, tbl)
	case OpOpenTable:
		tbl, err := c.srv.db.LookupTable(req.Name)
		if err != nil {
			return c.reply(req.ID, StatusNoTable, []byte(err.Error()))
		}
		return c.replyTable(req.ID, tbl)
	case OpBegin:
		if c.srv.draining.Load() {
			return c.reply(req.ID, StatusShuttingDown, []byte(ErrShuttingDown.Error()))
		}
		if c.tx != nil {
			return c.reply(req.ID, StatusTxnOpen, []byte("transaction already open"))
		}
		c.tx = c.sess.Begin()
		if m, ok := commitMode(req.Mode); ok {
			c.tx.SetCommitMode(m)
		}
		c.txActive.Store(true)
		return c.reply(req.ID, StatusOK, nil)
	case OpInsert:
		tbl, ok := c.table(req.Table)
		if !ok {
			return c.reply(req.ID, StatusNoTable, nil)
		}
		if c.tx == nil {
			return c.reply(req.ID, StatusNoTxn, nil)
		}
		return c.replyOutcome(req.ID, c.tx.Insert(tbl, req.Key, req.Row))
	case OpUpdate:
		tbl, ok := c.table(req.Table)
		if !ok {
			return c.reply(req.ID, StatusNoTable, nil)
		}
		if c.tx == nil {
			return c.reply(req.ID, StatusNoTxn, nil)
		}
		row := append([]byte(nil), req.Row...) // outlives the frame buffer
		err := c.tx.Update(tbl, req.Key, func([]byte) ([]byte, error) {
			return row, nil
		})
		return c.replyOutcome(req.ID, err)
	case OpDelete:
		tbl, ok := c.table(req.Table)
		if !ok {
			return c.reply(req.ID, StatusNoTable, nil)
		}
		if c.tx == nil {
			return c.reply(req.ID, StatusNoTxn, nil)
		}
		return c.replyOutcome(req.ID, c.tx.Delete(tbl, req.Key))
	case OpRead:
		tbl, ok := c.table(req.Table)
		if !ok {
			return c.reply(req.ID, StatusNoTable, nil)
		}
		if c.tx == nil {
			return c.reply(req.ID, StatusNoTxn, nil)
		}
		row, err := c.tx.Read(tbl, req.Key)
		if err != nil {
			return c.replyErr(req.ID, err)
		}
		return c.reply(req.ID, StatusOK, row)
	case OpScan:
		return c.handleScan(req)
	case OpCommit:
		return c.handleCommit(req.ID)
	case OpAbort:
		if c.tx == nil {
			return c.reply(req.ID, StatusNoTxn, nil)
		}
		err := c.tx.Abort()
		c.tx = nil
		c.txActive.Store(false)
		return c.replyOutcome(req.ID, err)
	}
	return false
}

// handleCommit detaches the transaction and defers the response to the
// commit callback: for pipelined modes the connection immediately
// processes its next request (the client's next transaction), so many
// connections' commits consolidate into shared log flushes.
func (c *conn) handleCommit(id uint64) bool {
	if c.tx == nil {
		return c.reply(id, StatusNoTxn, nil)
	}
	if !c.q.ackStarted() {
		return false // serve aborts the open transaction
	}
	tx := c.tx
	c.tx = nil
	c.txActive.Store(false)
	var responded atomic.Bool
	err := tx.CommitAsyncAck(func(err error) {
		if !responded.CompareAndSwap(false, true) {
			return
		}
		if err == nil {
			c.srv.st.commitsAcked.Add(1)
		}
		st, msg := statusFor(err)
		c.q.finishAck(AppendResponse(nil, id, st, msg))
	})
	if err != nil && responded.CompareAndSwap(false, true) {
		// The synchronous part failed; the callback will never fire.
		st, msg := statusFor(err)
		c.q.finishAck(AppendResponse(nil, id, st, msg))
	}
	return true
}

// handleScan streams matching rows into one response, bounded by the
// row cap and the frame ceiling.
func (c *conn) handleScan(req *Request) bool {
	tbl, ok := c.table(req.Table)
	if !ok {
		return c.reply(req.ID, StatusNoTable, nil)
	}
	if c.tx == nil {
		return c.reply(req.ID, StatusNoTxn, nil)
	}
	limit := uint32(maxScanRows)
	if req.MaxRows > 0 && req.MaxRows < limit {
		limit = req.MaxRows
	}
	budget := int(c.srv.opts.MaxFrame) - 64
	var rows []ScanRow
	used := 0
	err := c.tx.Scan(tbl, req.From, req.To, func(key uint64, row []byte) bool {
		if uint32(len(rows)) >= limit || used+12+len(row) > budget {
			return false
		}
		rows = append(rows, ScanRow{Key: key, Row: append([]byte(nil), row...)})
		used += 12 + len(row)
		return true
	})
	if err != nil {
		return c.replyErr(req.ID, err)
	}
	return c.reply(req.ID, StatusOK, AppendScanBody(nil, rows))
}

// table resolves a connection-scoped table handle.
func (c *conn) table(id uint32) (*aether.Table, bool) {
	if id == 0 || int(id) > len(c.tables) {
		return nil, false
	}
	return c.tables[id-1], true
}

// replyTable registers tbl under a fresh handle and replies with it.
func (c *conn) replyTable(id uint64, tbl *aether.Table) bool {
	c.tables = append(c.tables, tbl)
	body := []byte{0, 0, 0, 0}
	h := uint32(len(c.tables))
	body[0], body[1], body[2], body[3] = byte(h>>24), byte(h>>16), byte(h>>8), byte(h)
	return c.reply(id, StatusOK, body)
}

func (c *conn) reply(id uint64, st Status, body []byte) bool {
	return c.q.push(AppendResponse(nil, id, st, body))
}

func (c *conn) replyErr(id uint64, err error) bool {
	st, msg := statusFor(err)
	return c.reply(id, st, msg)
}

// replyOutcome replies StatusOK for nil and the mapped error status
// otherwise.
func (c *conn) replyOutcome(id uint64, err error) bool {
	if err == nil {
		return c.reply(id, StatusOK, nil)
	}
	return c.replyErr(id, err)
}

// statusFor maps an engine error to its wire status and message.
func statusFor(err error) (Status, []byte) {
	switch {
	case err == nil:
		return StatusOK, nil
	case errors.Is(err, aether.ErrDuplicateKey):
		return StatusDuplicateKey, []byte(err.Error())
	case errors.Is(err, aether.ErrKeyNotFound):
		return StatusKeyNotFound, []byte(err.Error())
	case errors.Is(err, aether.ErrPrecommitted):
		return StatusPrecommitted, []byte(err.Error())
	case errors.Is(err, aether.ErrTxnDone):
		return StatusTxnDone, []byte(err.Error())
	default:
		return StatusErr, []byte(err.Error())
	}
}

// commitMode maps a wire mode byte to the API mode; ok=false means
// "use the database default".
func commitMode(m uint8) (aether.CommitMode, bool) {
	switch m {
	case ModePipelined:
		return aether.CommitPipelined, true
	case ModeSync:
		return aether.CommitSync, true
	case ModeSyncELR:
		return aether.CommitSyncELR, true
	case ModeAsync:
		return aether.CommitAsync, true
	}
	return 0, false
}
