package wire

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"aether"
)

const (
	// dialTimeout bounds each dial.
	dialTimeout = 5 * time.Second
	// clientWriteTimeout bounds each request write.
	clientWriteTimeout = 10 * time.Second
)

// ClientOptions tunes a Client. Zero values pick usable defaults.
type ClientOptions struct {
	// Conns caps the connection pool (default 1). Each Session owns one
	// connection exclusively for its lifetime; Session blocks when all
	// connections are busy.
	Conns int
	// MaxFrame is the response-frame ceiling (DefaultMaxFrame when 0).
	MaxFrame uint32
}

func (o *ClientOptions) withDefaults() ClientOptions {
	out := *o
	if out.Conns <= 0 {
		out.Conns = 1
	}
	if out.MaxFrame == 0 {
		out.MaxFrame = DefaultMaxFrame
	}
	return out
}

// RemoteError is a server-reported failure that does not map to one of
// the engine's sentinel errors.
type RemoteError struct {
	// Status is the wire status code.
	Status Status
	// Msg is the server's message.
	Msg string
}

// Error renders the status and message.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote error (status %d): %s", e.Status, e.Msg)
}

// Client is a pooled wire-protocol client. Sessions check a connection
// out of the pool, giving each its own server-side agent thread;
// CommitAsync pipelines commits so a session can start its next
// transaction while earlier acknowledgements are still in flight.
type Client struct {
	addr string
	opts ClientOptions

	mu     sync.Mutex
	cond   *sync.Cond
	idle   []*cconn
	total  int
	closed bool
}

// Dial validates the address by establishing one pooled connection and
// returns the client.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	c.cond = sync.NewCond(&c.mu)
	cc, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.idle = append(c.idle, cc)
	c.total = 1
	c.mu.Unlock()
	return c, nil
}

func (c *Client) dial() (*cconn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	cc := &cconn{cl: c, nc: nc, br: bufio.NewReaderSize(nc, 64<<10), pending: make(map[uint64]*pendingCall)}
	go cc.readLoop()
	return cc, nil
}

// Session checks a connection out of the pool (dialing a fresh one
// while under the Conns cap) and wraps it. It blocks while the pool is
// exhausted and returns an error once the client is closed.
func (c *Client) Session() (*Session, error) {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, ErrConnClosed
		}
		for len(c.idle) > 0 {
			cc := c.idle[len(c.idle)-1]
			c.idle = c.idle[:len(c.idle)-1]
			if cc.healthy() {
				c.mu.Unlock()
				return &Session{cl: c, cc: cc}, nil
			}
			c.total--
		}
		if c.total < c.opts.Conns {
			c.total++
			c.mu.Unlock()
			cc, err := c.dial()
			if err != nil {
				c.mu.Lock()
				c.total--
				c.cond.Broadcast()
				c.mu.Unlock()
				return nil, err
			}
			return &Session{cl: c, cc: cc}, nil
		}
		c.cond.Wait()
	}
}

// release returns a session's connection to the pool (or discards a
// dead one).
func (c *Client) release(cc *cconn) {
	c.mu.Lock()
	if c.closed || !cc.healthy() {
		c.total--
		c.mu.Unlock()
		cc.close(ErrConnClosed)
		c.cond.Broadcast()
		return
	}
	c.idle = append(c.idle, cc)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Close shuts the pool down. Sessions should be closed first; any
// still-open session's requests fail with ErrConnClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, cc := range idle {
		cc.close(ErrConnClosed)
	}
	return nil
}

// Stats fetches and parses the server's metrics page (OpStats): one
// counter per "name value" line. It dials a dedicated connection
// rather than using the pool, so monitoring never contends with (or
// deadlocks behind) checked-out workload sessions.
func (c *Client) Stats() (map[string]int64, error) {
	cc, err := c.dial()
	if err != nil {
		return nil, err
	}
	defer cc.close(ErrConnClosed)
	s := &Session{cl: c, cc: cc}
	text, err := s.StatsText()
	if err != nil {
		return nil, err
	}
	return ParseMetrics(text), nil
}

// ParseMetrics parses a plaintext metrics page into a name→value map,
// skipping comment lines.
func ParseMetrics(text string) map[string]int64 {
	out := make(map[string]int64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = n
		}
	}
	return out
}

// callResult is a resolved call: the response, or the connection error
// that killed it.
type callResult struct {
	resp Response
	err  error
}

// pendingCall tracks one in-flight request on a connection: sync
// callers wait on ch; pipelined commits register cb instead, fired on
// the reader goroutine. Once handed to send, a pendingCall is resolved
// exactly once — by the reader, by connection failure, or immediately
// when the connection was already dead.
type pendingCall struct {
	op Opcode
	ch chan callResult
	cb func(Response, error)
}

// resolve delivers the outcome to whichever waiter the call has.
func (pc *pendingCall) resolve(resp Response, err error) {
	if pc.cb != nil {
		pc.cb(resp, err)
		return
	}
	pc.ch <- callResult{resp: resp, err: err}
}

// cconn is one pooled connection.
type cconn struct {
	cl *Client
	nc net.Conn
	br *bufio.Reader

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*pendingCall
	err     error
}

func (cc *cconn) healthy() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err == nil
}

// close fails the connection: every pending call (sync or pipelined)
// resolves with the sticky error, so acknowledgements are never lost
// silently — they fail loudly.
func (cc *cconn) close(cause error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = cause
	}
	calls := cc.pending
	cc.pending = make(map[uint64]*pendingCall)
	err := cc.err
	cc.mu.Unlock()
	cc.nc.Close()
	for _, pc := range calls {
		pc.resolve(Response{}, err)
	}
}

// readLoop demultiplexes response frames to their pending calls by
// request ID.
func (cc *cconn) readLoop() {
	for {
		payload, err := ReadFrame(cc.br, cc.cl.opts.MaxFrame)
		if err != nil {
			cc.close(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			cc.close(err)
			return
		}
		cc.mu.Lock()
		pc := cc.pending[resp.ID]
		delete(cc.pending, resp.ID)
		cc.mu.Unlock()
		if pc == nil {
			continue // response to a request we gave up on
		}
		pc.resolve(resp, nil)
	}
}

// send registers pc and writes the request frame. Whatever happens, pc
// is resolved exactly once — immediately with the sticky error when the
// connection is already dead, by close on a write failure, or by the
// reader. The returned error is advisory (the same one pc sees).
func (cc *cconn) send(req *Request, pc *pendingCall) error {
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		pc.resolve(Response{}, err)
		return err
	}
	cc.nextID++
	req.ID = cc.nextID
	pc.op = req.Op
	cc.pending[req.ID] = pc
	cc.mu.Unlock()

	frame := AppendRequest(nil, req)
	cc.nc.SetWriteDeadline(time.Now().Add(clientWriteTimeout))
	if _, err := cc.nc.Write(frame); err != nil {
		err = fmt.Errorf("%w: %v", ErrConnClosed, err)
		cc.close(err) // resolves every pending call, ours included
		return err
	}
	return nil
}

// call sends req and waits for its response.
func (cc *cconn) call(req *Request) (Response, error) {
	pc := &pendingCall{ch: make(chan callResult, 1)}
	cc.send(req, pc)
	res := <-pc.ch
	return res.resp, res.err
}

// TableID is a connection-scoped table handle returned by
// Session.CreateTable / Session.OpenTable.
type TableID uint32

// Session is one checked-out connection: the client side of a
// server-side agent thread. Like aether.Session it must not be shared
// across goroutines; commit acknowledgements arrive on an internal
// goroutine.
type Session struct {
	cl *Client
	cc *cconn
	wg sync.WaitGroup // outstanding CommitAsync acknowledgements
}

// Close waits for every outstanding pipelined acknowledgement, then
// returns the connection to the pool.
func (s *Session) Close() error {
	s.wg.Wait()
	s.cl.release(s.cc)
	return nil
}

// statusErr maps a response to the engine's sentinel errors (so
// errors.Is works across the wire) or a *RemoteError.
func statusErr(resp Response) error {
	switch resp.Status {
	case StatusOK:
		return nil
	case StatusDuplicateKey:
		return aether.ErrDuplicateKey
	case StatusKeyNotFound:
		return aether.ErrKeyNotFound
	case StatusTxnDone:
		return aether.ErrTxnDone
	case StatusPrecommitted:
		return aether.ErrPrecommitted
	case StatusShuttingDown:
		return ErrShuttingDown
	default:
		return &RemoteError{Status: resp.Status, Msg: string(resp.Body)}
	}
}

// do runs a sync request expecting an empty-or-ignored OK body.
func (s *Session) do(req *Request) error {
	resp, err := s.cc.call(req)
	if err != nil {
		return err
	}
	return statusErr(resp)
}

// Ping round-trips an empty frame.
func (s *Session) Ping() error { return s.do(&Request{Op: OpPing}) }

// CreateTable registers a new table on the server.
func (s *Session) CreateTable(name string) (TableID, error) {
	return s.tableCall(OpCreateTable, name)
}

// OpenTable resolves an existing table to a handle.
func (s *Session) OpenTable(name string) (TableID, error) {
	return s.tableCall(OpOpenTable, name)
}

func (s *Session) tableCall(op Opcode, name string) (TableID, error) {
	resp, err := s.cc.call(&Request{Op: op, Name: name})
	if err != nil {
		return 0, err
	}
	if err := statusErr(resp); err != nil {
		return 0, err
	}
	if len(resp.Body) != 4 {
		return 0, fmt.Errorf("%w: %d-byte table handle", ErrBadResponse, len(resp.Body))
	}
	id := TableID(resp.Body[0])<<24 | TableID(resp.Body[1])<<16 | TableID(resp.Body[2])<<8 | TableID(resp.Body[3])
	return id, nil
}

// Begin starts a transaction under the server database's default
// commit mode.
func (s *Session) Begin() error { return s.do(&Request{Op: OpBegin, Mode: ModeDefault}) }

// BeginMode starts a transaction under an explicit commit mode
// (ModePipelined, ModeSync, ModeSyncELR, ModeAsync).
func (s *Session) BeginMode(mode uint8) error {
	return s.do(&Request{Op: OpBegin, Mode: mode})
}

// Insert adds a row under key.
func (s *Session) Insert(t TableID, key uint64, row []byte) error {
	return s.do(&Request{Op: OpInsert, Table: uint32(t), Key: key, Row: row})
}

// Update replaces the row under key.
func (s *Session) Update(t TableID, key uint64, row []byte) error {
	return s.do(&Request{Op: OpUpdate, Table: uint32(t), Key: key, Row: row})
}

// Delete removes the row under key.
func (s *Session) Delete(t TableID, key uint64) error {
	return s.do(&Request{Op: OpDelete, Table: uint32(t), Key: key})
}

// Read returns the row under key.
func (s *Session) Read(t TableID, key uint64) ([]byte, error) {
	resp, err := s.cc.call(&Request{Op: OpRead, Table: uint32(t), Key: key})
	if err != nil {
		return nil, err
	}
	if err := statusErr(resp); err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Scan returns up to maxRows rows with keys in [from, to] (0 = the
// server's cap; responses are also bounded by the frame ceiling).
func (s *Session) Scan(t TableID, from, to uint64, maxRows uint32) ([]ScanRow, error) {
	resp, err := s.cc.call(&Request{Op: OpScan, Table: uint32(t), From: from, To: to, MaxRows: maxRows})
	if err != nil {
		return nil, err
	}
	if err := statusErr(resp); err != nil {
		return nil, err
	}
	return DecodeScanBody(resp.Body)
}

// Commit finishes the transaction and blocks until the server
// acknowledges the commit outcome (durable for safe modes).
func (s *Session) Commit() error { return s.do(&Request{Op: OpCommit}) }

// Abort rolls the transaction back.
func (s *Session) Abort() error { return s.do(&Request{Op: OpAbort}) }

// CommitAsync finishes the transaction without waiting: ack runs (on
// the connection's reader goroutine) when the server's durable
// acknowledgement arrives, or with an error if the connection dies
// first — an ack is never silently lost. The session can immediately
// Begin its next transaction; that is flush pipelining over the wire.
func (s *Session) CommitAsync(ack func(error)) error {
	s.wg.Add(1)
	pc := &pendingCall{cb: func(resp Response, err error) {
		defer s.wg.Done()
		if err == nil {
			err = statusErr(resp)
		}
		if ack != nil {
			ack(err)
		}
	}}
	// send resolves pc exactly once on every path, so the WaitGroup is
	// balanced by the callback alone; the returned error is advisory.
	return s.cc.send(&Request{Op: OpCommit}, pc)
}

// StatsText fetches the server's plaintext metrics page.
func (s *Session) StatsText() (string, error) {
	resp, err := s.cc.call(&Request{Op: OpStats})
	if err != nil {
		return "", err
	}
	if err := statusErr(resp); err != nil {
		return "", err
	}
	return string(resp.Body), nil
}
