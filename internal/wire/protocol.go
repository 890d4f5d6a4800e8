// Package wire is aetherd's client/server protocol: a length-prefixed
// binary framing over TCP that puts real network concurrency in front
// of the Session API. Every request carries a client-chosen request ID,
// so a connection can pipeline: the client keeps sending while earlier
// responses — in particular commit acknowledgements, which the server
// defers until the commit record is durable — are still in flight.
// Concurrent in-flight commits from many connections land in the same
// group-commit flush, which is exactly the consolidation the paper's
// log buffer exists to exploit.
//
// Frame layout (all integers big-endian):
//
//	+--------+----------------------------+
//	| uint32 | payload (length bytes)     |
//	| length |                            |
//	+--------+----------------------------+
//
// Request payload:  uint64 requestID | uint8 opcode | body
// Response payload: uint64 requestID | uint8 status | body
//
// The length counts the payload only. A zero-length or short frame
// (under the 9-byte request header) is malformed, and a frame longer
// than the negotiated maximum is rejected before any allocation — the
// decoder never allocates attacker-chosen sizes. Responses to one
// request always carry its ID; pipelined responses may arrive out of
// order relative to other requests (a commit ack overtaken by the next
// transaction's replies is normal), never reordered for the same ID.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Opcode identifies a request's operation.
type Opcode uint8

// The request opcodes. A transaction is the connection's current state:
// OpBegin opens one, data ops run inside it, OpCommit/OpAbort end it.
// OpCommit's response is deferred until the commit outcome is decided
// (durable for safe modes), so a pipelining client sees it arrive after
// the responses of requests it sent later.
const (
	// OpPing round-trips an empty frame (liveness, latency probes).
	OpPing Opcode = 1
	// OpCreateTable registers a new table by name; the response carries
	// the connection-scoped table handle.
	OpCreateTable Opcode = 2
	// OpOpenTable resolves an existing table by name to a handle.
	OpOpenTable Opcode = 3
	// OpBegin starts a transaction under the given commit mode.
	OpBegin Opcode = 4
	// OpInsert adds a row under a key.
	OpInsert Opcode = 5
	// OpRead returns the row under a key.
	OpRead Opcode = 6
	// OpUpdate replaces the row under a key with the carried row.
	OpUpdate Opcode = 7
	// OpDelete removes the row under a key.
	OpDelete Opcode = 8
	// OpScan returns up to MaxRows rows with keys in [From, To].
	OpScan Opcode = 9
	// OpCommit finishes the transaction; the ack is sent once the
	// commit outcome is decided for the client.
	OpCommit Opcode = 10
	// OpAbort rolls the transaction back.
	OpAbort Opcode = 11
	// OpStats returns the plaintext metrics page (engine Stats counters
	// plus the server's own wire counters), /metrics-style.
	OpStats Opcode = 12
)

// String names the opcode for error messages and traces.
func (o Opcode) String() string {
	switch o {
	case OpPing:
		return "PING"
	case OpCreateTable:
		return "CREATE"
	case OpOpenTable:
		return "OPEN"
	case OpBegin:
		return "BEGIN"
	case OpInsert:
		return "INSERT"
	case OpRead:
		return "READ"
	case OpUpdate:
		return "UPDATE"
	case OpDelete:
		return "DELETE"
	case OpScan:
		return "SCAN"
	case OpCommit:
		return "COMMIT"
	case OpAbort:
		return "ABORT"
	case OpStats:
		return "STATS"
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// Status is a response's outcome code.
type Status uint8

// Response status codes. StatusOK carries an op-specific body; every
// other status carries a human-readable message. The engine's sentinel
// errors get their own codes so clients recover the typed error across
// the wire.
const (
	// StatusOK is success.
	StatusOK Status = 0
	// StatusErr is a generic failure (message in the body).
	StatusErr Status = 1
	// StatusDuplicateKey maps aether.ErrDuplicateKey.
	StatusDuplicateKey Status = 2
	// StatusKeyNotFound maps aether.ErrKeyNotFound.
	StatusKeyNotFound Status = 3
	// StatusTxnDone maps aether.ErrTxnDone.
	StatusTxnDone Status = 4
	// StatusPrecommitted maps aether.ErrPrecommitted.
	StatusPrecommitted Status = 5
	// StatusNoTable means the request named an unknown table handle or
	// table name.
	StatusNoTable Status = 6
	// StatusNoTxn means a data op or commit arrived with no transaction
	// open on the connection.
	StatusNoTxn Status = 7
	// StatusTxnOpen means OpBegin arrived while a transaction was
	// already open on the connection.
	StatusTxnOpen Status = 8
	// StatusBadRequest means the request body failed validation.
	StatusBadRequest Status = 9
	// StatusShuttingDown means the server is draining and refused new
	// work.
	StatusShuttingDown Status = 10
)

// Mode is the wire encoding of a commit mode for OpBegin.
const (
	// ModeDefault uses the server database's default commit mode.
	ModeDefault uint8 = 0
	// ModePipelined selects flush-pipelined commit with early lock
	// release (the paper's headline protocol).
	ModePipelined uint8 = 1
	// ModeSync selects the traditional blocking commit.
	ModeSync uint8 = 2
	// ModeSyncELR blocks for durability but releases locks at insert.
	ModeSyncELR uint8 = 3
	// ModeAsync acknowledges before durability (unsafe, for
	// comparison).
	ModeAsync uint8 = 4
	// modeMax bounds the valid encodings.
	modeMax = ModeAsync
)

// Protocol limits.
const (
	// DefaultMaxFrame is the frame-size ceiling both sides enforce
	// unless configured otherwise.
	DefaultMaxFrame = 1 << 20
	// MaxTableName bounds table-name length on the wire.
	MaxTableName = 1 << 10
	// reqHeader is requestID + opcode.
	reqHeader = 8 + 1
	// respHeader is requestID + status.
	respHeader = 8 + 1
	// frameHeader is the length prefix.
	frameHeader = 4
)

// Typed protocol errors. Server and client surface these (wrapped with
// connection context) when a peer misbehaves; each closes only the
// connection it occurred on.
var (
	// ErrFrameTooLarge is returned when a frame's length prefix exceeds
	// the configured maximum. The stream cannot be resynchronized, so
	// the connection closes.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrTruncatedFrame is returned when the peer closed (or stalled
	// past the read deadline) mid-frame.
	ErrTruncatedFrame = errors.New("wire: truncated frame")
	// ErrUnknownOpcode is returned for a request with an opcode the
	// server does not understand.
	ErrUnknownOpcode = errors.New("wire: unknown opcode")
	// ErrBadRequest is returned when a request body fails validation
	// (short body, oversized name, trailing garbage).
	ErrBadRequest = errors.New("wire: malformed request")
	// ErrBadResponse is returned by the client when a response frame
	// fails validation.
	ErrBadResponse = errors.New("wire: malformed response")
	// ErrWriteTimeout is recorded when a peer stopped draining its
	// socket and the write deadline expired (stalled-reader guard).
	ErrWriteTimeout = errors.New("wire: write timeout (stalled reader)")
	// ErrReadTimeout is recorded when a connection sat idle (or stalled
	// mid-frame) past the read deadline.
	ErrReadTimeout = errors.New("wire: read timeout")
	// ErrConnClosed is returned for requests issued on (or in flight
	// over) a connection that has failed or been closed.
	ErrConnClosed = errors.New("wire: connection closed")
	// ErrShuttingDown is returned when the server is draining: in-flight
	// transactions finish, new work is refused.
	ErrShuttingDown = errors.New("wire: server shutting down")
	// ErrPoolExhausted is returned when a client's connection budget is
	// exhausted and blocking was declined.
	ErrPoolExhausted = errors.New("wire: connection pool exhausted")
)

// Request is one decoded request frame. Only the fields relevant to Op
// are meaningful; EncodeRequest writes exactly those, and DecodeRequest
// rejects payloads with trailing or missing bytes.
type Request struct {
	// ID is the client-chosen request identifier echoed in the
	// response.
	ID uint64
	// Op is the operation.
	Op Opcode
	// Table is the connection-scoped table handle (data ops).
	Table uint32
	// Key is the row key (point ops).
	Key uint64
	// From is the scan range start (OpScan).
	From uint64
	// To is the scan range end, inclusive (OpScan).
	To uint64
	// MaxRows bounds the scan result count (OpScan; 0 = server cap).
	MaxRows uint32
	// Mode is the commit-mode byte (OpBegin).
	Mode uint8
	// Name is the table name (OpCreateTable, OpOpenTable).
	Name string
	// Row is the row image (OpInsert, OpUpdate). Decoded requests alias
	// the frame buffer; copy before retaining.
	Row []byte
}

// AppendRequest appends r as a complete frame (length prefix included)
// to dst and returns the extended slice.
func AppendRequest(dst []byte, r *Request) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length patched below
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = append(dst, byte(r.Op))
	switch r.Op {
	case OpPing, OpCommit, OpAbort, OpStats:
	case OpCreateTable, OpOpenTable:
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Name)))
		dst = append(dst, r.Name...)
	case OpBegin:
		dst = append(dst, r.Mode)
	case OpInsert, OpUpdate:
		dst = binary.BigEndian.AppendUint32(dst, r.Table)
		dst = binary.BigEndian.AppendUint64(dst, r.Key)
		dst = append(dst, r.Row...)
	case OpRead, OpDelete:
		dst = binary.BigEndian.AppendUint32(dst, r.Table)
		dst = binary.BigEndian.AppendUint64(dst, r.Key)
	case OpScan:
		dst = binary.BigEndian.AppendUint32(dst, r.Table)
		dst = binary.BigEndian.AppendUint64(dst, r.From)
		dst = binary.BigEndian.AppendUint64(dst, r.To)
		dst = binary.BigEndian.AppendUint32(dst, r.MaxRows)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-frameHeader))
	return dst
}

// DecodeRequest parses a request payload (frame contents after the
// length prefix). The returned Request's Row and Name alias payload.
func DecodeRequest(payload []byte) (Request, error) {
	var r Request
	if len(payload) < reqHeader {
		return r, fmt.Errorf("%w: %d-byte payload", ErrBadRequest, len(payload))
	}
	r.ID = binary.BigEndian.Uint64(payload[0:8])
	r.Op = Opcode(payload[8])
	body := payload[reqHeader:]
	switch r.Op {
	case OpPing, OpCommit, OpAbort, OpStats:
		if len(body) != 0 {
			return r, fmt.Errorf("%w: %s with %d-byte body", ErrBadRequest, r.Op, len(body))
		}
	case OpCreateTable, OpOpenTable:
		if len(body) < 2 {
			return r, fmt.Errorf("%w: short %s body", ErrBadRequest, r.Op)
		}
		n := int(binary.BigEndian.Uint16(body[0:2]))
		if n > MaxTableName {
			return r, fmt.Errorf("%w: %d-byte table name", ErrBadRequest, n)
		}
		if len(body) != 2+n {
			return r, fmt.Errorf("%w: %s name length %d vs body %d", ErrBadRequest, r.Op, n, len(body)-2)
		}
		r.Name = string(body[2 : 2+n])
	case OpBegin:
		if len(body) != 1 {
			return r, fmt.Errorf("%w: BEGIN with %d-byte body", ErrBadRequest, len(body))
		}
		r.Mode = body[0]
		if r.Mode > modeMax {
			return r, fmt.Errorf("%w: commit mode %d", ErrBadRequest, r.Mode)
		}
	case OpInsert, OpUpdate:
		if len(body) < 12 {
			return r, fmt.Errorf("%w: short %s body", ErrBadRequest, r.Op)
		}
		r.Table = binary.BigEndian.Uint32(body[0:4])
		r.Key = binary.BigEndian.Uint64(body[4:12])
		r.Row = body[12:]
	case OpRead, OpDelete:
		if len(body) != 12 {
			return r, fmt.Errorf("%w: %s with %d-byte body", ErrBadRequest, r.Op, len(body))
		}
		r.Table = binary.BigEndian.Uint32(body[0:4])
		r.Key = binary.BigEndian.Uint64(body[4:12])
	case OpScan:
		if len(body) != 24 {
			return r, fmt.Errorf("%w: SCAN with %d-byte body", ErrBadRequest, len(body))
		}
		r.Table = binary.BigEndian.Uint32(body[0:4])
		r.From = binary.BigEndian.Uint64(body[4:12])
		r.To = binary.BigEndian.Uint64(body[12:20])
		r.MaxRows = binary.BigEndian.Uint32(body[20:24])
	default:
		return r, fmt.Errorf("%w: %d", ErrUnknownOpcode, uint8(r.Op))
	}
	return r, nil
}

// AppendResponse appends a response frame (length prefix included) for
// request id with the given status and body.
func AppendResponse(dst []byte, id uint64, status Status, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(respHeader+len(body)))
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, byte(status))
	return append(dst, body...)
}

// Response is one decoded response frame.
type Response struct {
	// ID echoes the request this response answers.
	ID uint64
	// Status is the outcome code.
	Status Status
	// Body is the op-specific payload (aliases the frame buffer).
	Body []byte
}

// DecodeResponse parses a response payload (after the length prefix).
func DecodeResponse(payload []byte) (Response, error) {
	var r Response
	if len(payload) < respHeader {
		return r, fmt.Errorf("%w: %d-byte payload", ErrBadResponse, len(payload))
	}
	r.ID = binary.BigEndian.Uint64(payload[0:8])
	r.Status = Status(payload[8])
	r.Body = payload[respHeader:]
	return r, nil
}

// ScanRow is one row of a scan result.
type ScanRow struct {
	// Key is the row key.
	Key uint64
	// Row is the row image.
	Row []byte
}

// AppendScanBody appends the OpScan OK body (count, then key/len/row
// triples) for rows to dst.
func AppendScanBody(dst []byte, rows []ScanRow) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rows)))
	for _, kv := range rows {
		dst = binary.BigEndian.AppendUint64(dst, kv.Key)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(kv.Row)))
		dst = append(dst, kv.Row...)
	}
	return dst
}

// DecodeScanBody parses an OpScan OK body. Row count and lengths are
// validated against the actual payload before any allocation sized by
// them. Returned rows alias body.
func DecodeScanBody(body []byte) ([]ScanRow, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: short scan body", ErrBadResponse)
	}
	n := int(binary.BigEndian.Uint32(body[0:4]))
	rest := body[4:]
	// Each row needs at least 12 bytes; a count the payload cannot hold
	// is rejected before allocating for it.
	if n > len(rest)/12 {
		return nil, fmt.Errorf("%w: scan count %d exceeds payload", ErrBadResponse, n)
	}
	rows := make([]ScanRow, 0, n)
	for i := 0; i < n; i++ {
		if len(rest) < 12 {
			return nil, fmt.Errorf("%w: scan row %d truncated", ErrBadResponse, i)
		}
		key := binary.BigEndian.Uint64(rest[0:8])
		rl := int(binary.BigEndian.Uint32(rest[8:12]))
		rest = rest[12:]
		if rl > len(rest) {
			return nil, fmt.Errorf("%w: scan row %d length %d exceeds payload", ErrBadResponse, i, rl)
		}
		rows = append(rows, ScanRow{Key: key, Row: rest[:rl]})
		rest = rest[rl:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after scan rows", ErrBadResponse, len(rest))
	}
	return rows, nil
}

// ReadFrame reads one length-prefixed frame payload from r, enforcing
// max before allocating. io.EOF is returned untouched only at a clean
// frame boundary; a connection dying mid-frame surfaces as
// ErrTruncatedFrame.
func ReadFrame(r io.Reader, max uint32) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: %w", ErrTruncatedFrame, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > max {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTruncatedFrame, err)
	}
	return buf, nil
}
