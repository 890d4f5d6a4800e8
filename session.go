package aether

import (
	"fmt"

	"aether/internal/txn"
)

// Session is a per-goroutine handle for running transactions — the
// paper's "agent thread". It carries the agent's log appender and its
// inherited-lock cache, so it must not be shared across goroutines.
type Session struct {
	db *DB
	ag *txn.Agent
}

// Session returns a new session. One per worker goroutine.
func (db *DB) Session() *Session {
	return &Session{db: db, ag: db.eng.NewAgent()}
}

// Close releases the session's inherited locks.
func (s *Session) Close() { s.ag.Close() }

// Begin starts a transaction using the database's default commit mode.
func (s *Session) Begin() *Tx {
	tx := s.ag.Begin()
	return &Tx{tx: tx, id: tx.ID(), mode: s.db.opts.Mode}
}

// Tx is one transaction. Once it is committed or aborted, every method
// returns ErrTxnDone (Abort: ErrPrecommitted while a detached commit is
// in flight), also after the session has begun its next transaction.
type Tx struct {
	tx *txn.Txn
	// id is the transaction tx was when Begin returned it. The session
	// reuses a finished txn.Txn for a later transaction, so a handle
	// whose tx carries another ID is a finished one, and must not reach
	// the transaction now in it.
	id   uint64
	mode CommitMode
}

// done reports whether the session has reused t's txn.Txn for a later
// transaction: t is finished.
func (t *Tx) done() bool { return t.tx.ID() != t.id }

// SetCommitMode overrides the commit protocol for this transaction. A
// mode that is not a CommitMode makes Commit and CommitAsyncAck return
// an error and leave the transaction open.
func (t *Tx) SetCommitMode(m CommitMode) { t.mode = m }

// Insert adds a row under key. Use Row to build rows with the key
// prefix the index rebuild expects.
func (t *Tx) Insert(table *Table, key uint64, row []byte) error {
	if t.done() {
		return ErrTxnDone
	}
	return t.tx.Insert(table.t, key, row)
}

// Read returns the row under key (shared-locked).
func (t *Tx) Read(table *Table, key uint64) ([]byte, error) {
	if t.done() {
		return nil, ErrTxnDone
	}
	return t.tx.Read(table.t, key)
}

// Update rewrites the row under key via fn (exclusive-locked
// read-modify-write).
func (t *Tx) Update(table *Table, key uint64, fn func(row []byte) ([]byte, error)) error {
	if t.done() {
		return ErrTxnDone
	}
	return t.tx.Update(table.t, key, fn)
}

// Delete removes the row under key.
func (t *Tx) Delete(table *Table, key uint64) error {
	if t.done() {
		return ErrTxnDone
	}
	return t.tx.Delete(table.t, key)
}

// Scan visits rows with keys in [from, to] in key order, calling fn
// until it returns false. The scan takes a table-level shared lock
// (coarse-grained; it blocks concurrent writers for its duration).
func (t *Tx) Scan(table *Table, from, to uint64, fn func(key uint64, row []byte) bool) error {
	if t.done() {
		return ErrTxnDone
	}
	return t.tx.Scan(table.t, from, to, fn)
}

// Commit finishes the transaction under its commit mode and blocks
// until the commit's outcome is decided for the client (durable for
// safe modes; immediately for CommitAsync). For fire-and-forget
// pipelined commits use CommitAsyncAck.
func (t *Tx) Commit() error {
	mode, err := t.commitMode()
	if err != nil {
		return err
	}
	if mode == txn.CommitPipelined {
		// A caller that blocks has nothing to detach from: pipelining
		// minus the detach is early lock release plus a wait on the
		// durable horizon. Waiting there directly parks the thread where
		// the flush daemon can see it, so it flushes at once instead of
		// on its next group-commit trigger; the win of the pipelined
		// mode stays with CommitAsyncAck, whose threads do not block.
		mode = txn.CommitSyncELR
	}
	if t.done() {
		return ErrTxnDone
	}
	return t.tx.Commit(mode, nil)
}

// CommitAsyncAck finishes the transaction without blocking: ack runs
// (on the log daemon's goroutine) once the commit is durable. This is
// flush pipelining's detach — the session can immediately Begin the
// next transaction. ack may be nil.
func (t *Tx) CommitAsyncAck(ack func(error)) error {
	mode, err := t.commitMode()
	if err != nil {
		return err
	}
	if t.done() {
		return ErrTxnDone
	}
	return t.tx.Commit(mode, ack)
}

// commitMode resolves the transaction's commit mode.
func (t *Tx) commitMode() (txn.CommitMode, error) {
	if !inTable(commitModes, int(t.mode)) {
		return 0, fmt.Errorf("aether: commit mode %d is not a CommitMode", int(t.mode))
	}
	return commitModes[t.mode], nil
}

// Abort rolls the transaction back.
func (t *Tx) Abort() error {
	if t.done() {
		return ErrTxnDone
	}
	return t.tx.Abort()
}

// Errors re-exported for callers.
var (
	ErrDuplicateKey = txn.ErrDuplicateKey
	ErrKeyNotFound  = txn.ErrKeyNotFound
	ErrTxnDone      = txn.ErrTxnDone
	ErrPrecommitted = txn.ErrPrecommitted
)
