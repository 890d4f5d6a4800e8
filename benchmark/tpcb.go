package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"aether"
)

// TPC-B at the paper's scale: 10 branches, 100 tellers, 100 000
// accounts, 100-byte rows (≈ 1 300 pages of accounts).
const (
	tpcbBranches      = 10
	tellersPerBranch  = 10
	accountsPerBranch = 10_000
	tpcbRowSize       = 100
	loadBatch         = 1000 // rows per load transaction
	pipelineDepth     = 32   // commits one pipelined session keeps in flight
)

// tpcbVariant is what distinguishes the three TPC-B workloads.
type tpcbVariant struct {
	sessions     int  // clients
	txns         int  // transactions each client submits per cycle: about two seconds' worth
	pipelined    bool // CommitAsyncAck with pipelineDepth in flight, else blocking Commit
	execLatency  bool // latency ends when the commit is submitted, not when it is durable
	cachePages   int  // 0 = unbounded
	cleanerPages int
}

var tpcbVariants = map[string]tpcbVariant{
	"tpcb_pipelined": {sessions: clients, txns: 40_000, pipelined: true},
	// tpcb_sync is about the latency of a commit that has no company: one
	// session, so every commit waits for the flush daemon's next pass and
	// one segment sync, and nothing else. With two blocking sessions,
	// which commits share a flush is a phase-locking pattern between them
	// and the daemon's timer that settles, for tens of seconds at a time,
	// on a typical latency of 1.36 ms or of 1.1 ms (or, rarely, 0.8 ms):
	// whole runs differ by a quarter for no reason in the code.
	"tpcb_sync": {sessions: 1, txns: 1_500},
	// tpcb_bounded is about what the pool adds to a transaction — faults,
	// steals, waiting for the cleaner — so its latency is the transaction's
	// own work, Begin to commit submitted. The wait for the durable ack
	// that follows is tpcb_pipelined's subject, and here it sits on the
	// edge between one and two ticks of the flush timer: whole runs land
	// at 1.2 ms or at 2.1 ms for reasons that have nothing to do with the
	// pool.
	"tpcb_bounded": {sessions: clients, txns: 10_000, pipelined: true, execLatency: true, cachePages: 160, cleanerPages: 80},
}

func (v tpcbVariant) options(dir string) aether.Options {
	return aether.Options{
		LogPath:              dir,
		SegmentSize:          8 << 20,
		CheckpointEveryBytes: 64 << 20,
		CachePages:           v.cachePages,
		CleanerPages:         v.cleanerPages,
	}
}

// tpcbRow lays a row out as key | amount | ref | filler. amount is a
// balance (or a history row's delta); ref is a history row's account.
func tpcbRow(key uint64, amount int64, ref uint64) []byte {
	b := make([]byte, tpcbRowSize)
	binary.LittleEndian.PutUint64(b[0:], key)
	binary.LittleEndian.PutUint64(b[8:], uint64(amount))
	binary.LittleEndian.PutUint64(b[16:], ref)
	return b
}

func rowAmount(row []byte) int64 { return int64(binary.LittleEndian.Uint64(row[8:])) }
func rowRef(row []byte) uint64   { return binary.LittleEndian.Uint64(row[16:]) }

// tpcbDB is an open TPC-B database.
type tpcbDB struct {
	db       *aether.DB
	accounts int // account rows loaded
	branches *aether.Table
	tellers  *aether.Table
	account  *aether.Table
	history  *aether.Table
}

// bind fills in the four table handles, in the tables' fixed order:
// with d.db.CreateTable on a fresh or reopened database, with
// d.db.LookupTable after DB.Crash has re-registered them itself.
func (d *tpcbDB) bind(table func(name string) (*aether.Table, error)) error {
	for _, t := range []struct {
		name string
		dst  **aether.Table
	}{{"branch", &d.branches}, {"teller", &d.tellers}, {"account", &d.account}, {"history", &d.history}} {
		tbl, err := table(t.name)
		if err != nil {
			return fmt.Errorf("table %s: %w", t.name, err)
		}
		*t.dst = tbl
	}
	return nil
}

// openTPCB opens a fresh database, loads it with zero balances and
// checkpoints it: the set-up every TPC-B workload times.
func openTPCB(opts aether.Options, accounts int) (*tpcbDB, error) {
	db, err := aether.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	d := &tpcbDB{db: db, accounts: accounts}
	if err := d.load(); err != nil {
		db.Close()
		return nil, err
	}
	return d, nil
}

func (d *tpcbDB) load() error {
	if err := d.bind(d.db.CreateTable); err != nil {
		return err
	}
	s := d.db.Session()
	defer s.Close()
	l := loader{s: s}
	for b := uint64(1); b <= tpcbBranches; b++ {
		if err := l.insert(d.branches, b, tpcbRow(b, 0, 0)); err != nil {
			return err
		}
	}
	for t := uint64(1); t <= tpcbBranches*tellersPerBranch; t++ {
		if err := l.insert(d.tellers, t, tpcbRow(t, 0, 0)); err != nil {
			return err
		}
	}
	for a := uint64(1); a <= uint64(d.accounts); a++ {
		if err := l.insert(d.account, a, tpcbRow(a, 0, 0)); err != nil {
			return err
		}
	}
	if err := l.flush(); err != nil {
		return err
	}
	return d.db.Checkpoint()
}

// loader inserts rows in batched blocking transactions.
type loader struct {
	s    *aether.Session
	tx   *aether.Tx
	rows int
}

func (l *loader) insert(t *aether.Table, key uint64, row []byte) error {
	if l.tx == nil {
		l.tx = l.s.Begin()
	}
	if err := l.tx.Insert(t, key, row); err != nil {
		return fmt.Errorf("load key %d: %w", key, err)
	}
	if l.rows++; l.rows%loadBatch == 0 {
		return l.flush()
	}
	return nil
}

func (l *loader) flush() error {
	if l.tx == nil {
		return nil
	}
	err := l.tx.Commit()
	l.tx = nil
	if err != nil {
		return fmt.Errorf("load commit: %w", err)
	}
	return nil
}

// Transaction states in the model.
const (
	txInFlight int32 = iota // submitted, no ack yet: after a crash it may be present or not
	txAcked                 // acknowledged with a nil error: must be present
	txAborted               // failed before its commit was submitted: must be absent
	txAckError              // acknowledged with an error: failed, and may be present or not
)

// tpcbTxn is the model's record of one submitted transaction.
type tpcbTxn struct {
	account uint32
	teller  uint16
	branch  uint16
	delta   int64
	execNs  int64        // Begin → commit submitted (or, blocking, returned)
	latNs   atomic.Int64 // written by the ack callback, which a crash may leave running
	state   atomic.Int32
	present bool // verification found its history row
}

// tpcbClient is one closed-loop generator: a session, its random
// stream, and the model of everything it submitted.
type tpcbClient struct {
	id       int
	rng      *rand.Rand
	accounts int
	tr       *tracer
	idBase   uint32 // added to a transaction's sequence number to name its spans
	txns     slab[tpcbTxn]
	window   window
	crashing atomic.Bool // set by crash_recover just before DB.Crash
}

// newTPCBClient makes client id of the given cycle, which submits txns
// transactions. The warm-up cycle is not traced.
func newTPCBClient(r *run, cycle, id, accounts, txns, depth int) *tpcbClient {
	c := &tpcbClient{id: id, rng: r.rng(cycle*clients + id), accounts: accounts, idBase: uint32(cycle * txns), window: make(window, depth)}
	if cycle > 0 {
		c.tr = r.tracers[id]
	}
	return c
}

// historyKey gives every client its own dense key range.
func historyKey(client, seq int) uint64 { return uint64(client+1)<<40 | uint64(seq) }

// submit runs one TPC-B transaction. Pipelined, it returns once the
// commit is submitted and at most cap(window) are in flight; blocking,
// it returns when the commit is durable.
func (c *tpcbClient) submit(d *tpcbDB, s *aether.Session, pipelined bool) {
	c.window <- struct{}{}
	// Each client drives its own branches (every clients-th one, with
	// their tellers and accounts), so the clients share the tables, the
	// log and the pool but no row. When they share rows, now and then
	// both stall for the 500 ms lock timeout and one aborts — about once
	// per three million transactions (README.md, "First findings") —
	// and no workload here is about row-lock contention.
	branch := c.rng.Intn(tpcbBranches/clients)*clients + c.id
	perBranch := c.accounts / tpcbBranches
	t := c.txns.push()
	t.branch = uint16(branch + 1)
	t.teller = uint16(branch*tellersPerBranch + c.rng.Intn(tellersPerBranch) + 1)
	t.account = uint32(branch*perBranch + c.rng.Intn(perBranch) + 1)
	t.delta = int64(c.rng.Intn(1_999_999) - 999_999)
	seq := c.txns.len()
	id := c.idBase + uint32(seq)
	add := func(row []byte) ([]byte, error) {
		out := append([]byte(nil), row...)
		binary.LittleEndian.PutUint64(out[8:], uint64(rowAmount(row)+t.delta))
		return out, nil
	}

	start := time.Now()
	sp := c.tr.start(id, spanBegin)
	tx := s.Begin()
	c.tr.end(sp)
	// Lock order account → teller → branch is the same for every
	// transaction, so the two clients cannot deadlock.
	sp = c.tr.start(id, spanUpdate)
	err := tx.Update(d.account, uint64(t.account), add)
	c.tr.end(sp)
	if err == nil {
		sp = c.tr.start(id, spanUpdate)
		err = tx.Update(d.tellers, uint64(t.teller), add)
		c.tr.end(sp)
	}
	if err == nil {
		sp = c.tr.start(id, spanUpdate)
		err = tx.Update(d.branches, uint64(t.branch), add)
		c.tr.end(sp)
	}
	if err == nil {
		key := historyKey(c.id, seq)
		sp = c.tr.start(id, spanInsert)
		err = tx.Insert(d.history, key, tpcbRow(key, t.delta, uint64(t.account)))
		c.tr.end(sp)
	}
	if err != nil {
		_ = tx.Abort() // the transaction already counts as failed
		t.state.Store(txAborted)
		<-c.window
		return
	}
	acked := func(err error) {
		t.latNs.Store(int64(time.Since(start)))
		if err != nil {
			// Once the crash has begun, an error only says the commit was
			// cut off; it stays in flight, present or not.
			if !c.crashing.Load() {
				t.state.Store(txAckError)
			}
		} else {
			t.state.Store(txAcked)
		}
	}
	if !pipelined {
		sp = c.tr.start(id, spanAckWait)
		err = tx.Commit()
		c.tr.end(sp)
		t.execNs = int64(time.Since(start))
		acked(err)
		<-c.window
		return
	}
	sp = c.tr.start(id, spanCommitSubmit)
	wait := c.tr.start(id, spanAckWait)
	err = tx.CommitAsyncAck(func(err error) {
		c.tr.end(wait)
		acked(err)
		<-c.window
	})
	c.tr.end(sp)
	t.execNs = int64(time.Since(start))
	if wait != nil {
		wait.Start = sp.End // the wait begins when the submit returns
	}
	if err != nil { // refused before it was logged; the callback will not run
		t.state.Store(txAborted)
		<-c.window
	}
}

// tpcbRun has every client submit txns transactions and waits until
// the last of them is acknowledged.
func tpcbRun(d *tpcbDB, cl []*tpcbClient, txns int, pipelined bool) {
	eachClient(len(cl), func(i int) {
		s := d.db.Session()
		defer s.Close()
		for j := 0; j < txns; j++ {
			cl[i].submit(d, s, pipelined)
		}
		cl[i].window.drain()
	})
}

// tally counts the clients' acknowledged and failed transactions into c
// and collects the latencies: Begin to durable ack, or with execLatency
// to the commit's submission.
func (c *cycle) tally(cl []*tpcbClient, execLatency bool) {
	for _, cli := range cl {
		cli.txns.each(func(t *tpcbTxn) {
			c.attempted++
			switch t.state.Load() {
			case txAcked:
				c.acked++
				c.rows += 4
				lat := t.latNs.Load()
				if execLatency {
					lat = t.execNs
				}
				c.latMs = append(c.latMs, float64(lat)/1e6)
			case txAborted, txAckError:
				c.failed++
			}
		})
	}
	c.allocOver, c.logTxns = c.acked, c.acked
}

// verify checks the database against the model: every acknowledged
// transaction's history row exists with the delta and account it was
// submitted with, no failed transaction left one, no row is unknown,
// and every balance equals the sum of the deltas of the transactions
// whose history rows are present — so the four tables' sums agree and
// each transaction is in all of them or none. Transactions still in
// flight at a crash may be present or absent.
func tpcbVerify(r *run, d *tpcbDB, cl []*tpcbClient) error {
	s := d.db.Session()
	defer s.Close()
	tx := s.Begin()
	defer tx.Commit() // read-only: nothing to harden, nothing to fail

	var histSum int64
	err := tx.Scan(d.history, 0, ^uint64(0), func(key uint64, row []byte) bool {
		client, seq := int(key>>40)-1, int(key&(1<<40-1))
		if client < 0 || client >= len(cl) || seq < 1 || seq > cl[client].txns.len() {
			r.violate("history row %#x was never submitted", key)
			return true
		}
		t := cl[client].txns.at(seq - 1)
		if rowAmount(row) != t.delta || rowRef(row) != uint64(t.account) {
			r.violate("history row %#x holds delta %d account %d, submitted %d/%d", key, rowAmount(row), rowRef(row), t.delta, t.account)
		}
		t.present = true
		histSum += rowAmount(row)
		return true
	})
	if err != nil {
		return fmt.Errorf("scan history: %w", err)
	}

	wantAccount := make([]int64, d.accounts+1)
	wantTeller := make([]int64, tpcbBranches*tellersPerBranch+1)
	wantBranch := make([]int64, tpcbBranches+1)
	for _, c := range cl {
		for j := 0; j < c.txns.len(); j++ {
			t := c.txns.at(j)
			switch st := t.state.Load(); {
			case st == txAcked && !t.present:
				r.violate("acknowledged commit lost: client %d txn %d has no history row", c.id, j+1)
			case st == txAborted && t.present:
				r.violate("aborted transaction left a history row: client %d txn %d", c.id, j+1)
			}
			if t.present {
				wantAccount[t.account] += t.delta
				wantTeller[t.teller] += t.delta
				wantBranch[t.branch] += t.delta
			}
		}
	}
	sums := map[string]int64{"history": histSum}
	for _, tbl := range []struct {
		name string
		t    *aether.Table
		want []int64
	}{{"account", d.account, wantAccount}, {"teller", d.tellers, wantTeller}, {"branch", d.branches, wantBranch}} {
		var sum int64
		rows, prev := 0, uint64(0)
		err := tx.Scan(tbl.t, 0, ^uint64(0), func(key uint64, row []byte) bool {
			rows++
			if key <= prev || key >= uint64(len(tbl.want)) {
				r.violate("%s scan returned key %d after %d (of %d)", tbl.name, key, prev, len(tbl.want)-1)
				return false
			}
			prev = key
			if got := rowAmount(row); got != tbl.want[key] {
				r.violate("%s %d has balance %d, model %d", tbl.name, key, got, tbl.want[key])
			}
			sum += rowAmount(row)
			return true
		})
		if err != nil {
			return fmt.Errorf("scan %s: %w", tbl.name, err)
		}
		if rows != len(tbl.want)-1 {
			r.violate("%s has %d rows, loaded %d", tbl.name, rows, len(tbl.want)-1)
		}
		sums[tbl.name] = sum
	}
	if sums["account"] != histSum || sums["teller"] != histSum || sums["branch"] != histSum {
		r.violate("balance sums disagree: %v", sums)
	}
	return nil
}

// sabotageDropHistory deletes the history row of one acknowledged
// transaction behind the model's back, as an engine that lost an
// acknowledged commit would have.
func sabotageDropHistory(d *tpcbDB, cl []*tpcbClient) error {
	for _, c := range cl {
		for j := 0; j < c.txns.len(); j++ {
			if c.txns.at(j).state.Load() != txAcked {
				continue
			}
			s := d.db.Session()
			defer s.Close()
			tx := s.Begin()
			if err := tx.Delete(d.history, historyKey(c.id, j+1)); err != nil {
				return err
			}
			return tx.Commit()
		}
	}
	return fmt.Errorf("sabotage: no acknowledged transaction to drop")
}

// runTPCB is the three file-backed TPC-B workloads.
func runTPCB(r *run) error {
	v := tpcbVariants[r.cfg.workload]
	accounts := r.scaled(tpcbBranches*accountsPerBranch, tpcbBranches*10)
	txns := r.scaled(v.txns, 50)
	if v.cachePages > 0 {
		// Keep the pool at about an eighth of the account table at any scale.
		v.cachePages = r.scaled(v.cachePages, 16)
		v.cleanerPages = v.cachePages / 2
	}
	depth := 1
	if v.pipelined {
		depth = pipelineDepth
	}

	err := r.cycles(func(n int, counted bool) (c cycle, err error) {
		dir, err := r.newDir()
		if err != nil {
			return c, err
		}
		defer os.RemoveAll(dir)
		opts := v.options(dir)
		start := time.Now()
		d, err := openTPCB(opts, accounts)
		if err != nil {
			return c, err
		}
		c.setupS = time.Since(start).Seconds()
		defer func() { d.db.Close() }()

		cl := make([]*tpcbClient, v.sessions)
		for i := range cl {
			cl[i] = newTPCBClient(r, n, i, accounts, txns, depth)
		}
		before := takeSnapshot(d.db)
		tpcbRun(d, cl, txns, v.pipelined)
		c.charge(before, takeSnapshot(d.db))
		c.tally(cl, v.execLatency)
		c.liveLogMiB = segmentFilesMiB(dir)

		if r.cfg.sabotage == sabotageDropAck && n == 1 {
			if err := sabotageDropHistory(d, cl); err != nil {
				return c, err
			}
		}
		err = c.restart(d.db, func() (*aether.DB, error) {
			db, err := aether.Open(opts)
			if err != nil {
				return nil, err
			}
			d.db = db
			if err := d.bind(db.CreateTable); err != nil {
				return nil, err
			}
			return db, db.RebuildAfterRecovery()
		})
		if err != nil {
			return c, err
		}
		return c, tpcbVerify(r, d, cl)
	})
	if err != nil {
		return err
	}
	var skipSpans spanSet
	if v.execLatency {
		skipSpans = spans(spanAckWait)
	}
	r.reportSpans(skipSpans, 0)
	return nil
}
