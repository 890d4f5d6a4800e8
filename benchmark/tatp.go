package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"aether"
	"aether/internal/wire"
)

const (
	tatpSubscribers = 100_000
	tatpRowSize     = 100
	tatpReadPct     = 80
	tatpDepth       = 16     // CommitAsync updates one connection keeps in flight
	tatpTxns        = 20_000 // transactions each connection makes per cycle: about two seconds' worth
	tatpTable       = "subscriber"
)

// tatpRow lays a subscriber out as key | version | filler, every filler
// byte derived from key and version, so any image read back can be
// checked for being one whole image some client wrote.
func tatpRow(key, version uint64) []byte {
	b := make([]byte, tatpRowSize)
	binary.LittleEndian.PutUint64(b[0:], key)
	binary.LittleEndian.PutUint64(b[8:], version)
	fill := byte(key*31 + version*17)
	for i := 16; i < len(b); i++ {
		b[i] = fill + byte(i)
	}
	return b
}

// tatpCheckRow reports what is wrong with an image read for key, or "".
func tatpCheckRow(key uint64, row []byte) string {
	if len(row) != tatpRowSize {
		return fmt.Sprintf("row of %d bytes", len(row))
	}
	version := binary.LittleEndian.Uint64(row[8:])
	if string(row) != string(tatpRow(key, version)) {
		return fmt.Sprintf("torn or foreign image (claims key %d version %d)", binary.LittleEndian.Uint64(row), version)
	}
	return ""
}

// tatpClient is one connection's closed-loop generator. It updates only
// the subscribers it owns (key mod clients == id), so the last image it
// submitted for one of them is the image any later read must return: a
// connection's requests are served in order, and no one else writes the
// key. Reads of the other client's keys are checked for being whole.
type tatpClient struct {
	id       int
	rng      *rand.Rand
	tr       *tracer
	sess     *wire.Session
	table    wire.TableID
	subs     int
	version  map[uint64]uint64 // owned key → last version submitted
	window   window
	idBase   uint32 // added to a transaction's sequence number to name its spans
	txns     slab[tatpTxn]
	badReads []string
}

// tatpTxn is what became of one transaction. The ack callback of an
// update writes latNs on the connection's reader goroutine; the client
// reads it only after draining its window.
type tatpTxn struct {
	latNs  int64 // Begin → durable ack; 0 = failed
	update bool
}

func (c *tatpClient) fail(err error) {
	if len(c.badReads) < 5 {
		c.badReads = append(c.badReads, "operation failed: "+err.Error())
	}
}

// one runs a read transaction (Begin/Read/Commit, three round trips)
// or an update (Begin/Update, then a pipelined commit).
func (c *tatpClient) one() {
	t := c.txns.push()
	id := c.idBase + uint32(c.txns.len())
	read := c.rng.Intn(100) < tatpReadPct
	t.update = !read
	key := uint64(c.rng.Intn(c.subs) + 1)
	if !read {
		key = uint64(c.rng.Intn(c.subs/clients)*clients + c.id + 1) // a key this client owns
	}

	start := time.Now()
	sp := c.tr.start(id, spanBegin)
	err := c.sess.Begin()
	c.tr.end(sp)
	if err != nil {
		c.fail(err)
		return
	}
	if read {
		sp = c.tr.start(id, spanRead)
		row, err := c.sess.Read(c.table, key)
		c.tr.end(sp)
		if err == nil {
			sp = c.tr.start(id, spanCommit)
			err = c.sess.Commit()
			c.tr.end(sp)
		} else {
			_ = c.sess.Abort() // already failed
		}
		if err != nil {
			c.fail(err)
			return
		}
		t.latNs = int64(time.Since(start))
		if msg := tatpCheckRow(key, row); msg != "" && len(c.badReads) < 5 {
			c.badReads = append(c.badReads, fmt.Sprintf("read of %d: %s", key, msg))
		} else if got, want := binary.LittleEndian.Uint64(row[8:]), c.version[key]; owns(c.id, key) && got != want && len(c.badReads) < 5 {
			c.badReads = append(c.badReads, fmt.Sprintf("read of %d returned version %d, last acknowledged %d", key, got, want))
		}
		return
	}

	c.window <- struct{}{}
	version := c.version[key] + 1
	sp = c.tr.start(id, spanUpdate)
	err = c.sess.Update(c.table, key, tatpRow(key, version))
	c.tr.end(sp)
	if err != nil {
		_ = c.sess.Abort() // already failed
		c.fail(err)
		<-c.window
		return
	}
	c.version[key] = version
	sp = c.tr.start(id, spanCommitSubmit)
	wait := c.tr.start(id, spanAckWait)
	// The ack callback runs exactly once on every path, so the error
	// CommitAsync returns is the same one the callback reports.
	_ = c.sess.CommitAsync(func(err error) {
		c.tr.end(wait)
		if err == nil {
			t.latNs = int64(time.Since(start))
		}
		<-c.window
	})
	c.tr.end(sp)
	if wait != nil {
		wait.Start = sp.End
	}
}

func owns(client int, key uint64) bool { return int(key-1)%clients == client }

// openTATP opens a fresh file-backed database and loads the subscriber
// table at version 0.
func openTATP(opts aether.Options, subs int) (*aether.DB, error) {
	db, err := aether.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	err = func() error {
		t, err := db.CreateTable(tatpTable)
		if err != nil {
			return err
		}
		s := db.Session()
		defer s.Close()
		l := loader{s: s}
		for k := uint64(1); k <= uint64(subs); k++ {
			if err := l.insert(t, k, tatpRow(k, 0)); err != nil {
				return err
			}
		}
		if err := l.flush(); err != nil {
			return err
		}
		return db.Checkpoint()
	}()
	if err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// serveWire starts a wire.Server over db on a loopback port. stop drains
// it and waits for its accept loop to end; it may be called once.
func serveWire(db *aether.DB) (srv *wire.Server, addr string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv = wire.NewServer(db, wire.ServerOptions{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		<-served
		return err
	}, nil
}

// runTATPWire drives a read-mostly mix through an in-process wire.Server.
func runTATPWire(r *run) error {
	subs := r.scaled(tatpSubscribers, 100)
	txns := r.scaled(tatpTxns, 200)
	var frames, wireTxns float64 // server frames and transactions over the counted cycles

	err := r.cycles(func(n int, counted bool) (c cycle, err error) {
		dir, err := r.newDir()
		if err != nil {
			return c, err
		}
		defer os.RemoveAll(dir)
		opts := aether.Options{LogPath: dir, SegmentSize: 8 << 20, CheckpointEveryBytes: 64 << 20}
		start := time.Now()
		db, err := openTATP(opts, subs)
		if err != nil {
			return c, err
		}
		c.setupS = time.Since(start).Seconds()
		defer func() { db.Close() }()

		srv, addr, stopServer, err := serveWire(db)
		if err != nil {
			return c, err
		}
		serving := true
		defer func() {
			if serving {
				_ = stopServer() // an earlier error is what is reported
			}
		}()
		cl := make([]*tatpClient, clients)
		for i := range cl {
			conn, err := wire.Dial(addr, wire.ClientOptions{})
			if err != nil {
				return c, fmt.Errorf("dial: %w", err)
			}
			defer conn.Close()
			sess, err := conn.Session()
			if err != nil {
				return c, fmt.Errorf("wire session: %w", err)
			}
			cl[i] = &tatpClient{id: i, rng: r.rng(n*clients + i), sess: sess, subs: subs, idBase: uint32(n * txns),
				version: map[uint64]uint64{}, window: make(window, tatpDepth)}
			if counted {
				cl[i].tr = r.tracers[i]
			}
			if cl[i].table, err = sess.OpenTable(tatpTable); err != nil {
				return c, fmt.Errorf("wire session: %w", err)
			}
		}

		srvBefore := srv.Stats()
		before := takeSnapshot(db)
		eachClient(clients, func(i int) {
			for j := 0; j < txns; j++ {
				cl[i].one()
			}
			cl[i].window.drain()
		})
		c.charge(before, takeSnapshot(db))
		srvAfter := srv.Stats()
		for i, cli := range cl {
			cli.txns.each(func(t *tatpTxn) {
				c.attempted++
				switch {
				case t.latNs == 0:
					c.failed++
				case t.update:
					c.logTxns++
				default:
					// Latency is taken over the reads, whose three round trips
					// are what this workload is about. An update's wait for its
					// durable ack is the log's doing, measured by tpcb_pipelined,
					// and quantised by the flush timer: with it in the sample,
					// the tail is just the 95th percentile of that wait.
					c.latMs = append(c.latMs, float64(t.latNs)/1e6)
				}
			})
			for _, msg := range cli.badReads {
				r.violate("client %d: %s", i, msg)
			}
		}
		// Read-only transactions log nothing, so the log bytes are charged
		// to the updates alone.
		c.acked = c.attempted - c.failed
		c.rows, c.allocOver = c.acked, c.acked
		c.liveLogMiB = segmentFilesMiB(dir)
		if counted {
			frames += float64(srvAfter.FramesIn - srvBefore.FramesIn + srvAfter.FramesOut - srvBefore.FramesOut)
			wireTxns += float64(c.acked)
		}

		for i, cli := range cl {
			if err := cli.sess.Close(); err != nil {
				r.violate("client %d: closing session: %v", i, err)
			}
		}
		serving = false
		if err := stopServer(); err != nil {
			return c, fmt.Errorf("server shutdown: %w", err)
		}

		if r.cfg.sabotage == sabotageStaleRow && n == 1 {
			// Rewrite one subscriber behind the model's back.
			t, err := db.LookupTable(tatpTable)
			if err != nil {
				return c, err
			}
			s := db.Session()
			tx := s.Begin()
			err = tx.Update(t, 1, func([]byte) ([]byte, error) { return tatpRow(1, 1<<40), nil })
			if err == nil {
				err = tx.Commit()
			}
			s.Close()
			if err != nil {
				return c, fmt.Errorf("sabotage: %w", err)
			}
		}

		// Restart and check every subscriber against the model.
		var table *aether.Table
		err = c.restart(db, func() (*aether.DB, error) {
			reopened, err := aether.Open(opts)
			if err != nil {
				return nil, err
			}
			db = reopened
			if table, err = db.CreateTable(tatpTable); err != nil {
				return nil, err
			}
			return db, db.RebuildAfterRecovery()
		})
		if err != nil {
			return c, err
		}
		s := db.Session()
		defer s.Close()
		tx := s.Begin()
		defer tx.Commit() // read-only: nothing to harden, nothing to fail
		next := uint64(1)
		err = tx.Scan(table, 0, ^uint64(0), func(key uint64, row []byte) bool {
			if key != next {
				r.violate("subscriber scan returned key %d, expected %d", key, next)
				return false
			}
			next++
			if msg := tatpCheckRow(key, row); msg != "" {
				r.violate("subscriber %d after restart: %s", key, msg)
			} else if got, want := binary.LittleEndian.Uint64(row[8:]), cl[int(key-1)%clients].version[key]; got != want {
				r.violate("subscriber %d after restart has version %d, last acknowledged %d", key, got, want)
			}
			return true
		})
		if err != nil {
			return c, fmt.Errorf("scan subscribers: %w", err)
		}
		if next != uint64(subs)+1 {
			r.violate("subscriber table has %d rows, loaded %d", next-1, subs)
		}
		return c, nil
	})
	if err != nil {
		return err
	}
	r.reportSpans(0, spans(spanUpdate))
	// Over the wire every call is one round trip.
	byName, _ := spanStats(r.tracers, 0, 0)
	r.setTiming("wire.rtt_read_us", summarize(byName[spanRead]))
	r.setTiming("wire.rtt_commit_us", summarize(byName[spanCommit]))
	r.set("wire.frames_per_txn", ratio(frames, wireTxns))
	return nil
}
