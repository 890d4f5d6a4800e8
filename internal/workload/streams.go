package workload

import (
	"strconv"

	"aether/internal/txn"
)

// Streams is the partition-scaling scenario's workload. Every client
// inserts 4 KiB rows into a table of its own, so homed by table its
// transactions stay on one lane; every 8th also rewrites the client's
// row of one shared table.
type Streams struct {
	// Clients is the number of clients, one table and shared row each.
	Clients int

	own    []*txn.Table
	shared *txn.Table
	next   []uint64 // per client: the last key inserted into its table
}

// streamsRow is a row of key, then 4 KiB filled from stamp with non-zero
// bytes, so that all of it is logged (a row's zero tail is not) and
// device bandwidth, not per-record CPU, bounds the log.
func streamsRow(key, stamp uint64) []byte {
	return tatpRow(key, 8+4096, byte(stamp)|1)
}

// Setup creates the tables w0 … w<Clients-1> and shared, loads one shared
// row per client, and rewrites them all in one transaction homed on the
// shared table's lane. A shared row fills its page, and the load's
// checkpoint forgot which lane wrote it, so each client's first rewrite,
// depending on that transaction, makes the cross-lane flush dependencies.
func (w *Streams) Setup(eng *txn.Engine) error {
	w.own = make([]*txn.Table, w.Clients)
	w.next = make([]uint64, w.Clients)
	var tables []table
	for i := range w.own {
		tables = append(tables, table{"w" + strconv.Itoa(i), &w.own[i]})
	}
	err := load(eng, append(tables, table{"shared", &w.shared}), func(put put) {
		for id := uint64(0); id < uint64(w.Clients); id++ {
			put(w.shared, id, streamsRow(id, id))
		}
	})
	if err != nil {
		return err
	}
	ag := eng.NewAgent()
	defer ag.Close()
	tx := ag.Begin()
	for id := uint64(0); id < uint64(w.Clients) && err == nil; id++ {
		err = tx.Update(w.shared, id, func([]byte) ([]byte, error) { return streamsRow(id, 0), nil })
	}
	if err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit(txn.CommitSync, nil)
}

// Body returns the driver body: insert the client's next row into its
// own table and, every 8th transaction, rewrite its shared row.
func (w *Streams) Body() Body {
	return func(c *Client) error {
		w.next[c.ID]++
		n := w.next[c.ID]
		tx := c.Agent.Begin()
		err := tx.Insert(w.own[c.ID], n, streamsRow(n, n))
		if err == nil && n%8 == 0 {
			err = tx.Update(w.shared, uint64(c.ID), func([]byte) ([]byte, error) {
				return streamsRow(uint64(c.ID), n), nil
			})
		}
		if err != nil {
			c.AbortTxn(tx)
			return err
		}
		c.CommitTxn(tx)
		return nil
	}
}
