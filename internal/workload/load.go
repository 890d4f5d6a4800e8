package workload

import (
	"fmt"

	"aether/internal/txn"
)

// loadBatch is how many rows a load transaction inserts before it
// commits, counting the rows of every table alike.
const loadBatch = 2000

// table names one of a workload's tables and where its handle goes.
type table struct {
	name string
	dst  **txn.Table
}

// put inserts one row of the load. After a failed insert or commit it
// does nothing, and load returns that first error.
type put func(t *txn.Table, key uint64, row []byte)

// load creates tables in order, then runs fill, which inserts every row
// of the initial database through put. All rows go through one agent, in
// sync-committed transactions of loadBatch rows; the last commits what is
// left, and a checkpoint archives the load.
func load(eng *txn.Engine, tables []table, fill func(put)) error {
	for _, t := range tables {
		tbl, err := eng.CreateTable(t.name, nil)
		if err != nil {
			return err
		}
		*t.dst = tbl
	}
	ag := eng.NewAgent()
	defer ag.Close()
	tx := ag.Begin()
	rows := 0
	var err error
	fill(func(t *txn.Table, key uint64, row []byte) {
		if err != nil {
			return
		}
		if err = tx.Insert(t, key, row); err != nil {
			err = fmt.Errorf("workload: load %s row %d: %w", t.Name, key, err)
			return
		}
		if rows++; rows%loadBatch == 0 {
			if err = tx.Commit(txn.CommitSync, nil); err == nil {
				tx = ag.Begin()
			}
		}
	})
	if err != nil {
		return err
	}
	if err := tx.Commit(txn.CommitSync, nil); err != nil {
		return err
	}
	return eng.Checkpoint()
}
