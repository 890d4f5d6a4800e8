package workload

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"aether/internal/txn"
)

// TPCB is the TPC-B banking stress test the paper uses to evaluate ELR
// and flush pipelining (§3.2, §4.2): one small update transaction over
// branches, tellers, accounts and an append-only history. The paper runs
// a 100-teller dataset (10 branches); the branch row is the contention
// point, and the AccessSkew knob applies the zipfian skew Figure 3
// sweeps to branch (and teller/account) selection.
type TPCB struct {
	// Branches is the scale factor (10 tellers and AccountsPerBranch
	// accounts per branch). The paper's dataset: 10.
	Branches int
	// AccountsPerBranch scales the account table (TPC-B specifies
	// 100,000; tests shrink it).
	AccountsPerBranch int
	// AccessSkew is the zipfian s parameter for picking the branch
	// (0 = uniform, the TPC-B default behavior).
	AccessSkew float64

	branches *txn.Table
	tellers  *txn.Table
	accounts *txn.Table
	history  *txn.Table

	branchZipf *Zipf
	historySeq atomic.Uint64
}

// TPCB row layouts: key(8) | balance(8) | filler to ~100B per spec
// intent (shrunk to keep log records near the paper's observed sizes).
const tpcbRowSize = 64

func tpcbRow(key uint64, balance int64) []byte {
	b := make([]byte, tpcbRowSize)
	binary.LittleEndian.PutUint64(b[0:8], key)
	binary.LittleEndian.PutUint64(b[8:16], uint64(balance))
	return b
}

func tpcbBalance(row []byte) int64 {
	return int64(binary.LittleEndian.Uint64(row[8:16]))
}

func tpcbSetBalance(row []byte, bal int64) []byte {
	out := append([]byte(nil), row...)
	binary.LittleEndian.PutUint64(out[8:16], uint64(bal))
	return out
}

// TellersPerBranch is fixed by the TPC-B specification.
const TellersPerBranch = 10

// Setup creates and populates the four tables through the one loader:
// every branch with its tellers and accounts, and no history.
func (w *TPCB) Setup(eng *txn.Engine) error {
	if w.Branches <= 0 {
		w.Branches = 10
	}
	if w.AccountsPerBranch <= 0 {
		w.AccountsPerBranch = 1000
	}
	w.branchZipf = NewZipf(w.Branches, w.AccessSkew)

	return load(eng, []table{
		{"tpcb_branches", &w.branches},
		{"tpcb_tellers", &w.tellers},
		{"tpcb_accounts", &w.accounts},
		{"tpcb_history", &w.history},
	}, func(put put) {
		for b := 1; b <= w.Branches; b++ {
			put(w.branches, uint64(b), tpcbRow(uint64(b), 0))
			for t := 0; t < TellersPerBranch; t++ {
				tid := uint64((b-1)*TellersPerBranch + t + 1)
				put(w.tellers, tid, tpcbRow(tid, 0))
			}
			for a := 0; a < w.AccountsPerBranch; a++ {
				aid := uint64((b-1)*w.AccountsPerBranch + a + 1)
				put(w.accounts, aid, tpcbRow(aid, 0))
			}
		}
	})
}

// Body returns the transaction body for the driver: the TPC-B profile
// transaction (update account, teller and branch balances; append a
// history row). Deadlock victims abort and count as aborted.
func (w *TPCB) Body() Body {
	return func(c *Client) error {
		// Skewed branch pick; teller and account uniform within it.
		b := uint64(w.branchZipf.Draw(c.Rng) + 1)
		tid := (b-1)*TellersPerBranch + uint64(c.Rng.Intn(TellersPerBranch)) + 1
		aid := (b-1)*uint64(w.AccountsPerBranch) + uint64(c.Rng.Intn(w.AccountsPerBranch)) + 1
		delta := int64(c.Rng.Intn(1999999) - 999999)

		tx := c.Agent.Begin()
		// Lock order: account → teller → branch (uniform order prevents
		// most deadlocks; the branch row is the hot lock ELR relieves).
		err := tx.Update(w.accounts, aid, func(r []byte) ([]byte, error) {
			return tpcbSetBalance(r, tpcbBalance(r)+delta), nil
		})
		if err == nil {
			err = tx.Update(w.tellers, tid, func(r []byte) ([]byte, error) {
				return tpcbSetBalance(r, tpcbBalance(r)+delta), nil
			})
		}
		if err == nil {
			err = tx.Update(w.branches, b, func(r []byte) ([]byte, error) {
				return tpcbSetBalance(r, tpcbBalance(r)+delta), nil
			})
		}
		if err == nil {
			hid := w.historySeq.Add(1)
			err = tx.Insert(w.history, hid, tpcbRow(hid, delta))
		}
		if err != nil {
			c.AbortTxn(tx)
			if IsDeadlock(err) {
				return nil // routine victim, already counted
			}
			return err
		}
		c.CommitTxn(tx)
		return nil
	}
}

// ConsistencyCheck verifies TPC-B's invariant: the sum of account
// balances equals the sum of teller balances equals the sum of branch
// balances (all started at zero and every transaction moves the same
// delta through all three).
func (w *TPCB) ConsistencyCheck(eng *txn.Engine) error {
	ag := eng.NewAgent()
	defer ag.Close()
	tx := ag.Begin()
	defer tx.Commit(txn.CommitSync, nil)

	sumTable := func(t *txn.Table, n uint64) (int64, error) {
		var sum int64
		for k := uint64(1); k <= n; k++ {
			row, err := tx.Read(t, k)
			if err != nil {
				return 0, fmt.Errorf("workload: consistency read %s/%d: %w", t.Name, k, err)
			}
			sum += tpcbBalance(row)
		}
		return sum, nil
	}
	bSum, err := sumTable(w.branches, uint64(w.Branches))
	if err != nil {
		return err
	}
	tSum, err := sumTable(w.tellers, uint64(w.Branches*TellersPerBranch))
	if err != nil {
		return err
	}
	aSum, err := sumTable(w.accounts, uint64(w.Branches*w.AccountsPerBranch))
	if err != nil {
		return err
	}
	if bSum != tSum || tSum != aSum {
		return fmt.Errorf("workload: TPC-B invariant violated: branches=%d tellers=%d accounts=%d",
			bSum, tSum, aSum)
	}
	return nil
}
