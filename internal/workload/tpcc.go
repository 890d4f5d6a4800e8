package workload

import (
	"encoding/binary"
	"slices"
	"sync/atomic"

	"aether/internal/txn"
)

// TPCC is the TPC-C subset (NewOrder + Payment) used to generate the
// inter-log dependency trace of Appendix A.5 / Figure 13. It is not a
// compliant TPC-C implementation — it exists to produce a realistic log:
// hot pages (warehouse and district rows), medium pages (customer,
// stock) and append streams (orders, order lines, history), with the
// page-sharing pattern that makes a distributed log intractable.
type TPCC struct {
	// Warehouses is the scale factor.
	Warehouses int
	// DistrictsPerWarehouse is fixed at 10 by the spec.
	DistrictsPerWarehouse int
	// CustomersPerDistrict (spec: 3000; tests shrink).
	CustomersPerDistrict int
	// ItemsPerWarehouse models the stock table (spec: 100_000; shrunk).
	ItemsPerWarehouse int

	warehouse *txn.Table
	district  *txn.Table
	customer  *txn.Table
	stock     *txn.Table
	orders    *txn.Table
	orderLine *txn.Table
	history   *txn.Table

	orderSeq   atomic.Uint64
	historySeq atomic.Uint64
}

// NewTPCC returns a small-scale TPC-C subset.
func NewTPCC() *TPCC {
	return &TPCC{
		Warehouses:            4,
		DistrictsPerWarehouse: 10,
		CustomersPerDistrict:  300,
		ItemsPerWarehouse:     1000,
	}
}

func tpccRow(key uint64, size int) []byte {
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b[0:8], key)
	return b
}

func (w *TPCC) dKey(wid, did int) uint64 { return uint64(wid)*100 + uint64(did) }
func (w *TPCC) cKey(wid, did, cid int) uint64 {
	return uint64(wid)*10_000_000 + uint64(did)*100_000 + uint64(cid)
}
func (w *TPCC) sKey(wid, iid int) uint64 { return uint64(wid)*1_000_000 + uint64(iid) }

// Setup creates the tables and loads warehouses, districts, customers
// and stock; orders, order lines and history start empty.
func (w *TPCC) Setup(eng *txn.Engine) error {
	return load(eng, []table{
		{"tpcc_warehouse", &w.warehouse},
		{"tpcc_district", &w.district},
		{"tpcc_customer", &w.customer},
		{"tpcc_stock", &w.stock},
		{"tpcc_orders", &w.orders},
		{"tpcc_order_line", &w.orderLine},
		{"tpcc_history", &w.history},
	}, func(put put) {
		for wid := 1; wid <= w.Warehouses; wid++ {
			put(w.warehouse, uint64(wid), tpccRow(uint64(wid), 96))
			for did := 1; did <= w.DistrictsPerWarehouse; did++ {
				put(w.district, w.dKey(wid, did), tpccRow(w.dKey(wid, did), 96))
				for cid := 1; cid <= w.CustomersPerDistrict; cid++ {
					put(w.customer, w.cKey(wid, did, cid), tpccRow(w.cKey(wid, did, cid), 128))
				}
			}
			for iid := 1; iid <= w.ItemsPerWarehouse; iid++ {
				put(w.stock, w.sKey(wid, iid), tpccRow(w.sKey(wid, iid), 64))
			}
		}
	})
}

// Body returns the driver body: 50% NewOrder, 50% Payment (the two
// transactions dominating TPC-C's log traffic).
func (w *TPCC) Body() Body {
	return func(c *Client) error {
		wid := c.Rng.Intn(w.Warehouses) + 1
		did := c.Rng.Intn(w.DistrictsPerWarehouse) + 1
		cid := c.Rng.Intn(w.CustomersPerDistrict) + 1
		tx := c.Agent.Begin()
		var err error
		if c.Rng.Intn(2) == 0 {
			err = w.newOrder(c, tx, wid, did, cid)
		} else {
			err = w.payment(c, tx, wid, did, cid)
		}
		if err != nil {
			c.AbortTxn(tx)
			if IsDeadlock(err) {
				return nil
			}
			return err
		}
		c.CommitTxn(tx)
		return nil
	}
}

func (w *TPCC) newOrder(c *Client, tx *txn.Txn, wid, did, cid int) error {
	if _, err := tx.Read(w.warehouse, uint64(wid)); err != nil {
		return err
	}
	// District next-order-id bump: the hot update.
	if err := tx.Update(w.district, w.dKey(wid, did), func(r []byte) ([]byte, error) {
		out := append([]byte(nil), r...)
		binary.LittleEndian.PutUint32(out[8:12], binary.LittleEndian.Uint32(r[8:12])+1)
		return out, nil
	}); err != nil {
		return err
	}
	if _, err := tx.Read(w.customer, w.cKey(wid, did, cid)); err != nil {
		return err
	}
	oid := w.orderSeq.Add(1)
	if err := tx.Insert(w.orders, oid, tpccRow(oid, 48)); err != nil {
		return err
	}
	// Stock rows go in key order: after warehouse, district and customer
	// (payment's order too), every lock is taken in one total order.
	stock := make([]uint64, 5+c.Rng.Intn(11))
	for l := range stock {
		iid := c.Rng.Intn(w.ItemsPerWarehouse) + 1
		// 1% remote warehouse, per spec — the cross-log dependency source.
		swid := wid
		if w.Warehouses > 1 && c.Rng.Intn(100) == 0 {
			swid = c.Rng.Intn(w.Warehouses) + 1
		}
		stock[l] = w.sKey(swid, iid)
	}
	slices.Sort(stock)
	for l, sk := range stock {
		if err := tx.Update(w.stock, sk, func(r []byte) ([]byte, error) {
			out := append([]byte(nil), r...)
			binary.LittleEndian.PutUint32(out[8:12], binary.LittleEndian.Uint32(r[8:12])+1)
			return out, nil
		}); err != nil {
			return err
		}
		olk := oid*16 + uint64(l)
		if err := tx.Insert(w.orderLine, olk, tpccRow(olk, 56)); err != nil {
			return err
		}
	}
	return nil
}

func (w *TPCC) payment(c *Client, tx *txn.Txn, wid, did, cid int) error {
	if err := tx.Update(w.warehouse, uint64(wid), func(r []byte) ([]byte, error) {
		out := append([]byte(nil), r...)
		binary.LittleEndian.PutUint64(out[8:16], binary.LittleEndian.Uint64(r[8:16])+100)
		return out, nil
	}); err != nil {
		return err
	}
	if err := tx.Update(w.district, w.dKey(wid, did), func(r []byte) ([]byte, error) {
		out := append([]byte(nil), r...)
		binary.LittleEndian.PutUint64(out[16:24], binary.LittleEndian.Uint64(r[16:24])+100)
		return out, nil
	}); err != nil {
		return err
	}
	if err := tx.Update(w.customer, w.cKey(wid, did, cid), func(r []byte) ([]byte, error) {
		out := append([]byte(nil), r...)
		binary.LittleEndian.PutUint64(out[16:24], binary.LittleEndian.Uint64(r[16:24])-100)
		return out, nil
	}); err != nil {
		return err
	}
	hid := w.historySeq.Add(1)
	return tx.Insert(w.history, hid, tpccRow(hid, 48))
}
