package workload

import (
	"encoding/binary"

	"aether/internal/txn"
)

// TATP models the telecom benchmark the paper uses for its most
// log-intensive experiments (§6.2, §6.4): seven very small transactions
// over a subscriber database. Small transactions at high rate stress
// logging and locking exactly as the paper describes. The paper uses
// 100K subscribers; tests shrink it.
type TATP struct {
	// Subscribers is the scale factor (paper: 100_000).
	Subscribers int
	// UpdateLocationOnly restricts the mix to the UpdateLocation
	// transaction, as Figures 7 and 9 do.
	UpdateLocationOnly bool

	subscriber *txn.Table // s_id → subscriber row
	accessInfo *txn.Table // s_id*4 + ai_type → access info row
	specialFac *txn.Table // s_id*4 + sf_type → special facility row
	callFwd    *txn.Table // s_id*128 + sf_type*32 + start_time → call forwarding row
}

// TATP row: key(8) | payload. Sizes chosen to keep log records near the
// paper's observed 40–264B peaks.
func tatpRow(key uint64, size int, fill byte) []byte {
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b[0:8], key)
	for i := 8; i < size; i++ {
		b[i] = fill
	}
	return b
}

// Key composition for the satellite tables.
func aiKey(sid uint64, aiType int) uint64 { return sid*4 + uint64(aiType) }
func sfKey(sid uint64, sfType int) uint64 { return sid*4 + uint64(sfType) }
func cfKey(sid uint64, sfType, startTime int) uint64 {
	return sid*128 + uint64(sfType)*32 + uint64(startTime)
}

// Setup creates and populates the four TATP tables per the spec's
// cardinalities (1–4 access infos and special facilities per subscriber,
// 0–3 call forwardings per special facility), then checkpoints.
func (w *TATP) Setup(eng *txn.Engine) error {
	if w.Subscribers <= 0 {
		w.Subscribers = 10000
	}
	return load(eng, []table{
		{"tatp_subscriber", &w.subscriber},
		{"tatp_access_info", &w.accessInfo},
		{"tatp_special_facility", &w.specialFac},
		{"tatp_call_forwarding", &w.callFwd},
	}, func(put put) {
		// Deterministic pseudo-random cardinalities (reproducible loads).
		next := tatpCardinalities()
		for s := 1; s <= w.Subscribers; s++ {
			sid := uint64(s)
			put(w.subscriber, sid, tatpRow(sid, 96, 0x5A))
			for ai := 0; ai <= next(4); ai++ {
				put(w.accessInfo, aiKey(sid, ai), tatpRow(aiKey(sid, ai), 40, 0xA1))
			}
			for sf := 0; sf <= next(4); sf++ {
				put(w.specialFac, sfKey(sid, sf), tatpRow(sfKey(sid, sf), 40, 0xB2))
				for cf := 0; cf < next(4); cf++ {
					k := cfKey(sid, sf, cf*8)
					put(w.callFwd, k, tatpRow(k, 40, 0xC3))
				}
			}
		}
	})
}

// tatpCardinalities returns the xorshift stream that draws the load's
// per-subscriber row counts: next(n) is in [0, n).
func tatpCardinalities() func(n int) int {
	h := uint64(88172645463325252)
	return func(n int) int {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		return int(h % uint64(n))
	}
}

// Body returns the driver body running the standard TATP mix
// (GetSubscriberData 35%, GetNewDestination 10%, GetAccessData 35%,
// UpdateSubscriberData 2%, UpdateLocation 14%, InsertCallForwarding 2%,
// DeleteCallForwarding 2%), or UpdateLocation only.
func (w *TATP) Body() Body {
	return func(c *Client) error {
		sid := uint64(c.Rng.Intn(w.Subscribers) + 1)
		var kind int
		if w.UpdateLocationOnly {
			kind = 4
		} else {
			p := c.Rng.Intn(100)
			switch {
			case p < 35:
				kind = 0
			case p < 45:
				kind = 1
			case p < 80:
				kind = 2
			case p < 82:
				kind = 3
			case p < 96:
				kind = 4
			case p < 98:
				kind = 5
			default:
				kind = 6
			}
		}
		tx := c.Agent.Begin()
		var err error
		switch kind {
		case 0: // GetSubscriberData (read-only)
			_, err = tx.Read(w.subscriber, sid)
		case 1: // GetNewDestination (read-only, may miss)
			sf := c.Rng.Intn(4)
			if _, e := tx.Read(w.specialFac, sfKey(sid, sf)); e == nil {
				_, _ = tx.Read(w.callFwd, cfKey(sid, sf, c.Rng.Intn(3)*8))
			}
		case 2: // GetAccessData (read-only, may miss)
			_, _ = tx.Read(w.accessInfo, aiKey(sid, c.Rng.Intn(4)))
		case 3: // UpdateSubscriberData: subscriber bit + special facility
			err = tx.Update(w.subscriber, sid, func(r []byte) ([]byte, error) {
				out := append([]byte(nil), r...)
				out[16] = byte(c.Rng.Intn(2))
				return out, nil
			})
			if err == nil {
				e := tx.Update(w.specialFac, sfKey(sid, c.Rng.Intn(4)), func(r []byte) ([]byte, error) {
					out := append([]byte(nil), r...)
					out[17] = byte(c.Rng.Intn(256))
					return out, nil
				})
				// Missing special facility rows are a spec-expected miss.
				if e != nil && e != txn.ErrKeyNotFound && !IsDeadlock(e) {
					err = e
				} else if IsDeadlock(e) {
					err = e
				}
			}
		case 4: // UpdateLocation — the log-intensive hot transaction
			err = tx.Update(w.subscriber, sid, func(r []byte) ([]byte, error) {
				out := append([]byte(nil), r...)
				binary.LittleEndian.PutUint32(out[24:28], c.Rng.Uint32())
				return out, nil
			})
		case 5: // InsertCallForwarding
			if _, e := tx.Read(w.subscriber, sid); e != nil {
				err = e
			} else {
				k := cfKey(sid, c.Rng.Intn(4), c.Rng.Intn(3)*8)
				e := tx.Insert(w.callFwd, k, tatpRow(k, 40, 0xC3))
				if e != nil && e != txn.ErrDuplicateKey && !IsDeadlock(e) {
					err = e
				} else if IsDeadlock(e) {
					err = e
				}
			}
		case 6: // DeleteCallForwarding
			k := cfKey(sid, c.Rng.Intn(4), c.Rng.Intn(3)*8)
			e := tx.Delete(w.callFwd, k)
			if e != nil && e != txn.ErrKeyNotFound && !IsDeadlock(e) {
				err = e
			} else if IsDeadlock(e) {
				err = e
			}
		}
		if err != nil {
			c.AbortTxn(tx)
			if IsDeadlock(err) || err == txn.ErrKeyNotFound {
				return nil
			}
			return err
		}
		c.CommitTxn(tx)
		return nil
	}
}
