// seal.go is how a lane vouches for what it hardens. No record carries a
// checksum; instead every batch the flush daemon hardens ends in a seal
// (logrec.PutSeal), a record whose Aux is the batch's length and whose
// payload is its CRC-32C, which recovery checks before it replays a byte
// of the batch. A seal is inserted through the log buffer's one insert
// path like any record, so it takes an address in the lane's stream:
//
//   - the daemon seals everything inserted so far at the start of each
//     flush, and hardens to the newest seal the release has reached that
//     starts at or below its clamp — so every durable end, and every base
//     Truncate leaves, is a seal's end, where a batch starts;
//   - on N >= 2 lanes, an append that must wait on an inter-log edge
//     first seals what precedes it, so a flush clamped at that record can
//     still harden everything before it (the progress argument of
//     multilog.go needs a seal at every clamp point).
//
// A seal's length field depends on where it lands, so it is built under
// the buffer's mutex (logbuf.Inserter.InsertAt) and recorded in the
// lane's sealBook there, before anybody can flush past it. Its CRC is
// finished by the daemon in the ring itself, just before it writes the
// batch to the device from there (finishSeals): only the daemon reads
// released ring bytes, and no insert writes them again before the
// daemon hands their space back.
package core

import (
	"sync"

	"aether/internal/logbuf"
	"aether/internal/logrec"
	"aether/internal/lsn"
)

// The daemon's seal always fits the room the ring keeps for it.
const _ = uint(logbuf.ReaderRoom - logrec.MaxSealSize)

// sealMark is one seal in a lane's stream: its address and its end.
type sealMark struct{ at, end lsn.LSN }

// sealBook is a lane's record of its seals: where the newest one ends
// and which are not yet hardened, in LSN order.
type sealBook struct {
	mu      sync.Mutex
	last    lsn.LSN    // the newest seal's end; the lane's base before any
	pending []sealMark // inserted, not yet hardened
}

// sealer inserts a lane's seals through one insert handle, which it owns:
// the daemon's is the buffer reader's (it may use the ring's ReaderRoom),
// an N-lane partition's an ordinary one used under its append lock.
type sealer struct {
	lm    *LogManager
	ins   *logbuf.Inserter
	buf   [logrec.MaxSealSize]byte
	empty func(lsn.LSN) bool   // sealed, bound once so a seal allocates nothing
	build func(lsn.LSN) []byte // encode, likewise
}

func newSealer(lm *LogManager, ins *logbuf.Inserter) *sealer {
	s := &sealer{lm: lm, ins: ins}
	s.empty, s.build = s.sealed, s.encode
	return s
}

// seal closes everything inserted on the lane so far with a seal, unless
// the newest record already is one, and returns the newest seal's end.
//
// The daemon's seal never waits for ring space: every other insert
// leaves ReaderRoom bytes free, so while anything is unsealed the room
// is there, and when nothing is — a pass clamped below its own seal left
// that seal in the room — there is nothing to insert.
func (s *sealer) seal() (lsn.LSN, error) {
	if _, err := s.ins.InsertAt(logrec.MaxSealSize, s.empty, s.build); err != nil {
		return 0, err
	}
	b := &s.lm.seals
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.last, nil
}

// sealed reports whether the newest record before at is a seal, under the
// buffer's mutex: then there is nothing to seal.
func (s *sealer) sealed(at lsn.LSN) bool {
	b := &s.lm.seals
	b.mu.Lock()
	defer b.mu.Unlock()
	return at == b.last
}

// encode builds the seal for address at, past at least one unsealed
// byte; it runs under the buffer's mutex, so the seal is in the book
// before any flush can reach it. Its CRC is left zero for the daemon to
// finish.
func (s *sealer) encode(at lsn.LSN) []byte {
	b := &s.lm.seals
	b.mu.Lock()
	defer b.mu.Unlock()
	k := logrec.PutSeal(s.buf[:], int(at.Sub(b.last)), 0)
	b.last = at.Add(k)
	b.pending = append(b.pending, sealMark{at: at, end: b.last})
	s.lm.stats.InsertBytes.Add(int64(k))
	return s.buf[:k]
}

// hardenable copies into dst the pending seals a flush may harden through
// and returns them: those that end at or below released and start at or
// below limit, the flush clamp. A seal holds no record, so one that starts
// at the clamp hardens nothing the clamp holds back. The newest one's end
// is how far the flush hardens.
func (b *sealBook) hardenable(dst []sealMark, limit, released lsn.LSN) []sealMark {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, m := range b.pending {
		if m.at > limit || m.end > released {
			break
		}
		dst = append(dst, m)
	}
	return dst
}

// hardened forgets the pending seals at or below end.
func (b *sealBook) hardened(end lsn.LSN) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i := 0
	for i < len(b.pending) && b.pending[i].end <= end {
		i++
	}
	b.pending = append(b.pending[:0], b.pending[i:]...)
}

// finishSeals writes the CRC of each batch into the seal that closes it,
// in the ring, where rd holds the released bytes from start on. start is
// a seal's end (or the lane's base), where the first batch begins, and
// seals are the seals that follow it, in order. A batch, and a seal's
// CRC, may wrap past the ring's physical end.
func finishSeals(rd *logbuf.Reader, start lsn.LSN, seals []sealMark) {
	from := start
	for _, m := range seals {
		a, b := rd.Spans(from, m.at)
		crc := logrec.BatchCRCUpdate(logrec.BatchCRC(a), b)
		var sum [logrec.SealCRCSize]byte
		logrec.PutSealCRC(sum[:], crc)
		a, b = rd.Spans(m.end.Add(-len(sum)), m.end)
		copy(b, sum[copy(a, sum[:]):])
		from = m.end
	}
}

// sealEnds is a bounded list of hardened seals, ascending, the base
// always first and the newest always last: where Truncate may cut the
// log, so a lane's base is always a batch's start. A new seal is recorded
// only gap bytes past the one before the newest (else the newest moves
// up). When the list fills it keeps every other seal, the base among
// them, and doubles gap; when a cut drops seals, gap is set anew from the
// live log they leave, a 1/maxSealEnds share of it. So a cut lands a few
// percent of the live log below its target, the live log of now rather
// than the largest there ever was.
type sealEnds struct {
	seals []sealMark
	gap   uint64
}

const maxSealEnds = 64

func newSealEnds(base, durable lsn.LSN) sealEnds {
	e := sealEnds{seals: make([]sealMark, 0, maxSealEnds), gap: 1}
	e.seals = append(e.seals, sealMark{at: base, end: base})
	if durable > base {
		e.seals = append(e.seals, sealMark{at: durable, end: durable})
	}
	return e
}

// add records a hardened seal above every one recorded.
func (e *sealEnds) add(m sealMark) {
	n := len(e.seals)
	if n >= 2 && uint64(m.end.Sub(e.seals[n-2].end)) < e.gap {
		e.seals[n-1] = m
		return
	}
	if n == maxSealEnds {
		k := 0
		for i := 0; i < n; i += 2 {
			e.seals[k] = e.seals[i]
			k++
		}
		e.seals = e.seals[:k]
		e.gap *= 2
	}
	e.seals = append(e.seals, m)
}

// floor returns where the log may be cut for a horizon at: the end of the
// newest recorded seal that starts at or below it — no record lies in a
// seal, so cutting past one that starts at the horizon releases nothing
// the horizon keeps — and drops every seal below that one.
func (e *sealEnds) floor(at lsn.LSN) lsn.LSN {
	i := 0
	for i+1 < len(e.seals) && e.seals[i+1].at <= at {
		i++
	}
	if i > 0 {
		e.seals = append(e.seals[:0], e.seals[i:]...)
		live := uint64(e.seals[len(e.seals)-1].end.Sub(e.seals[0].end))
		e.gap = max(1, live/maxSealEnds)
	}
	return e.seals[0].end
}
