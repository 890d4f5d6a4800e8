package logdev

import (
	"errors"
	"fmt"
	"io"
)

// ErrNotArchived is returned by RemoteArchiver.Retrieve for a segment
// the cold store does not hold a valid object for.
var ErrNotArchived = errors.New("logdev: segment not archived")

// RestoreRange reads the archived log bytes covering [from, to) from a,
// whose segments are segSize bytes each. Only the newest contiguous run
// of archived segments ending at `to` is restorable: if the oldest
// requested bytes are missing — because from predates the archive, or
// because a hole interrupts it — the range is clamped up and the
// returned start is the first offset of that contiguous run, with data
// holding [start, to). Callers needing record-aligned output must
// treat start > from as "older history unavailable" (a segment
// boundary is not a record boundary); RemoteArchiver.Segments still
// lists any orphaned segments stranded below a hole.
func RestoreRange(a *RemoteArchiver, segSize, from, to int64) (data []byte, start int64, err error) {
	if segSize <= 0 {
		return nil, 0, fmt.Errorf("logdev: restore: segment size %d", segSize)
	}
	if from < 0 {
		from = 0
	}
	if from >= to {
		return nil, to, nil
	}
	have, err := a.Segments()
	if err != nil {
		return nil, 0, fmt.Errorf("logdev: restore: %w", err)
	}
	present := make(map[int64]bool, len(have))
	for _, idx := range have {
		present[idx] = true
	}
	firstIdx, lastIdx := from/segSize, (to-1)/segSize
	// Walk from the newest needed segment down: the first gap bounds
	// how far back history can be restored contiguously.
	startIdx := firstIdx
	for idx := lastIdx; idx >= firstIdx; idx-- {
		if !present[idx] {
			if idx == lastIdx {
				return nil, to, nil // nothing restorable in range
			}
			startIdx = idx + 1
			break
		}
	}
	start = startIdx * segSize
	if start < from {
		start = from
	}
	data = make([]byte, 0, to-start)
	for idx := startIdx; idx <= lastIdx; idx++ {
		seg, err := a.Retrieve(idx)
		if err != nil {
			return nil, 0, fmt.Errorf("logdev: restore segment %d: %w", idx, err)
		}
		if int64(len(seg)) != segSize {
			return nil, 0, fmt.Errorf("logdev: archived segment %d is %d bytes, want %d", idx, len(seg), segSize)
		}
		lo, hi := int64(0), segSize
		if segStart := idx * segSize; segStart < start {
			lo = start - segStart
		}
		if segStart := idx * segSize; segStart+segSize > to {
			hi = to - segStart
		}
		data = append(data, seg[lo:hi]...)
	}
	return data, start, nil
}

// RestoreLog returns the log bytes [start, durable end), stitching
// archived history below the hot log to the live bytes on the device.
// start is `from` itself when the archive and the device cover it
// contiguously; otherwise the truncation base — the oldest
// record-aligned offset the hot log guarantees. (Archived segment
// boundaries are not record boundaries, so partially restorable
// history cannot be handed to a record iterator; rather than return
// bytes that begin mid-record, RestoreLog falls back to the base.)
// from itself must be a record boundary: 0, the base, or an LSN a
// previous call returned.
//
// The whole operation — draining pending dead segments to arch (when
// non-nil), then reading — runs under the archive mutex: a concurrent
// truncation can park segments mid-restore (they stay readable on the
// device) but never recycle one out from under the read.
func (s *Segmented) RestoreLog(arch *RemoteArchiver, from int64) ([]byte, int64, error) {
	if from < 0 {
		from = 0
	}
	s.archMu.Lock()
	defer s.archMu.Unlock()
	if arch != nil && !s.readOnly {
		if _, err := s.archivePendingLocked(); err != nil {
			return nil, 0, fmt.Errorf("logdev: draining pending segments: %w", err)
		}
	}
	s.mu.Lock()
	durable := s.durable
	base := s.base
	// The device's oldest physically-present byte: live segments plus
	// any dead segments still parked for the archiver (readable through
	// the pending fallback) — a failed or read-only drain must not cost
	// the restore their bytes.
	liveStart := s.size
	for idx := range s.segs {
		if o := idx * s.segSize; o < liveStart {
			liveStart = o
		}
	}
	for idx := range s.pending {
		if o := idx * s.segSize; o < liveStart {
			liveStart = o
		}
	}
	s.mu.Unlock()
	if from > durable {
		from = durable
	}
	start := from
	var archData []byte
	if from < liveStart {
		if arch != nil {
			var err error
			archData, start, err = RestoreRange(arch, s.segSize, from, liveStart)
			if err != nil {
				return nil, 0, err
			}
		} else {
			start = liveStart
		}
	}
	if start > from {
		// The archive cannot reach back to from: anything it could
		// restore would begin mid-record at a segment boundary. Hand
		// back the hot log from its record-aligned base instead.
		archData, start = nil, base
	}
	rawFrom := liveStart
	if start > rawFrom {
		rawFrom = start
	}
	live := make([]byte, durable-rawFrom)
	for off := rawFrom; off < durable; {
		n, err := s.RawReadAt(live[off-rawFrom:], off)
		off += int64(n)
		if err != nil {
			if err == io.EOF && off == durable {
				break
			}
			return nil, 0, err
		}
	}
	return append(archData, live...), start, nil
}
