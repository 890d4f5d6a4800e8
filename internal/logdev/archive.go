package logdev

import (
	"errors"
	"fmt"
	"io"
)

// ErrNotArchived is returned by RemoteArchiver.Retrieve for a segment
// the cold store does not hold a valid object for.
var ErrNotArchived = errors.New("logdev: segment not archived")

// restoreRange reads the archived log bytes covering [from, to) from a,
// whose segments are segSize bytes each, one download per segment. A
// segment of the range the cold store does not hold is ErrNotArchived:
// history below a hole cannot be handed to a record iterator anyway (a
// segment boundary is not a record boundary).
func restoreRange(a *RemoteArchiver, segSize, from, to int64) ([]byte, error) {
	if segSize <= 0 {
		return nil, fmt.Errorf("logdev: restore: segment size %d", segSize)
	}
	from = max(from, 0)
	data := make([]byte, 0, max(to-from, 0))
	for idx := from / segSize; from < to && idx*segSize < to; idx++ {
		seg, err := a.Retrieve(idx)
		if err != nil {
			return nil, fmt.Errorf("logdev: restore segment %d: %w", idx, err)
		}
		if int64(len(seg)) != segSize {
			return nil, fmt.Errorf("logdev: archived segment %d is %d bytes, want %d", idx, len(seg), segSize)
		}
		lo, hi := max(from-idx*segSize, 0), min(to-idx*segSize, segSize)
		data = append(data, seg[lo:hi]...)
	}
	return data, nil
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
// The whole operation — draining dead segments to arch (when non-nil),
// then reading — runs under the archive mutex, which the drain takes: a
// concurrent truncation can kill segments mid-restore (they stay
// readable on the device) but never recycle one out from under the read.
func (s *Segmented) RestoreLog(arch *RemoteArchiver, from int64) ([]byte, int64, error) {
	s.archMu.Lock()
	defer s.archMu.Unlock()
	if arch != nil && !s.readOnly {
		if _, err := s.drainLocked(s.Base()); err != nil {
			return nil, 0, fmt.Errorf("logdev: draining dead segments: %w", err)
		}
	}
	s.mu.Lock()
	durable := s.durable
	base := s.base
	// The device's oldest physically-present byte, dead segments included:
	// a failed or read-only drain must not cost the restore their bytes.
	liveStart := s.size
	for idx := range s.segs {
		liveStart = min(liveStart, idx*s.segSize)
	}
	s.mu.Unlock()
	from = min(max(from, 0), durable)
	start := from
	var archData []byte
	if from < liveStart {
		err := ErrNotArchived
		if arch != nil {
			archData, err = restoreRange(arch, s.segSize, from, liveStart)
		}
		if errors.Is(err, ErrNotArchived) {
			// The archive cannot reach back to from: what it holds would
			// begin mid-record at a segment boundary. Hand back the hot
			// log from its record-aligned base instead.
			archData, start, err = nil, base, nil
		}
		if err != nil {
			return nil, 0, err
		}
	}
	rawFrom := max(liveStart, start)
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
