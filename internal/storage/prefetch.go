package storage

// This file is the buffer pool's read-ahead half (Layer 2 of the
// concurrent-I/O spine): detect sequential fault patterns — table scans,
// RebuildTables' restart walk, recovery redo — and stream the next pages
// in from the backend *before* demand arrives, so a cold scan's faults
// become cache hits riding a pipeline of overlapping preads instead of
// a chain of synchronous round-trips.
//
// Design rules, in order of importance:
//
//  1. Prefetch never harms the working set. Frames are reserved and
//     installed the way demand faults do it (reserveFrame, install),
//     against the same CachePages budget, but the reservation may not
//     steal: a prefetch that would have to write a dirty page back — an
//     fsync on somebody's behalf for a page nobody asked for yet — is
//     dropped instead. Prefetched pages are installed unpinned with the
//     reference bit CLEAR, so an unconsumed prefetch is the clock's
//     first victim, never a squatter.
//  2. Bounded and backpressured. At most PrefetchDepth reads are in
//     flight (prefetchSem); when the pipeline is full, further window
//     issues are dropped, not queued — the demand fault path remains
//     the authority and will simply read the page itself.
//  3. Adaptive. A stream's window starts at 4 pages and doubles with
//     its run length up to PrefetchDepth (the Linux-readahead ramp), so
//     a short burst costs a few reads while a long scan fills the whole
//     pipeline. Prefetch HITS feed back into the tracker exactly like
//     faults, keeping the window open when prefetch succeeds so well
//     that demand misses disappear.
//
// The tracker holds pfStreams concurrent streams, so interleaved scans
// (or a scan racing a random-access writer) don't destroy each other's
// run detection: a non-matching access replaces only the least-recently
// advanced slot.

// pfStreams is how many concurrent sequential streams the read-ahead
// tracker distinguishes.
const pfStreams = 4

// pfMinWindow is the initial read-ahead window of a freshly confirmed
// stream (two sequential accesses).
const pfMinWindow = 4

// pfStream tracks one suspected sequential access stream.
type pfStream struct {
	last  uint64 // last page ID accessed in this stream
	run   int    // consecutive sequential accesses observed
	ahead uint64 // highest page ID already submitted for read-ahead
	tick  uint64 // tracker clock at last advance (replacement policy)
}

// SetPrefetch enables sequential read-ahead with at most depth pages
// ahead of demand (0 disables). Call it once at setup, before the store
// is shared between goroutines.
func (s *Store) SetPrefetch(depth int) {
	if depth < 0 {
		depth = 0
	}
	s.prefetchDepth = depth
	if depth > 0 {
		s.prefetchSem = make(chan struct{}, depth)
	} else {
		s.prefetchSem = nil
	}
}

// noteAccess feeds one page access (a demand miss, or a hit on a
// prefetched page) into the stream tracker, and issues the next
// read-ahead window if the access extends a sequential run. Cheap when
// prefetch is off (one comparison); O(pfStreams) map-free work under
// pfMu otherwise.
func (s *Store) noteAccess(pid uint64) {
	if s.prefetchDepth <= 0 {
		return
	}
	s.pfMu.Lock()
	s.pfTick++
	var st *pfStream
	for i := range s.streams {
		if s.streams[i].last+1 == pid || s.streams[i].last == pid {
			st = &s.streams[i]
			break
		}
	}
	if st == nil {
		// No stream claims this access: recycle the least-recently
		// advanced slot. run starts at 1 — a single access proves
		// nothing; the window opens on the *next* sequential hit.
		lru := &s.streams[0]
		for i := range s.streams {
			if s.streams[i].tick < lru.tick {
				lru = &s.streams[i]
			}
		}
		*lru = pfStream{last: pid, run: 1, ahead: pid, tick: s.pfTick}
		s.pfMu.Unlock()
		return
	}
	if st.last+1 == pid {
		st.run++
	}
	st.last = pid
	st.tick = s.pfTick
	if st.run < 2 {
		s.pfMu.Unlock()
		return
	}
	// Ramp the window with the run: 4, 8, 16, ... capped at the depth —
	// and at half the frame budget. Read-ahead deeper than the pool can
	// hold is self-defeating: unconsumed prefetched frames are the
	// clock's first victims, so a window wider than the pool evicts its
	// own pages before demand reaches them (and a scan's working set
	// still needs the other half of the frames).
	depth := s.prefetchDepth
	if s.budget > 0 && int64(depth) > s.budget/2 {
		depth = int(s.budget / 2)
	}
	win := pfMinWindow << uint(st.run-2)
	if win <= 0 || win > depth {
		win = depth
	}
	lo := pid + 1
	if st.ahead+1 > lo {
		lo = st.ahead + 1
	}
	hi := pid + uint64(win)
	if hi > st.ahead {
		st.ahead = hi
	}
	s.pfMu.Unlock()
	for q := lo; q <= hi; q++ {
		select {
		case s.prefetchSem <- struct{}{}:
			go s.prefetchOne(q)
		default:
			// Pipeline full: drop the rest of the window. The dropped
			// pages are not re-issued (ahead already covers them) — if
			// demand reaches them first it faults normally, advancing
			// the stream past them.
			return
		}
	}
}

// prefetchOne reads one page from the backend and installs it through
// the demand fault's install, unpinned, reference bit clear, prefetched
// flag set — or gives up silently: a prefetch is a hint, and every
// failure mode (resident already, absent from the backend, no clean
// frame available, read or validation error) is handled by the demand
// fault that may follow.
func (s *Store) prefetchOne(pid uint64) {
	defer func() { <-s.prefetchSem }()
	sh := s.shard(pid)
	sh.mu.RLock()
	_, resident := sh.pages[pid]
	sh.mu.RUnlock()
	if resident || !s.backend.Contains(pid) || !s.reserveFrame(false) {
		return
	}
	s.install(pid, readAhead)
}

// notePrefetchHit consumes a page's prefetched flag on its first demand
// access: counts the hit and feeds the access back into the stream
// tracker (a consumed prefetch extends the run exactly like a miss
// would, keeping the pipeline ahead of a scan that no longer misses).
func (s *Store) notePrefetchHit(p *Page, pid uint64) {
	if p != nil && p.prefetched.CompareAndSwap(true, false) {
		s.prefetchHits.Add(1)
		s.noteAccess(pid)
	}
}
