package storage

import (
	"fmt"
	"sort"

	"aether/internal/logrec"
	"aether/internal/lsn"
)

// This file is the background page cleaner's half of the buffer pool
// (the DB2 page-cleaner / Shore-MT bf_cleaner idea): write dirty, cold
// pages back to the archive *ahead of demand*, so the clock hand almost
// always finds clean victims and eviction degenerates to a frame drop.
// Without it, every fault arriving at a pool full of dirty pages pays
// for a demand steal — a log force plus an archive batch — on
// its own critical path.
//
// The cleaner preserves the same WAL ordering the steal path does, as
// one batch (fsync invariant 5b in ARCHITECTURE.md): force the log up
// to the batch's highest pageLSN, write every image to the backend as
// one batch, and only then mark pages clean — each step ordered after
// the previous one. Pages re-dirtied mid-pass stay in the dirty-page
// table; the write was wasted, not wrong.

// SetStealNotify registers fn to be invoked whenever a demand steal
// happens — the signal that eviction pressure outran the background
// cleaner. fn must not block (the engine forwards it to a buffered,
// coalescing channel). Call once at setup, before the store is shared
// between goroutines.
func (s *Store) SetStealNotify(fn func()) { s.stealNotify = fn }

// NeedClean reports whether the pool is running out of cheap eviction
// victims: true when fewer than target frames are free or clean. It is
// the cleaner's trigger — approximate by design (the DPT may hold a few
// stale entries; counters are read without a global lock), which only
// ever makes the cleaner slightly eager or slightly lazy, never
// incorrect. Always false for an unbounded pool or one that cannot
// write pages back (no WAL hook).
func (s *Store) NeedClean(target int) bool {
	if s.budget <= 0 || s.wal == nil || target <= 0 {
		return false
	}
	resident := s.resident.Load()
	free := s.budget - resident
	s.dirtyMu.Lock()
	dirty := int64(len(s.dirty))
	s.dirtyMu.Unlock()
	clean := resident - dirty
	if clean < 0 {
		clean = 0
	}
	return free+clean < int64(target)
}

// CleanBatch pre-cleans up to max dirty resident pages: it claims cold
// (second-chance bit clear), unpinned victims first — they are the
// pages the clock will evict next — falling back to warm ones so a
// uniformly hot pool still makes progress, forces the log once up to
// the batch's highest pageLSN, and writes the batch back the way the
// sweep does (writeBack: one batch to the backend, O(1) archive fsyncs
// per pass, each page cleaned if its LSN is unchanged). It returns how
// many images it wrote. The per-page writeback latch serializes it
// against the demand-steal path and the checkpoint sweep, so a page's
// image is never written twice concurrently.
//
// A no-op (0, nil) for unbounded pools or stores without a WAL hook.
func (s *Store) CleanBatch(max int) (int, error) {
	if s.wal == nil || s.budget <= 0 || max <= 0 {
		return 0, nil
	}
	pids, claims, maxLSN := s.claimVictims(max)
	if len(claims) == 0 {
		return 0, nil
	}
	// Force once for the whole batch: each victim's pageLSN was at or
	// below the maximum when it was claimed, so the WAL rule (no image
	// ahead of the durable log) holds for every image the batch writes —
	// and a victim that has moved past the horizon since is left out
	// when its image is about to be copied.
	if err := s.wal.Force(maxLSN); err != nil {
		releaseClaims(claims)
		return 0, fmt.Errorf("storage: cleaner log force: %w", err)
	}
	wrote, _, err := s.writeBack(s.backend, pids, claims, s.wal.Durable())
	if err != nil {
		return 0, fmt.Errorf("storage: cleaner writeback: %w", err)
	}
	if wrote > 0 {
		s.cleanerWrites.Add(int64(wrote))
		s.cleanerPasses.Add(1)
	}
	return wrote, nil
}

// claimVictims picks up to max dirty pages for a cleaner pass, in
// preference order over a DPT snapshot:
//
//  1. cold (reference bit clear — next in line at the clock hand) pages
//     whose pageLSN the log already covers durably;
//  2. warm but durably-covered pages, to fill the batch;
//  3. only if that found nothing: pages whose pageLSN is beyond the
//     durable horizon, which will cost the pass a real log force.
//
// Preferring durably-covered victims keeps the cleaner's log Force a
// no-op in the steady state — it must not inject extra log fsyncs that
// serialize with foreground group commit; the freshest pages are also
// exactly the ones most likely to be re-dirtied, making their writeback
// the most likely to be wasted. Pages in active use (pinned by anyone
// but us) are skipped in every round for the same reason.
//
// Within each round candidates are visited in clock-hand order (the
// Shore-MT bf_cleaner discipline): the DPT snapshot is sorted by each
// page's distance ahead of the eviction clock's hand, so a
// capacity-bounded pass cleans exactly the pages eviction will reach
// next. Under skew this is what keeps steals rare — cleaning a dirty
// page the hand won't reach for another full rotation helps nobody,
// while the page one step ahead of the hand is the next demand steal.
//
// It returns the victims claimed (claims[i] owns pids[i]: pinned, its
// writeback latch held) and the highest pageLSN among them.
func (s *Store) claimVictims(max int) (pids []uint64, claims []wbClaim, maxLSN lsn.LSN) {
	claimed := make(map[uint64]struct{})
	dirty := s.orderByClockDistance(s.DirtyPages())

	round := func(wantCold bool, bound lsn.LSN) {
		for _, e := range dirty {
			if len(claims) >= max {
				return
			}
			if _, dup := claimed[e.PageID]; dup {
				continue
			}
			p, cold := s.pin(e.PageID, false)
			if p == nil {
				continue // stolen since the DPT snapshot
			}
			if (wantCold && !cold) || p.pins.Load() > 1 {
				p.Unpin()
				continue
			}
			if !p.wb.CompareAndSwap(false, true) {
				// A steal or the sweep owns this page's writeback.
				p.Unpin()
				continue
			}
			p.Latch.RLock()
			pl := p.LSN()
			p.Latch.RUnlock()
			if !s.isDirty(e.PageID) || pl > bound {
				// Cleaned since the DPT snapshot (a racing steal that
				// failed its final drop, or a sweep) — or too fresh for
				// this round's durability bound.
				p.wb.Store(false)
				p.Unpin()
				continue
			}
			pids = append(pids, e.PageID)
			claims = append(claims, wbClaim{page: p, lsn: lsn.Undefined})
			if pl > maxLSN {
				maxLSN = pl
			}
			claimed[e.PageID] = struct{}{}
		}
	}

	durable := s.wal.Durable()
	round(true, durable)
	round(false, durable)
	if len(claims) == 0 && s.NeedClean(1) {
		// Nothing durably covered AND not a single free-or-clean frame
		// left: the very next fault will steal. Fall back to fresh pages
		// — this pass's Force becomes a real log flush — rather than
		// devolve into steals. The urgency gate matters: without it a
		// freshly dirtied page would be written back the instant it
		// appeared (its commit still in flight), turning the cleaner
		// into write-through and its Force into a second group-commit
		// stream fighting the log daemon's. With it, the normal path
		// simply waits a tick for the in-flight commit to make the page
		// durably coverable for free.
		round(true, lsn.Undefined)
		round(false, lsn.Undefined)
	}
	return pids, claims, maxLSN
}

// orderByClockDistance sorts a DPT snapshot by each page's distance
// ahead of the eviction clock's hand: the page the hand would reach
// first sorts first. One O(resident) walk of the clock under evictMu
// builds the distance map — no I/O, no page latches. Dirty pages not on
// the clock at all (mid-eviction, or installed a beat ago) keep their
// snapshot order at the back; with no bounded clock (unbounded pool)
// the snapshot is returned unchanged.
func (s *Store) orderByClockDistance(dirty []logrec.DirtyPageEntry) []logrec.DirtyPageEntry {
	if len(dirty) < 2 {
		return dirty
	}
	want := make(map[uint64]int, len(dirty))
	for _, e := range dirty {
		want[e.PageID] = -1
	}
	s.evictMu.Lock()
	n := len(s.clock)
	for i := 0; i < n; i++ {
		pid := s.clock[(s.hand+i)%n]
		if d, ok := want[pid]; ok && d < 0 {
			want[pid] = i
		}
	}
	s.evictMu.Unlock()
	if n == 0 {
		return dirty
	}
	sort.SliceStable(dirty, func(i, j int) bool {
		di, dj := want[dirty[i].PageID], want[dirty[j].PageID]
		if di < 0 {
			return false
		}
		if dj < 0 {
			return true
		}
		return di < dj
	})
	return dirty
}
