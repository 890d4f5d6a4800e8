// Package aether is a from-scratch Go implementation of the logging
// subsystem from "Aether: A Scalable Approach to Logging" (Johnson,
// Pandis, Stoica, Athanassoulis, Ailamaki — PVLDB 3(1), 2010), embedded
// in a complete transactional storage manager.
//
// The package exposes the library's public API: open a database, run
// ACID transactions under any of the paper's commit protocols, crash it,
// and recover it. The implementation lives in internal/ packages:
//
//   - internal/logbuf — the five log-buffer designs (baseline mutex,
//     consolidation array, decoupled fill, hybrid CD, delegated CDME)
//   - internal/core — the log manager: flush daemon, group commit,
//     durability subscriptions (flush pipelining's detach/re-attach);
//     and the coordinator that makes N >= 1 of them one log
//   - internal/lockmgr — hierarchical 2PL with Early Lock Release and
//     Speculative Lock Inheritance
//   - internal/storage — slotted pages, heap files, B+Tree, and the
//     demand-paged buffer pool over the database file
//   - internal/txn — transactions, commit protocols, checkpoints
//   - internal/recovery — ARIES analysis/redo/undo and point-in-time
//     replay, over one iterator that reads N >= 1 log lanes back in
//     their total order
//   - internal/workload, internal/bench — the paper's workloads and
//     the per-figure experiments (cmd/aetherbench -fig); the
//     repository's own benchmark is the program in benchmark/, whose
//     contract is BENCHMARK.json
//
// # Quick start
//
//	db, err := aether.Open(aether.Options{})
//	if err != nil { ... }
//	defer db.Close()
//
//	accounts, _ := db.CreateTable("accounts")
//	s := db.Session()
//	tx := s.Begin()
//	tx.Insert(accounts, 1, aether.Row(1, []byte("alice: 100")))
//	err = tx.Commit() // durable when it returns
//
// # Bounded log
//
// The log lives on a segmented device: the append-only stream is spread
// over fixed-size segments (Options.SegmentSize, 8 MiB by default) —
// files in the directory Options.LogPath names, or, for an in-memory
// database, the same files on an in-memory filesystem of its own — and
// every Checkpoint recycles the segments behind the release horizon
//
//	release = min(checkpoint begin, oldest active-txn first LSN,
//	              oldest dirty-page recLSN)
//
// so both the disk footprint and restart-recovery work stay bounded:
// recovery reads the log from the truncation base (Stats.LogBase), not
// from byte 0. LSNs are stable log addresses and never restart, so a
// truncated log resumes exactly where it left off.
//
// With Options.CheckpointEveryBytes set, a background incremental
// checkpointer takes those checkpoints automatically: a goroutine fires
// every N bytes of appended log, runs the fuzzy checkpoint and the
// page-cleaning sweep, and advances the truncation horizon concurrently
// with foreground commits — the log stays bounded with zero client
// Checkpoint calls and zero commit-path stalls.
//
// # Log records
//
// The log says what changed and little else. A record is an 8-byte
// frame (length, CRC-32C), one byte naming its kind and which header
// fields follow, those fields as varints — transaction, backchain, page,
// and the multi-lane stamp and edge, each free when absent — and a
// payload. An update's payload is a splice: the offset in the row and
// the bytes before and after, trimmed to what differs, so a TPC-B
// transaction (three 8-byte balance changes in 100-byte rows, one
// 100-byte insert, a commit) logs about 221 bytes. Every record has one
// encoding and the decoders accept no other. A log directory carries
// its format in its MANIFEST (format 3) and a cold-store object in its
// envelope (version 2); Open refuses earlier ones with an error that
// matches logdev.ErrFormat and changes nothing. ARCHITECTURE.md, "The
// log record", has the layout.
//
// # Durable watermark and torn-tail repair
//
// The log persists a durable watermark on every Sync batch, in
// the header of the segment file that holds the batch's last byte (two
// CRC-protected ping-pong slots per file), with the same fsync that
// persists the batch: a blocking commit is one fsync. Each slot records
// the byte range its Sync added and that range's CRC, and a reopen
// believes a slot only if those bytes are in the file and match, so a
// slot that reached the disk ahead of its data falls back to the
// previous Sync's. On reopen the watermark — not the segment file
// sizes: a segment file is created at its full size, so no commit's
// fsync grows it — is the durable horizon, which lets Open tell two
// failure shapes apart: bytes beyond
// the watermark are a torn tail (a power loss persisted unsynced bytes,
// possibly in a later segment while dropping an earlier one's) and are
// discarded, with the count reported in Stats.LogTornTailRepaired;
// bytes missing below the watermark are real corruption and Open fails
// loudly rather than silently dropping acknowledged commits.
//
// # Log archiving (cold storage)
//
// With a cold store — Options.ArchiveDir for a local directory,
// Options.RemoteStore for any S3-style object store; one mechanism under
// both — dead segments are not deleted at truncation: a background
// archiver goroutine ships each one into the store as a CRC-enveloped
// object first, and only then recycles its slot — the hot log stays tiny
// while the full history survives. DB.RestoreTo replays that history
// stitched to the live tail (and cmd/logdump dumps it), so the committed
// state at any captured DB.RestorePoint stays reconstructible.
// Stats.LogSegmentsArchived and Stats.LogSegmentsPendingArchive track
// the pipeline; while cold storage is unreachable, dead segments simply
// wait on disk.
//
// # Paged database file
//
// File-backed databases persist page images in a single paged, slotted,
// checksummed database file, LogPath/pagefile.db beside the log's
// segments. Each 8KiB page occupies a slot addressed by file offset,
// prefixed by a 32-byte header (pageID, version, CRC-32C over identity
// plus image) that is verified on every read. The file is copy-on-write:
// a checkpoint sweep writes all dirty pages, in page-ID order, into the
// lowest free slots in large coalesced writes — never over a page's live
// copy — and fsyncs once; then it writes a commit record naming the
// batch's highest version and fsyncs again, and only then frees the
// slots the pages left. O(1) device fsyncs per sweep, however many pages
// it cleans, each image written once, and O(1) memory: each image is
// copied once, out of its frame, through a quarter-megabyte buffer.
// Open takes each page's newest copy at or below the commit record and
// clears whatever a batch that never committed left behind, so a crash
// leaves every batch whole or absent.
//
// # Bounded buffer pool (databases larger than RAM)
//
// With Options.CachePages set, the page store becomes a
// bounded cache over the database file instead of holding every page in
// RAM: at most that many pages stay resident, misses fault the page in
// through the checksummed read path, and a clock policy evicts to make
// room. Evicting a dirty page is a steal in the ARIES sense — the log
// is forced up to the page's LSN first (the write-ahead rule), the
// image goes into a free slot of the database file, and only then is the
// frame reclaimed. Recovery faults pages lazily too, so restart memory
// is O(working set) rather than O(database). Stats.CacheResident,
// PageMisses, PageEvictions and StealWrites expose the pool; with the
// option unset the store stays fully memory-resident as before.
//
// # Background page cleaner
//
// With Options.CleanerPages set on a bounded pool, dirty writebacks
// leave the fault path entirely: a cleaner goroutine watches the
// free-frame headroom and pre-cleans dirty, unpinned, cold pages in
// batches — one log force covering the batch, one batch into the
// database file (O(1) fsyncs however many pages), then
// mark-clean — so the clock hand almost always finds clean victims and
// eviction is a frame drop. Demand steals (Stats.StealWrites) collapse
// toward zero and are replaced by batched Stats.CleanerWrites; a steal
// that does happen nudges the cleaner awake immediately. Write-heavy
// workloads over databases larger than RAM go from fsync-bound to
// cache-bound.
//
// See the examples/ directory for complete programs, README.md for the
// quickstart and feature matrix, and ARCHITECTURE.md for the
// architecture, the paper-to-code map, and the segment-lifecycle and
// fsync-ordering invariants.
package aether
