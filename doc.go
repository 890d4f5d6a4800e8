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
//     Speculative Lock Inheritance of table-level locks
//   - internal/storage — slotted pages, heap files, B+Tree, and the
//     demand-paged buffer pool over the database file
//   - internal/txn — transactions, commit protocols, checkpoints; its
//     Restart is the one way from log devices to a running engine, and
//     Open goes through it
//   - internal/recovery — ARIES analysis/redo/undo, the one replay (a
//     restore is a restart), over one iterator that reads N >= 1 log
//     lanes back in their total order
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
// A Session reuses the transactions it has finished, so a TPC-B
// transaction allocates nothing in the engine (a detached commit hands
// the log daemon the transaction itself, not a closure). A Tx is spent
// once it commits or aborts: every method of it then returns ErrTxnDone
// (Abort: ErrPrecommitted while its detached commit is in flight), also
// after the session has begun its next transaction in the same object.
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
// from byte 0. A dead segment a crash left on disk, or a power cut
// brought back after its unlink, is recycled by the next Checkpoint.
// LSNs are stable log addresses and never restart, so a truncated log
// resumes exactly where it left off.
//
// With Options.CheckpointEveryBytes set, a background incremental
// checkpointer takes those checkpoints automatically: a goroutine fires
// every N bytes of appended log, runs the fuzzy checkpoint and the
// page-cleaning sweep, and advances the truncation horizon concurrently
// with foreground commits — the log stays bounded with zero client
// Checkpoint calls and zero commit-path stalls.
//
// The log's memory is bounded too: each lane's log buffer is one 1 MiB
// ring, which holds records only until the flush daemon writes them to
// the device straight from it, so an empty database holds about 1 MiB of
// heap a lane. Stats.LogRingWaits and LogRingWaitTime count the inserts
// that found their ring full and waited for the daemon.
//
// # Log records
//
// The log says what changed and little else. A record is a frame (a
// varint length, one byte below 128), one byte naming its
// kind and which header fields follow, those fields as varints —
// transaction, page, and the multi-lane stamp and edge, each free when
// absent — and a payload. No record points back at its transaction's
// previous one: a bit of the kind byte marks a transaction's first
// record, and recovery collects a loser's records by reading forward
// from there. Only that first record names the transaction in full; it
// binds a one-byte slot, lent by the transaction's session, which the
// later records carry instead and recovery maps back. An update's payload is a splice: the offset in the row and
// the bytes that differ, logged once as before ⊕ after (and, if the row
// changes length, the change and the longer image's extra bytes); an
// insert's or delete's is the row's length and its bytes up to the last
// non-zero one, the rest being implied zeros. So a TPC-B transaction
// (three 8-byte balance changes in 100-byte rows, one zero-padded
// 100-byte insert, a commit) logs about 70 bytes. No record carries a
// checksum: each flush closes the batch it hardens with a seal, a record
// holding the batch's length and CRC-32C, and recovery checks every
// batch against its seal before it replays a byte of it. A checkpoint
// logs its transaction and dirty-page tables in chunks of at most 4 KiB,
// each a checkpoint-end record naming the same begin record, and recovery
// uses a checkpoint only once its last chunk is durable. Every record
// has one encoding and the decoders accept no other. A log directory
// carries its format in its MANIFEST (format 11) and a cold-store object
// in its envelope (version 9); Open refuses earlier ones with an error that
// matches logdev.ErrFormat and changes nothing. ARCHITECTURE.md, "The
// log record", has the layout.
//
// # Durable watermark and torn-tail repair
//
// The log persists a durable watermark on every Sync batch, in
// the header of the segment file that holds the batch's last byte (two
// CRC-protected ping-pong slots per file), with the same fsync that
// persists the batch: a blocking commit is one fsync. Each slot records
// the byte range its Sync added, from the previous durable end, and no
// checksum of it: every Sync ends at a seal, so a reopen believes a slot
// only if the seals vouch for every byte of that range (a Sync reads
// nothing back), and a slot that reached the disk ahead of its data
// falls back to the previous Sync's. On reopen the watermark — not the segment file
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
// both — dead segments are not deleted at truncation: the engine's
// cold-tier daemon ships each one into the store as a CRC-enveloped
// object first, and only then recycles its slot — the hot log stays tiny
// while the full history survives. DB.RestoreTo restarts a copy of the
// database from the newest snapshot (a checkpoint's page images,
// Options.SnapshotEveryBytes) and that history stitched to the live tail
// (cmd/logdump dumps both), so any captured DB.RestorePoint stays
// reconstructible.
// Stats.LogSegmentsArchived tracks the pipeline, and
// Stats.LogSegmentsPendingArchive counts dead segments still on disk,
// with or without a cold store; while cold storage is unreachable, dead
// segments simply wait there.
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
