// Package soak is the crash-storm harness: it runs a seeded workload
// against a full engine stack (segmented log + watermark + pagefile +
// double-write journal + cold-store archiver) built over a
// fault-injecting filesystem (vfs.FaultFS), power-cuts the filesystem
// at a randomized fault point each cycle — mid group-commit, mid
// journal sweep, mid watermark flip, mid archive copy, mid
// steal/cleaner writeback — recovers, reopens, and verifies the
// recovered state against an in-memory model of committed operations.
// Hundreds of crash-recover cycles per run, every one checked.
//
// The model accepts exactly two outcomes per cycle: the committed
// state, or the committed state plus the single in-doubt transaction
// (the one whose CommitSync returned an error because the cut landed
// inside its group-commit flush — its commit record may or may not
// have reached stable storage) applied atomically. Anything else —
// a lost committed transaction, a partially applied one, a resurrected
// deleted key, an unopenable database — is a divergence, and the run
// reports the seed that reproduces its fault schedule.
package soak

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"aether/internal/core"
	"aether/internal/lockmgr"
	"aether/internal/logbuf"
	"aether/internal/logdev"
	"aether/internal/storage"
	"aether/internal/txn"
	"aether/internal/vfs"
)

// FaultPoint names one class of randomized power-cut site.
type FaultPoint string

// The fault points a cycle can arm, each cutting power at the Nth
// matching filesystem operation (N seeded per cycle).
const (
	// FaultGroupCommit cuts during a log-segment fsync — the middle of
	// a group-commit flush (invariant 1/2 territory: the batch's header
	// slot has been written but not persisted, so whatever of it the cut
	// tears in must be rejected and the bytes are a discardable torn
	// tail).
	FaultGroupCommit FaultPoint = "group-commit"
	// FaultJournal cuts during a write or fsync of the double-write
	// journal — before the batch's commit point, so the pagefile must
	// still hold the previous fully-applied batch (invariant 4).
	FaultJournal FaultPoint = "journal"
	// FaultPagefile cuts during an in-place pagefile write or fsync —
	// mid checkpoint sweep, demand steal, or cleaner writeback, after
	// the journal committed; replay must repair the torn slots
	// (invariant 4/5a).
	FaultPagefile FaultPoint = "pagefile"
	// FaultWatermark cuts during a segment-header slot write — the
	// torn slot must read as unwritten and the other slot, holding the
	// previous Sync's watermark, must still be believed (invariant 2).
	FaultWatermark FaultPoint = "watermark"
	// FaultManifest cuts during the MANIFEST tmp→install rename — the
	// old manifest must survive until the new one's dir fsync
	// (invariant 3).
	FaultManifest FaultPoint = "manifest"
	// FaultArchive cuts inside a cold-store object install — the
	// temporary's write or fsync, or the rename onto the final name — so
	// the hot segment must stay parked until the object is fully durable,
	// and the reopened store must hold the object whole or not at all
	// (invariant 5/5b/7).
	FaultArchive FaultPoint = "archive"
	// FaultPartitionFlush (partitioned stacks only, Config.LogPartitions
	// >= 2) cuts power during exactly one randomly chosen partition's
	// segment fsync while the other partitions keep hardening — the
	// Appendix A.5 scenario. The flush-dependency limiter must have kept
	// every surviving log free of records whose cross-log predecessor
	// died with the cut partition's tail, recovery's merge must verify
	// that (ErrDependencyViolated otherwise), and the model checker
	// still accepts only committed-state or committed-state plus the one
	// in-doubt transaction.
	FaultPartitionFlush FaultPoint = "partition-flush"
	// FaultRemoteArchive (opt-in: arming it moves the stack's cold store
	// off the machine — every lane's RemoteArchiver then ships into one
	// MemObjectStore that persists across power cuts, because it is the
	// cloud, instead of a directory on the fault filesystem). Each armed
	// cycle either tears an
	// upload mid-object with a simultaneous local power cut (the machine
	// dies while the bytes are in flight; the store keeps a torn prefix
	// the next incarnation must detect and re-ship), or opens an outage
	// window for the rest of the cycle (every upload fails, segments stay
	// parked under the archive-before-recycle rule) closed by the
	// end-of-cycle cut. The model checker accepts the same two outcomes
	// as every other point.
	FaultRemoteArchive FaultPoint = "remote-archive"
)

// AllFaultPoints is the full single-log profile, in the order cycles
// rotate through when picking randomly.
var AllFaultPoints = []FaultPoint{
	FaultGroupCommit, FaultJournal, FaultPagefile,
	FaultWatermark, FaultManifest, FaultArchive,
}

// AllPartitionFaultPoints is the full profile for a partitioned stack
// (Config.LogPartitions >= 2): everything above plus the
// one-partition-cut point.
var AllPartitionFaultPoints = append(AllFaultPoints[:len(AllFaultPoints):len(AllFaultPoints)], FaultPartitionFlush)

// OptInFaultPoints lists the points excluded from the default profiles
// because arming them reshapes the stack: remote-archive keeps the cold
// store in the cloud instead of a local directory for the whole run.
var OptInFaultPoints = []FaultPoint{FaultRemoteArchive}

// errCloudOutage is the error the cloud's outage window injects.
var errCloudOutage = errors.New("soak: cloud outage window")

// Config parameterizes a soak run. Zero values pick usable defaults.
type Config struct {
	// Seed drives everything random: the workload, the fault point and
	// trigger count of every cycle, and sector-tearing decisions. A
	// failing run reports its seed; re-running with it reproduces the
	// same fault schedule.
	Seed int64
	// Cycles is how many crash-recover rounds to run (default 50).
	Cycles int
	// TxnsPerCycle bounds the committed transactions per cycle before
	// the harness force-cuts (default 40).
	TxnsPerCycle int
	// Keys is the key-space size (default 48; small enough that
	// updates and deletes hit existing rows constantly).
	Keys int
	// Points is the fault profile: the cut sites cycles rotate
	// through. Empty means AllFaultPoints (plus FaultPartitionFlush
	// when LogPartitions >= 2).
	Points []FaultPoint
	// LogPartitions, if >= 2, runs the soak against a partitioned log:
	// N segmented devices (p0/…pN-1 under the log dir, one cold-store
	// lane each) coordinated by a MultiLog, with transactions routed
	// across partitions by txnID so consecutive updates of a page hop
	// logs — maximal cross-log dependency pressure. 0/1 is the original
	// single-log stack.
	LogPartitions int
	// Logf, when non-nil, receives per-cycle progress lines.
	Logf func(format string, args ...any)
}

// Result summarizes a completed soak run.
type Result struct {
	// Cycles is how many crash-recover rounds ran.
	Cycles int
	// Commits is the total committed transactions across all cycles.
	Commits int
	// InDoubt is how many cycles ended with a transaction whose
	// CommitSync errored mid-flush (its outcome was then resolved by
	// reading the recovered state).
	InDoubt int
	// InDoubtSurvived is how many of those in-doubt transactions
	// turned out durable after recovery.
	InDoubtSurvived int
	// Cuts counts power cuts per fault point; the "forced" key counts
	// cycles whose armed trigger never fired and were cut at workload
	// end instead.
	Cuts map[string]int
	// TornTailRepaired totals the torn-tail bytes recovery discarded.
	TornTailRepaired int64
	// JournalReplays counts reopens that replayed a committed
	// double-write journal.
	JournalReplays int
}

// Divergence is the failure report for a cycle whose recovered state
// matched neither accepted outcome. It carries everything needed to
// reproduce: the seed, the cycle, the armed fault, and the tail of the
// filesystem op trace.
type Divergence struct {
	// Seed replays the run's exact fault schedule and workload.
	Seed int64
	// Cycle is the crash-recover round that diverged (counting from 0).
	Cycle int
	// Point is the fault armed for the cycle whose crash the
	// divergence was discovered after.
	Point FaultPoint
	// Diffs lists the mismatches between the model and the recovered
	// state, one per key.
	Diffs []string
	// Trace is the tail of the fault filesystem's op trace leading up
	// to the divergence.
	Trace []vfs.TraceEntry
}

// Error implements error with a replay-ready, diffs-first report.
func (d *Divergence) Error() string {
	msg := fmt.Sprintf("soak: divergence at cycle %d (fault %s): %d diffs (replay with -seed %d)",
		d.Cycle, d.Point, len(d.Diffs), d.Seed)
	for i, diff := range d.Diffs {
		if i == 8 {
			msg += fmt.Sprintf("\n  ... %d more", len(d.Diffs)-i)
			break
		}
		msg += "\n  " + diff
	}
	return msg
}

const (
	soakLogDir     = "/db"
	soakArchiveDir = "/cold"
	soakSegSize    = 4096
	soakCkptBytes  = 8192
	soakCachePages = 8
	soakCleaner    = 4
	soakPrefetch   = 4
	soakValueBytes = 120 // payload per row: enough log volume to churn segments
)

// op is one staged mutation of a workload transaction.
type op struct {
	del bool
	key uint64
	val uint64
}

// engineStack is one open incarnation of the full durable stack.
type engineStack struct {
	devs []*logdev.Segmented // one per log lane
	pf   *storage.PageFile
	eng  *txn.Engine
	tbl  *txn.Table
}

// openStack builds the engine over the fault filesystem exactly as
// aether.Open wires a file-backed segmented database: per log lane a
// segmented log + watermark (logdev.LaneDir's layout) and a cold-store
// lane, pagefile + journal as the page archive, and the background
// checkpointer/archiver/cleaner goroutines. With parts >= 2
// transactions are routed by txnID. The cold store is one RemoteArchiver
// key prefix per lane in a shared object store: the cloud when there is
// one, else a directory on fs — where power cuts reach it too.
func openStack(fs vfs.FS, parts int, cloud *logdev.MemObjectStore) (*engineStack, error) {
	n := max(parts, 1)
	var (
		devs   []*logdev.Segmented
		rc     txn.RestartConfig
		closeD = func() {
			for _, d := range devs {
				d.Close()
			}
		}
	)
	for i := 0; i < n; i++ {
		d, err := logdev.OpenSegmentedDirFS(fs, logdev.LaneDir(soakLogDir, i, n), soakSegSize)
		if err != nil {
			closeD()
			return nil, fmt.Errorf("open log lane %d: %w", i, err)
		}
		devs = append(devs, d)
		rc.Devices = append(rc.Devices, d)
	}
	// Route by txnID: the sequential workload's consecutive transactions
	// then land on different logs, so a page's update chain keeps
	// crossing lanes — the A.5 stress pattern.
	rc.RoutePartition = func(txnID uint64, _ uint32) int { return int(txnID % uint64(n)) }
	pf, err := storage.OpenPageFileFS(fs, soakLogDir+"/pagefile.db")
	if err != nil {
		closeD()
		return nil, fmt.Errorf("open pagefile: %w", err)
	}
	var store logdev.ObjectStore = cloud
	if cloud == nil {
		if store, err = logdev.NewDirObjectStoreFS(fs, soakArchiveDir); err != nil {
			pf.Close()
			closeD()
			return nil, fmt.Errorf("open cold store: %w", err)
		}
	}
	for i, d := range devs {
		arch, err := logdev.NewRemoteArchiver(store, logdev.LaneDir("", i, n), soakSegSize)
		if err != nil {
			pf.Close()
			closeD()
			return nil, fmt.Errorf("open cold store lane %d: %w", i, err)
		}
		d.SetArchiver(arch)
	}
	rc.Archive = pf
	rc.LogConfig = core.Config{
		Buffer: logbuf.Config{Variant: logbuf.VariantCD, Size: 1 << 20},
	}
	rc.LockConfig = lockmgr.Config{DeadlockTimeout: 300 * time.Millisecond, SLI: true}
	rc.CheckpointEveryBytes = soakCkptBytes
	rc.CachePages = soakCachePages
	rc.CleanerPages = soakCleaner
	rc.PrefetchDepth = soakPrefetch
	eng, _, err := txn.Restart(rc)
	if err != nil {
		pf.Close()
		closeD()
		return nil, fmt.Errorf("restart: %w", err)
	}
	s := &engineStack{devs: devs, pf: pf, eng: eng}
	s.tbl, err = eng.CreateTable("soak", nil)
	if err == nil {
		err = eng.RebuildTables()
	}
	if err != nil {
		s.teardown()
		return nil, fmt.Errorf("rebuild: %w", err)
	}
	return s, nil
}

// repairedTailBytes sums torn-tail repairs across the stack's devices.
func (s *engineStack) repairedTailBytes() int64 {
	var total int64
	for _, d := range s.devs {
		total += d.RepairedTailBytes()
	}
	return total
}

// checkpointAndArchive runs one explicit checkpoint (sweep through the
// journal into the pagefile, then truncation through the MANIFEST) and
// one archive drain per device, ignoring errors.
func (s *engineStack) checkpointAndArchive() {
	_ = s.eng.Checkpoint()
	for _, d := range s.devs {
		_, _ = d.ArchivePending()
	}
}

// teardown closes the stack, tolerating the error storm a power cut
// leaves behind (every close hits a frozen filesystem).
func (s *engineStack) teardown() {
	s.eng.Close()
	s.eng.Multi().Close()
	s.pf.Close()
	for _, d := range s.devs {
		d.Close()
	}
}

// armFault installs the cycle's power-cut rule and returns it. after
// is randomized so the cut lands at a different depth of the matching
// operation stream every cycle. With parts >= 2 the log-directory
// fault points target one randomly chosen partition directory —
// vfs.Rule.Dir matches the op's parent directory exactly, and in a
// partitioned layout the segments and MANIFEST live under p<i>, not
// the log root (only pagefile.db and its journal stay at the root). The
// archive point targets where the chosen lane's segment objects are
// installed: seg/ under its prefix of the cold-store directory.
func armFault(fs *vfs.FaultFS, rng *rand.Rand, point FaultPoint, parts int) int {
	logDir, archDir := soakLogDir, soakArchiveDir
	if parts >= 2 {
		k := rng.Intn(parts)
		logDir = logdev.LaneDir(soakLogDir, k, parts)
		archDir = logdev.LaneDir(soakArchiveDir, k, parts)
	}
	archDir += "/seg"
	var r vfs.Rule
	switch point {
	case FaultGroupCommit:
		r = vfs.Rule{Op: vfs.OpSync, Dir: logDir, Path: "*.seg", After: rng.Intn(24)}
	case FaultJournal:
		ops := []vfs.Op{vfs.OpWrite, vfs.OpSync}
		r = vfs.Rule{Op: ops[rng.Intn(2)], Dir: soakLogDir, Path: "pagefile.db.journal", After: rng.Intn(4)}
	case FaultPagefile:
		ops := []vfs.Op{vfs.OpWrite, vfs.OpSync}
		r = vfs.Rule{Op: ops[rng.Intn(2)], Dir: soakLogDir, Path: "pagefile.db", After: rng.Intn(6)}
	case FaultWatermark:
		r = vfs.Rule{Op: vfs.OpWrite, Dir: logDir, Path: "*.seg", OffBelow: logdev.SegmentHeaderSize, After: rng.Intn(16)}
	case FaultManifest:
		r = vfs.Rule{Op: vfs.OpRename, Dir: logDir, Path: "MANIFEST", After: rng.Intn(3)}
	case FaultArchive:
		ops := []vfs.Op{vfs.OpWrite, vfs.OpRename, vfs.OpSync}
		r = vfs.Rule{Op: ops[rng.Intn(3)], Dir: archDir, After: rng.Intn(4)}
	case FaultPartitionFlush:
		if parts < 2 {
			panic("soak: fault point partition-flush requires LogPartitions >= 2")
		}
		// Cut exactly one partition's group-commit fsync early (small
		// After) while the other partitions keep flushing: the surviving
		// logs race ahead of the dead one, and the dependency limiter is
		// the only thing keeping their durable tails consistent with the
		// merge order.
		r = vfs.Rule{Op: vfs.OpSync, Dir: logDir, Path: "*.seg", After: rng.Intn(8)}
	default:
		panic(fmt.Sprintf("soak: unknown fault point %q", point))
	}
	r.Cut = true
	return fs.AddRule(r)
}

// armRemoteFault arms the cycle's cloud-tier fault: either the next
// upload (at a randomized depth) tears mid-object with a simultaneous
// local power cut — the machine dies while the bytes are in flight and
// the store keeps a torn prefix — or an outage window opens for the
// rest of the cycle, failing every upload so segments stay parked.
func armRemoteFault(cloud *logdev.MemObjectStore, fs *vfs.FaultFS, rng *rand.Rand) {
	if rng.Intn(2) == 0 {
		cloud.Arm(logdev.NetFault{TearPutAfter: 1 + rng.Intn(3), OnTear: fs.PowerCut})
	} else {
		cloud.Arm(logdev.NetFault{Outage: errCloudOutage})
	}
}

// applyOps returns model with ops applied (model itself untouched).
func applyOps(model map[uint64]uint64, ops []op) map[uint64]uint64 {
	out := make(map[uint64]uint64, len(model)+len(ops))
	for k, v := range model {
		out[k] = v
	}
	for _, o := range ops {
		if o.del {
			delete(out, o.key)
		} else {
			out[o.key] = o.val
		}
	}
	return out
}

// DiffStates lists the differences between want and got (empty = equal).
// It is exported so other test harnesses (the wire kill test) can reuse
// the same model comparison.
func DiffStates(want, got map[uint64]uint64) []string {
	var diffs []string
	for k, v := range want {
		gv, ok := got[k]
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("key %d lost (want value %d)", k, v))
		case gv != v:
			diffs = append(diffs, fmt.Sprintf("key %d: value %d, want %d", k, gv, v))
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("key %d resurrected (value %d, want absent)", k, v))
		}
	}
	return diffs
}

// readState scans the recovered table into a key→value map.
func readState(s *engineStack, maxKey uint64) (map[uint64]uint64, error) {
	ag := s.eng.NewAgent()
	defer ag.Close()
	tx := ag.Begin()
	out := make(map[uint64]uint64)
	err := tx.Scan(s.tbl, 0, maxKey, func(key uint64, row []byte) bool {
		out[key] = rowValue(row)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, tx.Commit(txn.CommitSync, nil)
}

// soakRow encodes a row: 8-byte little-endian key (the index-rebuild
// convention), 8-byte value, then deterministic filler for log volume.
func soakRow(key, val uint64) []byte {
	b := make([]byte, 16+soakValueBytes)
	putU64(b[0:8], key)
	putU64(b[8:16], val)
	for i := range b[16:] {
		b[16+i] = byte(val + uint64(i))
	}
	return b
}

func rowValue(row []byte) uint64 {
	if len(row) < 16 {
		return 0
	}
	return getU64(row[8:16])
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// runWorkload runs seeded transactions until the cycle's budget is
// spent or an injected fault surfaces. It returns the number of
// successful commits and the ops of the in-doubt transaction (non-nil
// only when CommitSync itself errored — the one transaction whose
// outcome the cut left undecided), and updates model in place with
// every committed transaction.
func runWorkload(s *engineStack, rng *rand.Rand, model map[uint64]uint64, cfg Config) (commits int, inDoubt []op) {
	ag := s.eng.NewAgent()
	defer ag.Close()
	for t := 0; t < cfg.TxnsPerCycle; t++ {
		tx := ag.Begin()
		nOps := 1 + rng.Intn(3)
		staged := make([]op, 0, nOps)
		view := applyOps(model, nil)
		opErr := false
		for i := 0; i < nOps; i++ {
			key := uint64(1 + rng.Intn(cfg.Keys))
			_, exists := view[key]
			var o op
			var err error
			switch {
			case !exists:
				o = op{key: key, val: rng.Uint64() % 1_000_000}
				err = tx.Insert(s.tbl, key, soakRow(key, o.val))
			case rng.Intn(4) == 0:
				o = op{key: key, del: true}
				err = tx.Delete(s.tbl, key)
			default:
				o = op{key: key, val: rng.Uint64() % 1_000_000}
				err = tx.Update(s.tbl, key, func([]byte) ([]byte, error) {
					return soakRow(key, o.val), nil
				})
			}
			if err != nil {
				// The op itself failed (the cut reached the log path):
				// this transaction never committed, so it must roll back
				// entirely — nothing in doubt.
				opErr = true
				break
			}
			staged = append(staged, o)
			if o.del {
				delete(view, o.key)
			} else {
				view[o.key] = o.val
			}
		}
		if opErr {
			tx.Abort()
			return commits, nil
		}
		if err := tx.Commit(txn.CommitSync, nil); err != nil {
			// CommitSync errored: the commit record may or may not be
			// durable. Exactly this one transaction is in doubt — the
			// workload is sequential, so no other commit was in flight.
			return commits, staged
		}
		commits++
		for _, o := range staged {
			if o.del {
				delete(model, o.key)
			} else {
				model[o.key] = o.val
			}
		}
	}
	return commits, nil
}

// Run executes the soak: cfg.Cycles rounds of open → verify → seeded
// workload → power cut → recover, all over one FaultFS whose durable
// state persists across cycles. It returns the aggregate result, or a
// *Divergence as the error when a cycle's recovered state matches
// neither the committed model nor the model plus the in-doubt
// transaction.
func Run(cfg Config) (*Result, error) {
	if cfg.Cycles <= 0 {
		cfg.Cycles = 50
	}
	if cfg.TxnsPerCycle <= 0 {
		cfg.TxnsPerCycle = 40
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 48
	}
	if len(cfg.Points) == 0 {
		if cfg.LogPartitions >= 2 {
			cfg.Points = AllPartitionFaultPoints
		} else {
			cfg.Points = AllFaultPoints
		}
	}
	if cfg.LogPartitions < 2 {
		for _, p := range cfg.Points {
			if p == FaultPartitionFlush {
				return nil, fmt.Errorf("soak: fault point %s requires Config.LogPartitions >= 2", p)
			}
		}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	fs := vfs.NewFaultFS(cfg.Seed + 1)
	fs.SetTornWrites(true)
	// Arming remote-archive anywhere in the profile puts the whole run on
	// the cloud tier. The store outlives every power cut: whatever was
	// durably uploaded before a cut must still restore afterwards.
	var cloud *logdev.MemObjectStore
	for _, p := range cfg.Points {
		if p == FaultRemoteArchive {
			cloud = logdev.NewMemObjectStore()
			break
		}
	}
	res := &Result{Cuts: make(map[string]int)}
	model := make(map[uint64]uint64)
	var inDoubt []op
	var point FaultPoint

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		s, err := openStack(fs, cfg.LogPartitions, cloud)
		if err != nil {
			return res, &Divergence{
				Seed: cfg.Seed, Cycle: cycle, Point: point,
				Diffs: []string{fmt.Sprintf("reopen failed: %v", err)},
				Trace: tail(fs.Trace(), 40),
			}
		}
		res.TornTailRepaired += s.repairedTailBytes()
		if s.pf.JournalReplayed() > 0 {
			res.JournalReplays++
		}

		// Verify the recovered state against the model — allowing the
		// previous cycle's in-doubt transaction to have landed or not,
		// but only atomically.
		got, err := readState(s, uint64(cfg.Keys)+1)
		if err == nil {
			diffs := DiffStates(model, got)
			if len(diffs) > 0 && inDoubt != nil {
				withTxn := applyOps(model, inDoubt)
				if d2 := DiffStates(withTxn, got); len(d2) < len(diffs) || len(d2) == 0 {
					if len(d2) == 0 {
						res.InDoubtSurvived++
					}
					diffs = d2
					model = withTxn
				}
			}
			if len(diffs) > 0 {
				s.teardown()
				return res, &Divergence{
					Seed: cfg.Seed, Cycle: cycle, Point: point,
					Diffs: diffs, Trace: tail(fs.Trace(), 40),
				}
			}
			model = got // adopt (resolves the in-doubt txn either way)
		} else {
			s.teardown()
			return res, &Divergence{
				Seed: cfg.Seed, Cycle: cycle, Point: point,
				Diffs: []string{fmt.Sprintf("reading recovered state: %v", err)},
				Trace: tail(fs.Trace(), 40),
			}
		}
		inDoubt = nil

		// Arm this cycle's fault and run the workload into it.
		point = cfg.Points[rng.Intn(len(cfg.Points))]
		rule := -1
		var preCloud logdev.ObjectStoreStats
		if point == FaultRemoteArchive {
			preCloud = cloud.Stats()
			armRemoteFault(cloud, fs, rng)
		} else {
			rule = armFault(fs, rng, point, cfg.LogPartitions)
		}
		var commits int
		commits, inDoubt = runWorkload(s, rng, model, cfg)
		res.Commits += commits
		if inDoubt != nil {
			res.InDoubt++
		}
		if rule >= 0 && fs.RuleStats()[rule].Fired == 0 {
			// The journal, pagefile, manifest and archive sites are
			// reached by the background checkpointer and archiver, which
			// a short workload can finish ahead of. Drive the same path
			// once by hand so the armed cut gets its chance; errors are
			// the cut landing (or nothing to do).
			s.checkpointAndArchive()
		}

		// If the armed trigger never fired, cut now: every cycle ends in
		// a crash, just not always at the chosen site. A cloud fault
		// "fires" when the network model actually bit an upload; only the
		// torn-upload shape cuts power by itself, so the outage shape (and
		// a cycle whose uploads never ran) is closed with a forced cut.
		var fired bool
		if point == FaultRemoteArchive {
			st := cloud.Stats()
			fired = st.TornPuts > preCloud.TornPuts || st.PutErrors > preCloud.PutErrors
			if st.TornPuts == preCloud.TornPuts {
				fs.PowerCut()
			}
		} else {
			fired = fs.RuleStats()[rule].Fired > 0
			if !fired {
				fs.PowerCut()
			}
		}
		if fired {
			res.Cuts[string(point)]++
		} else {
			res.Cuts["forced"]++
		}
		s.teardown()
		fs.ClearRules()
		if cloud != nil {
			// Outage and tear windows end with the cycle; the cloud itself
			// (and any torn object it kept) persists.
			cloud.Arm(logdev.NetFault{})
		}
		fs.Recover()
		res.Cycles++
		logf("cycle %d: fault=%s fired=%v commits=%d model=%d keys", cycle, point, fired, res.Commits, len(model))
	}

	// Final verification pass: reopen once more and check the end state.
	s, err := openStack(fs, cfg.LogPartitions, cloud)
	if err != nil {
		return res, &Divergence{
			Seed: cfg.Seed, Cycle: cfg.Cycles, Point: point,
			Diffs: []string{fmt.Sprintf("final reopen failed: %v", err)},
			Trace: tail(fs.Trace(), 40),
		}
	}
	defer s.teardown()
	got, err := readState(s, uint64(cfg.Keys)+1)
	if err != nil {
		return res, fmt.Errorf("soak: final read: %w", err)
	}
	diffs := DiffStates(model, got)
	if len(diffs) > 0 && inDoubt != nil {
		if d2 := DiffStates(applyOps(model, inDoubt), got); len(d2) == 0 {
			res.InDoubtSurvived++
			diffs = nil
		}
	}
	if len(diffs) > 0 {
		return res, &Divergence{
			Seed: cfg.Seed, Cycle: cfg.Cycles, Point: point,
			Diffs: diffs, Trace: tail(fs.Trace(), 40),
		}
	}
	return res, nil
}

// tail returns the last n entries of t.
func tail(t []vfs.TraceEntry, n int) []vfs.TraceEntry {
	if len(t) <= n {
		return t
	}
	return t[len(t)-n:]
}

// IsDivergence reports whether err is a soak divergence (as opposed to
// a harness/setup failure).
func IsDivergence(err error) bool {
	var d *Divergence
	return errors.As(err, &d)
}
