package aether

// The crash-storm soak: a seeded workload runs against databases opened
// with Open over a fault-injecting filesystem (vfs.FaultFS) — segmented
// log + watermark + pagefile, plus a cold store when the profile arms an
// archive point, exactly the assembly that ships — and every cycle cuts
// power at a randomized fault point: mid group-commit, mid pagefile
// commit, mid watermark flip, mid archive install, mid steal/cleaner
// writeback. The next incarnation
// is opened with Open again, and its state is checked against an
// in-memory model of committed operations.
//
// The model accepts exactly two outcomes per cycle: the committed state,
// or the committed state plus the single in-doubt transaction (the one
// whose commit returned an error because the cut landed inside its
// group-commit flush — its commit record may or may not have reached
// stable storage) applied atomically. Anything else — a lost committed
// transaction, a partially applied one, a resurrected deleted key, an
// unopenable database — is a divergence, reported with the flags that
// replay its fault schedule.
//
// The fixed-seed tests below run on every `go test`; TestSoak is the long
// form, driven by the -soak.* flags (make soak):
//
//	go test -v -run '^TestSoak$' . -args -soak.cycles 200 -soak.seed 7
//	go test -v -run '^TestSoak$' . -args -soak.cycles 100 -soak.log-partitions 3
//	go test -v -run '^TestSoak$' . -args -soak.cycles 50 -soak.points remote-archive,group-commit

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"aether/internal/logdev"
	"aether/internal/storage"
	"aether/internal/vfs"
)

var (
	soakSeedFlag   = flag.Int64("soak.seed", 1, "TestSoak: seed for the workload and the fault schedule (a divergence prints the flags that replay it)")
	soakCyclesFlag = flag.Int("soak.cycles", 0, "TestSoak: crash-recover cycles to run; 0 skips TestSoak")
	soakTxnsFlag   = flag.Int("soak.txns", 40, "TestSoak: transactions per cycle before a forced cut")
	soakKeysFlag   = flag.Int("soak.keys", 200, "TestSoak: key-space size")
	soakPointsFlag = flag.String("soak.points", "", "TestSoak: comma-separated fault points to arm (default: every local point the layout has; valid: "+joinPoints(allFaultPoints)+")")
	soakPartsFlag  = flag.Int("soak.log-partitions", 0, "TestSoak: log partitions; 2 or more adds the partition-flush point")
)

// faultPoint names one class of randomized power-cut site.
type faultPoint string

// The fault points a cycle can arm, each cutting power at the Nth
// matching filesystem operation (N seeded per cycle).
const (
	// faultGroupCommit cuts during a log-segment fsync — the middle of a
	// group-commit flush: the batch's header slot has been written but not
	// persisted, so whatever of it the cut tears in must be rejected and
	// the bytes are a discardable torn tail (invariants 1/2).
	faultGroupCommit faultPoint = "group-commit"
	// faultPageCommit cuts on a pagefile batch's commit-sector write or on
	// its second fsync, the one that makes the commit record durable: the
	// reopened file must serve the whole batch or none of it, and clear
	// what it left above the watermark (invariant 6).
	faultPageCommit faultPoint = "pagecommit"
	// faultPagefile cuts during any pagefile write or fsync — mid
	// checkpoint sweep, demand steal, or cleaner writeback; the images of
	// a batch cut before its commit point must never be served (5/5a/6).
	faultPagefile faultPoint = "pagefile"
	// faultWatermark cuts during a segment-header slot write — the torn
	// slot must read as unwritten and the other slot, holding the previous
	// Sync's watermark, must still be believed (invariant 2).
	faultWatermark faultPoint = "watermark"
	// faultManifest cuts during the MANIFEST tmp→install rename — the old
	// manifest must survive until the new one's dir fsync (invariant 3).
	faultManifest faultPoint = "manifest"
	// faultArchive cuts inside a cold-store object install — the
	// temporary's write or fsync, or the rename onto the final name — so
	// the hot segment must stay parked until the object is fully durable,
	// and the reopened store must hold the object whole or not at all
	// (invariants 5/5b/7).
	faultArchive faultPoint = "archive"
	// faultPartitionFlush (LogPartitions >= 2 only) cuts exactly one
	// randomly chosen lane's segment fsync while the other lanes keep
	// hardening — the Appendix A.5 scenario. The flush-dependency limiter
	// must have kept every surviving log free of records whose cross-log
	// predecessor died with the cut lane's tail, and recovery's merge must
	// verify that (ErrDependencyViolated otherwise).
	faultPartitionFlush faultPoint = "partition-flush"
	// faultRemoteArchive (opt-in: arming it moves the cold store off the
	// machine, into a MemObjectStore passed as Options.RemoteStore that
	// persists across power cuts, because it is the cloud) either tears an
	// upload mid-object with a simultaneous local power cut — the store
	// keeps a torn prefix the next incarnation must detect and re-ship —
	// or opens an outage window for the rest of the cycle: every upload
	// fails, and segments stay parked under the archive-before-recycle
	// rule.
	faultRemoteArchive faultPoint = "remote-archive"
	// forcedCut counts cycles whose armed trigger never fired and whose
	// power was cut at workload end instead.
	forcedCut faultPoint = "forced"
)

// localFaultPoints is the default profile of a one-lane database;
// allFaultPoints adds the partitioned and the opt-in cloud point.
var (
	localFaultPoints = []faultPoint{
		faultGroupCommit, faultPageCommit, faultPagefile,
		faultWatermark, faultManifest, faultArchive,
	}
	allFaultPoints = append(localFaultPoints[:len(localFaultPoints):len(localFaultPoints)],
		faultPartitionFlush, faultRemoteArchive)
)

// The database every incarnation opens: small segments and checkpoint
// thresholds, and a cache far smaller than the working set, so a short
// cycle already recycles segments, archives them, steals and cleans.
const (
	soakLogDir     = "/db"
	soakArchiveDir = "/cold"
	soakFiller     = 120 // row bytes past key and value: log volume to churn segments
)

// soakConfig parameterizes one soak run.
type soakConfig struct {
	seed   int64
	cycles int
	txns   int          // transactions per cycle before the harness cuts
	keys   int          // key-space size: small enough that updates and deletes hit live rows, large enough that the table spans several pages and a pagefile batch carries more than one
	points []faultPoint // profile cycles pick from; empty is the default profile
	parts  int          // Options.LogPartitions
	logf   func(format string, args ...any)
}

// soakResult summarizes a completed soak run.
type soakResult struct {
	commits int
	// inDoubt counts cycles that ended with a commit that errored mid
	// flush; inDoubtSurvived, those whose transaction recovery kept.
	inDoubt, inDoubtSurvived int
	cuts                     map[faultPoint]int // real cuts per point, plus forcedCut
	tornBytes                int64              // torn-tail bytes recovery discarded
	clearedReopens           int                // reopens that cleared slots a pagefile batch left uncommitted
}

// soakDivergence is the report for a cycle whose recovered state
// matched neither accepted outcome: everything needed to reproduce it.
type soakDivergence struct {
	cfg   soakConfig
	cycle int        // the crash-recover round that diverged, counting from 0
	point faultPoint // the fault armed in the cycle before the failed check
	diffs []string
	trace []vfs.TraceEntry // the fault filesystem's op trace leading up to it
}

func (d *soakDivergence) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak: divergence at cycle %d (fault %s): %d diffs\n"+
		"replay with: go test -run '^TestSoak$' . -args -soak.seed %d -soak.cycles %d -soak.txns %d -soak.keys %d -soak.points %s -soak.log-partitions %d",
		d.cycle, d.point, len(d.diffs), d.cfg.seed, max(d.cycle, 1), d.cfg.txns, d.cfg.keys, joinPoints(d.cfg.points), d.cfg.parts)
	for i, diff := range d.diffs {
		if i == 8 {
			fmt.Fprintf(&b, "\n  ... %d more", len(d.diffs)-i)
			break
		}
		b.WriteString("\n  " + diff)
	}
	b.WriteString("\nfault-fs trace tail:")
	for _, e := range d.trace {
		b.WriteString("\n  " + e.String())
	}
	return b.String()
}

func joinPoints(points []faultPoint) string {
	names := make([]string, len(points))
	for i, p := range points {
		names[i] = string(p)
	}
	return strings.Join(names, ",")
}

// parseFaultPoints reads a -soak.points list; "" is the default profile.
func parseFaultPoints(s string) ([]faultPoint, error) {
	if s == "" {
		return nil, nil
	}
	var out []faultPoint
	for _, name := range strings.Split(s, ",") {
		p := faultPoint(strings.TrimSpace(name))
		known := false
		for _, q := range allFaultPoints {
			known = known || p == q
		}
		if !known {
			return nil, fmt.Errorf("unknown fault point %q (valid: %s)", p, joinPoints(allFaultPoints))
		}
		out = append(out, p)
	}
	return out, nil
}

// archives reports whether the profile arms a cold-store point. Without
// one the database has no cold store, like the gated benchmark workloads.
func (c soakConfig) archives() bool {
	for _, p := range c.points {
		if p == faultArchive || p == faultRemoteArchive {
			return true
		}
	}
	return false
}

// openSoakDB opens the next incarnation through Open and re-creates the
// soak's table. The cold store is the cloud when there is one, else a
// directory on fs — where power cuts reach it too — when the profile
// arms the archive point, else none.
func openSoakDB(fs *vfs.FaultFS, cfg soakConfig, cloud *MemObjectStore) (*DB, *Table, error) {
	n := uint64(max(cfg.parts, 1))
	opts := Options{
		LogPath:              soakLogDir,
		SegmentSize:          4096,
		CheckpointEveryBytes: 8192,
		CachePages:           8,
		CleanerPages:         4,
		PrefetchDepth:        4,
		DeadlockTimeout:      300 * time.Millisecond,
		Buffer:               BufferCD,
		Mode:                 CommitSync,
		LogPartitions:        cfg.parts,
		// Route by txnID: the sequential workload's consecutive
		// transactions land on different lanes, so a page's update chain
		// keeps crossing logs — the A.5 stress pattern.
		RoutePartition: func(txnID uint64, _ uint32) int { return int(txnID % n) },
		fs:             fs,
	}
	switch {
	case cloud != nil:
		// The cloud also takes snapshots and prunes behind them, so every
		// recovery's RestoreTo check restores from one.
		opts.RemoteStore = cloud
		opts.SnapshotEveryBytes, opts.RetainSnapshots = 8192, 2
	case cfg.archives():
		opts.ArchiveDir = soakArchiveDir
	}
	db, err := Open(opts)
	if err != nil {
		return nil, nil, err
	}
	tbl, err := db.CreateTable("soak")
	if err == nil {
		err = db.RebuildAfterRecovery()
	}
	if err != nil {
		db.Close()
		return nil, nil, fmt.Errorf("rebuild: %w", err)
	}
	return db, tbl, nil
}

// armFault installs the cycle's power-cut rule and returns its index.
// The depth is randomized so the cut lands at a different point of the
// matching operation stream every cycle. On a partitioned log the
// log-directory points target one randomly chosen lane — vfs.Rule.Dir
// matches the op's parent directory exactly, and a lane keeps its
// segments and MANIFEST under p<i> (only pagefile.db stays at the
// root) — and the archive point targets where that lane's
// segment objects are installed: seg/ under its cold-store prefix.
func armFault(fs *vfs.FaultFS, rng *rand.Rand, point faultPoint, parts int) int {
	logDir, archDir := soakLogDir, soakArchiveDir
	if parts >= 2 {
		k := rng.Intn(parts)
		logDir = logdev.LaneDir(soakLogDir, k, parts)
		archDir = logdev.LaneDir(soakArchiveDir, k, parts)
	}
	pick := func(ops ...vfs.Op) vfs.Op { return ops[rng.Intn(len(ops))] }
	var r vfs.Rule
	switch point {
	case faultGroupCommit:
		r = vfs.Rule{Op: vfs.OpSync, Dir: logDir, Path: "*.seg", After: rng.Intn(24)}
	case faultPageCommit:
		// The only pagefile writes inside the 4 KiB header block after
		// Open are commit records, and its fsyncs alternate between a
		// batch's images and its commit record: odd After values pick a
		// commit fsync.
		if rng.Intn(2) == 0 {
			r = vfs.Rule{Op: vfs.OpWrite, Dir: soakLogDir, Path: "pagefile.db", OffBelow: 4096, After: rng.Intn(3)}
		} else {
			r = vfs.Rule{Op: vfs.OpSync, Dir: soakLogDir, Path: "pagefile.db", After: 2*rng.Intn(3) + 1}
		}
	case faultPagefile:
		r = vfs.Rule{Op: pick(vfs.OpWrite, vfs.OpSync), Dir: soakLogDir, Path: "pagefile.db", After: rng.Intn(6)}
	case faultWatermark:
		r = vfs.Rule{Op: vfs.OpWrite, Dir: logDir, Path: "*.seg", OffBelow: logdev.SegmentHeaderSize, After: rng.Intn(16)}
	case faultManifest:
		r = vfs.Rule{Op: vfs.OpRename, Dir: logDir, Path: "MANIFEST", After: rng.Intn(3)}
	case faultArchive:
		r = vfs.Rule{Op: pick(vfs.OpWrite, vfs.OpRename, vfs.OpSync), Dir: archDir + "/seg", After: rng.Intn(4)}
	case faultPartitionFlush:
		// One lane's group-commit fsync dies early while the others keep
		// flushing: the surviving logs race ahead of the dead one, and the
		// dependency limiter is all that keeps their durable tails
		// consistent with the merge order.
		r = vfs.Rule{Op: vfs.OpSync, Dir: logDir, Path: "*.seg", After: rng.Intn(8)}
	default:
		panic(fmt.Sprintf("soak: unknown fault point %q", point))
	}
	r.Cut = true
	return fs.AddRule(r)
}

// armRemoteFault arms the cycle's cloud fault: either an upload (at a
// randomized depth) tears mid-object with a simultaneous local power cut,
// or an outage window fails every upload for the rest of the cycle.
func armRemoteFault(cloud *MemObjectStore, fs *vfs.FaultFS, rng *rand.Rand) {
	if rng.Intn(2) == 0 {
		cloud.Arm(logdev.NetFault{TearPutAfter: 1 + rng.Intn(3), OnTear: fs.PowerCut})
	} else {
		cloud.Arm(logdev.NetFault{Outage: errors.New("soak: cloud outage window")})
	}
}

// soakOp is one staged mutation of a workload transaction.
type soakOp struct {
	del      bool
	key, val uint64
}

// applyOps returns model with ops applied (model itself untouched).
func applyOps(model map[uint64]uint64, ops []soakOp) map[uint64]uint64 {
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

// diffStates lists the differences between want and got (empty = equal).
func diffStates(want, got map[uint64]uint64) []string {
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
	sort.Strings(diffs)
	return diffs
}

// checkRecovered matches got against the two accepted outcomes. It
// returns nil and whether the in-doubt transaction landed on a match,
// else the diffs against the closer outcome.
func checkRecovered(model map[uint64]uint64, inDoubt []soakOp, got map[uint64]uint64) (diffs []string, landed bool) {
	diffs = diffStates(model, got)
	if len(diffs) == 0 || inDoubt == nil {
		return diffs, false
	}
	d2 := diffStates(applyOps(model, inDoubt), got)
	if len(d2) == 0 {
		return nil, true
	}
	if len(d2) < len(diffs) {
		return d2, false
	}
	return diffs, false
}

// soakRow encodes a row: the key (Row's index-rebuild prefix), the
// 8-byte little-endian value, then deterministic filler for log volume.
func soakRow(key, val uint64) []byte {
	payload := make([]byte, 8+soakFiller)
	binary.LittleEndian.PutUint64(payload, val)
	for i := range payload[8:] {
		payload[8+i] = byte(val + uint64(i))
	}
	return Row(key, payload)
}

func soakValue(row []byte) uint64 {
	if p := RowPayload(row); len(p) >= 8 {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// readSoakState scans the recovered table into a key→value map.
func readSoakState(db *DB, tbl *Table, maxKey uint64) (map[uint64]uint64, error) {
	s := db.Session()
	defer s.Close()
	tx := s.Begin()
	out := make(map[uint64]uint64)
	err := tx.Scan(tbl, 0, maxKey, func(key uint64, row []byte) bool {
		out[key] = soakValue(row)
		return true
	})
	if err != nil {
		tx.Abort()
		return nil, err
	}
	return out, tx.Commit()
}

// checkRestore restores db to its durable end and diffs the result
// against the recovered state got.
func checkRestore(db *DB, got map[uint64]uint64, maxKey uint64) []string {
	at := db.RestorePoint()
	r, err := db.RestoreTo(at)
	if err != nil {
		return []string{fmt.Sprintf("RestoreTo(%d) after recovery: %v", at, err)}
	}
	defer r.Close()
	restored := make(map[uint64]uint64)
	if err := r.Scan("soak", func(key uint64, row []byte) bool {
		if key <= maxKey {
			restored[key] = soakValue(row)
		}
		return true
	}); err != nil {
		return []string{fmt.Sprintf("scanning RestoreTo(%d): %v", at, err)}
	}
	var diffs []string
	for _, d := range diffStates(got, restored) {
		diffs = append(diffs, fmt.Sprintf("RestoreTo(%d) vs recovered: %s", at, d))
	}
	return diffs
}

// checkNoDeadSegments checkpoints a database without a cold store and
// lists what of its dead log survived: the truncation is the only thing
// that recycles a dead segment there, so none may be left, whatever the
// power cuts brought back.
func checkNoDeadSegments(db *DB) []string {
	if err := db.Checkpoint(); err != nil {
		return []string{fmt.Sprintf("checkpoint after recovery: %v", err)}
	}
	var diffs []string
	if n := db.Stats().LogSegmentsPendingArchive; n != 0 {
		diffs = append(diffs, fmt.Sprintf("LogSegmentsPendingArchive = %d after a checkpoint, want 0", n))
	}
	dead, err := deadSegmentFiles(db)
	if err != nil {
		return append(diffs, fmt.Sprintf("listing segment files: %v", err))
	}
	for _, f := range dead {
		diffs = append(diffs, fmt.Sprintf("dead segment file %s outlived a checkpoint", f))
	}
	return diffs
}

// runSoakWorkload runs seeded transactions until the cycle's budget is
// spent or an injected fault surfaces. It returns the number of
// successful commits and the ops of the in-doubt transaction (non-nil
// only when Commit itself errored — the one transaction whose outcome
// the cut left undecided), and updates model in place with every
// committed transaction.
func runSoakWorkload(db *DB, tbl *Table, rng *rand.Rand, model map[uint64]uint64, cfg soakConfig) (commits int, inDoubt []soakOp) {
	s := db.Session()
	defer s.Close()
	for t := 0; t < cfg.txns; t++ {
		tx := s.Begin()
		staged := make([]soakOp, 0, 3)
		view := applyOps(model, nil)
		for i, nOps := 0, 1+rng.Intn(3); i < nOps; i++ {
			key := uint64(1 + rng.Intn(cfg.keys))
			_, exists := view[key]
			o := soakOp{key: key}
			var err error
			switch {
			case !exists:
				o.val = rng.Uint64() % 1_000_000
				err = tx.Insert(tbl, key, soakRow(key, o.val))
			case rng.Intn(4) == 0:
				o.del = true
				err = tx.Delete(tbl, key)
			default:
				o.val = rng.Uint64() % 1_000_000
				err = tx.Update(tbl, key, func([]byte) ([]byte, error) { return soakRow(key, o.val), nil })
			}
			if err != nil {
				// The op itself failed (the cut reached the log path): the
				// transaction never committed, so it must roll back
				// entirely — nothing is in doubt.
				tx.Abort()
				return commits, nil
			}
			staged = append(staged, o)
			view = applyOps(view, []soakOp{o})
		}
		if err := tx.Commit(); err != nil {
			// The commit record may or may not be durable. Exactly this
			// one transaction is in doubt: the workload is sequential, so
			// no other commit was in flight.
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

// runSoak executes cfg.cycles rounds of Open → verify → seeded workload →
// power cut → Close → Recover, all over one FaultFS whose durable state
// persists across cycles, and a last Open that verifies the end state.
// It returns a *soakDivergence when a recovered state matches neither
// the committed model nor the model plus the in-doubt transaction.
func runSoak(cfg soakConfig) (soakResult, error) {
	res := soakResult{cuts: make(map[faultPoint]int)}
	if len(cfg.points) == 0 {
		cfg.points = localFaultPoints
		if cfg.parts >= 2 {
			cfg.points = append(localFaultPoints[:len(localFaultPoints):len(localFaultPoints)], faultPartitionFlush)
		}
	}
	// Arming remote-archive anywhere in the profile puts the whole run on
	// the cloud tier. The store outlives every power cut: whatever was
	// durably uploaded before a cut must still restore afterwards.
	var cloud *MemObjectStore
	for _, p := range cfg.points {
		if p == faultPartitionFlush && cfg.parts < 2 {
			return res, fmt.Errorf("soak: fault point %s needs 2 or more log partitions", p)
		}
		if p == faultRemoteArchive && cloud == nil {
			cloud = NewMemObjectStore()
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	fs := vfs.NewFaultFS(cfg.seed + 1)
	fs.SetTornWrites(true)
	model := make(map[uint64]uint64)
	var inDoubt []soakOp
	var point faultPoint
	diverged := func(cycle int, diffs ...string) error {
		tr := fs.Trace()
		return &soakDivergence{cfg: cfg, cycle: cycle, point: point, diffs: diffs, trace: tr[max(len(tr)-40, 0):]}
	}

	for cycle := 0; ; cycle++ {
		db, tbl, err := openSoakDB(fs, cfg, cloud)
		if err != nil {
			return res, diverged(cycle, fmt.Sprintf("reopen failed: %v", err))
		}
		res.tornBytes += db.Stats().LogTornTailRepaired
		if db.archive.(*storage.PageFile).Cleared() > 0 {
			res.clearedReopens++
		}
		// The previous cycle's in-doubt transaction may have landed or
		// not, but only atomically.
		got, err := readSoakState(db, tbl, uint64(cfg.keys)+1)
		diffs, landed := checkRecovered(model, inDoubt, got)
		if err != nil {
			diffs = []string{fmt.Sprintf("reading recovered state: %v", err)}
		}
		if len(diffs) == 0 && cloud != nil {
			// A restore is a restart that stops: restoring the recovered
			// durable end must give back exactly the recovered state.
			diffs = checkRestore(db, got, uint64(cfg.keys)+1)
		}
		if len(diffs) == 0 && !cfg.archives() {
			diffs = checkNoDeadSegments(db)
		}
		if len(diffs) > 0 {
			db.Close()
			return res, diverged(cycle, diffs...)
		}
		if landed {
			res.inDoubtSurvived++
		}
		model, inDoubt = got, nil
		if cycle == cfg.cycles {
			return res, db.Close()
		}

		// Arm this cycle's fault and run the workload into it.
		point = cfg.points[rng.Intn(len(cfg.points))]
		// A rule fires when its cut lands; a cloud fault, when the network
		// model bit an upload.
		var fired func() bool
		if point == faultRemoteArchive {
			pre := cloud.Stats()
			armRemoteFault(cloud, fs, rng)
			fired = func() bool {
				st := cloud.Stats()
				return st.TornPuts > pre.TornPuts || st.PutErrors > pre.PutErrors
			}
		} else {
			rule := armFault(fs, rng, point, cfg.parts)
			fired = func() bool { return fs.RuleStats()[rule].Fired > 0 }
		}
		commits, doubt := runSoakWorkload(db, tbl, rng, model, cfg)
		res.commits += commits
		if inDoubt = doubt; inDoubt != nil {
			res.inDoubt++
		}
		if !fired() {
			// The pagecommit, pagefile, manifest and archive sites and the
			// uploads are reached by the background checkpointer and
			// archiver, which a short workload can finish ahead of. Drive
			// the same path once by hand so the armed fault gets its chance;
			// errors are the fault landing (or nothing to do).
			_ = db.Checkpoint()
			for _, l := range db.lanes {
				_, _ = l.seg.ArchivePending()
			}
		}

		// Every cycle ends in a power cut, if not at the armed site then
		// now (an outage cuts nothing by itself; a cut is idempotent).
		hit := fired()
		fs.PowerCut()
		if hit {
			res.cuts[point]++
		} else {
			res.cuts[forcedCut]++
		}
		db.Close() // an error storm against the frozen filesystem
		fs.ClearRules()
		if cloud != nil {
			// Outage and tear windows end with the cycle; the cloud, and
			// any torn object it kept, persists.
			cloud.Arm(logdev.NetFault{})
		}
		fs.Recover()
		cfg.logf("cycle %d: fault=%s fired=%v commits=%d model=%d keys", cycle, point, hit, res.commits, len(model))
	}
}

// soak runs cfg under t, failing it on a divergence or a storm that
// committed nothing.
func soak(t *testing.T, cfg soakConfig) soakResult {
	t.Helper()
	cfg.logf = t.Logf
	res, err := runSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.commits == 0 {
		t.Fatal("no transactions committed across the storm")
	}
	return res
}

// requireCuts fails t unless each point landed at least one real cut: a
// point whose rule never fires passes on forced cuts alone, vacuously.
func requireCuts(t *testing.T, res soakResult, points ...faultPoint) {
	t.Helper()
	for _, p := range points {
		if res.cuts[p] == 0 {
			t.Errorf("no cut landed at %s (cuts: %v); the run is vacuous there", p, res.cuts)
		}
	}
}

// TestSoak is the long crash storm, configured by the -soak.* flags and
// skipped unless -soak.cycles is set (make soak, soak-smoke, soak-race).
func TestSoak(t *testing.T) {
	if *soakCyclesFlag <= 0 {
		t.Skip("crash storm off: set -soak.cycles")
	}
	points, err := parseFaultPoints(*soakPointsFlag)
	if err != nil {
		t.Fatal(err)
	}
	res := soak(t, soakConfig{
		seed:   *soakSeedFlag,
		cycles: *soakCyclesFlag,
		txns:   *soakTxnsFlag,
		keys:   *soakKeysFlag,
		points: points,
		parts:  *soakPartsFlag,
	})
	var cuts []string
	for _, p := range allFaultPoints {
		if n := res.cuts[p]; n > 0 {
			cuts = append(cuts, fmt.Sprintf("%s=%d", p, n))
		}
	}
	cuts = append(cuts, fmt.Sprintf("%s=%d", forcedCut, res.cuts[forcedCut]))
	t.Logf("soak PASS: %d cycles, %d commits, %d in-doubt (%d survived); torn-tail bytes repaired %d, reopens clearing uncommitted pagefile slots %d; cuts %s",
		*soakCyclesFlag, res.commits, res.inDoubt, res.inDoubtSurvived, res.tornBytes, res.clearedReopens, strings.Join(cuts, " "))
}

// TestSoakShortStorm runs a compact crash storm across the full one-lane
// profile and requires zero model divergences.
func TestSoakShortStorm(t *testing.T) {
	res := soak(t, soakConfig{seed: 42, cycles: 12, txns: 25, keys: 32})
	total := 0
	for _, n := range res.cuts {
		total += n
	}
	if total != 12 {
		t.Fatalf("cut counts sum to %d, want one cut per cycle (12)", total)
	}
}

// TestSoakSingleFaultPoints pins each fault point individually so a
// regression in one recovery path names its site directly, and requires
// every point to land a real cut.
func TestSoakSingleFaultPoints(t *testing.T) {
	for _, p := range localFaultPoints {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			res := soak(t, soakConfig{seed: 7, cycles: 12, txns: 20, keys: 200, points: []faultPoint{p}})
			requireCuts(t, res, p)
		})
	}
}

// TestSoakPartitionedStorm runs the crash storm against a 3-lane log
// with the full partitioned profile, the one-lane-cut point included. A
// clean pass means every recovery merged the surviving logs without a
// flush-dependency violation and the model checker saw only committed
// state (plus at most the one in-doubt transaction) after every cut.
func TestSoakPartitionedStorm(t *testing.T) {
	soak(t, soakConfig{seed: 1234, cycles: 12, txns: 25, keys: 32, parts: 3})
}

// TestSoakPartitionFlushPoint pins the Appendix A.5 cut site alone:
// every cycle kills exactly one randomly chosen lane's segment fsync
// while the other lanes continue flushing.
func TestSoakPartitionFlushPoint(t *testing.T) {
	res := soak(t, soakConfig{seed: 9, cycles: 8, txns: 20, keys: 24, parts: 3, points: []faultPoint{faultPartitionFlush}})
	requireCuts(t, res, faultPartitionFlush)
}

// TestSoakRemoteArchivePoint pins the cloud-tier cut site: the cold
// store is a MemObjectStore that survives power cuts, and each armed
// cycle tears an upload mid-object with a simultaneous local power cut
// or opens an outage window. A clean pass means no committed transaction
// was lost to a torn or failed upload and no parked segment was recycled
// before its bytes were durably in the cloud.
func TestSoakRemoteArchivePoint(t *testing.T) {
	res := soak(t, soakConfig{seed: 11, cycles: 10, txns: 25, keys: 32, points: []faultPoint{faultRemoteArchive, faultGroupCommit}})
	requireCuts(t, res, faultRemoteArchive)
}

// TestSoakRemoteArchivePartitioned runs the cloud-tier cut site against
// a 3-lane log: one remote lane per partition in the shared store.
func TestSoakRemoteArchivePartitioned(t *testing.T) {
	res := soak(t, soakConfig{seed: 23, cycles: 8, txns: 20, keys: 24, parts: 3, points: []faultPoint{faultRemoteArchive, faultPartitionFlush}})
	requireCuts(t, res, faultRemoteArchive, faultPartitionFlush)
}

// TestSoakPartitionPointRequiresPartitions rejects a profile that arms
// the one-lane cut on a one-lane log, before running anything.
func TestSoakPartitionPointRequiresPartitions(t *testing.T) {
	_, err := runSoak(soakConfig{seed: 1, cycles: 1, points: []faultPoint{faultPartitionFlush}, logf: t.Logf})
	var d *soakDivergence
	if err == nil || errors.As(err, &d) {
		t.Fatalf("partition-flush on one lane: got %v, want a configuration error", err)
	}
}

// TestDiffStates pins the model comparator: lost, changed, and
// resurrected keys must all surface as distinct diffs.
func TestDiffStates(t *testing.T) {
	want := map[uint64]uint64{1: 10, 2: 20, 3: 30}
	got := map[uint64]uint64{1: 10, 2: 99, 4: 40}
	if diffs := diffStates(want, got); len(diffs) != 3 {
		t.Fatalf("got %d diffs, want 3 (changed, lost, resurrected): %v", len(diffs), diffs)
	}
	if len(diffStates(want, want)) != 0 {
		t.Fatal("identical states reported diffs")
	}
}

// TestApplyOpsAtomic verifies the in-doubt overlay applies a whole
// transaction without mutating the base model.
func TestApplyOpsAtomic(t *testing.T) {
	base := map[uint64]uint64{1: 10, 2: 20}
	out := applyOps(base, []soakOp{{key: 1, del: true}, {key: 3, val: 30}})
	if len(base) != 2 || base[1] != 10 {
		t.Fatalf("applyOps mutated its input: %v", base)
	}
	if _, ok := out[1]; ok {
		t.Fatal("delete not applied in overlay")
	}
	if out[3] != 30 {
		t.Fatalf("insert not applied in overlay: %v", out)
	}
}

// TestIsDivergence pins the divergence report: it stays recognizable
// through wrapping, and it names the cycle, the fault, the diffs, the
// trace tail and the TestSoak flags that replay it.
func TestIsDivergence(t *testing.T) {
	cfg := soakConfig{seed: 5, txns: 20, keys: 24, points: []faultPoint{faultPageCommit, faultArchive}, parts: 3}
	err := fmt.Errorf("run: %w", &soakDivergence{
		cfg: cfg, cycle: 2, point: faultPageCommit,
		diffs: []string{"key 1 lost (want value 10)"},
		trace: []vfs.TraceEntry{{Seq: 9, Op: vfs.OpSync, Path: "/db/pagefile.db"}},
	})
	var d *soakDivergence
	if !errors.As(err, &d) {
		t.Fatal("divergence not recognized")
	}
	if errors.As(errors.New("plain"), &d) {
		t.Fatal("plain error misclassified as divergence")
	}
	msg := err.Error()
	for _, want := range []string{
		"cycle 2", "fault pagecommit", "key 1 lost", "#9 sync /db/pagefile.db",
		"-soak.seed 5 -soak.cycles 2 -soak.txns 20 -soak.keys 24 -soak.points pagecommit,archive -soak.log-partitions 3",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("divergence report lacks %q:\n%s", want, msg)
		}
	}
}
