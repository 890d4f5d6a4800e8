# Tier-1 verification is `make ci` (build + vet + docs + test + race + logbuf race + group-commit race + lock race + soak, race-soak and fuzz smokes).
GO ?= go

.PHONY: build test test-short test-race logbuf-race group-commit-race lock-race vet docs bench-pair alloc-profile restart-profile load-profile soak-smoke soak soak-race soak-race-long fuzz-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Skips the multi-second stress soaks (logbuf ring stress, randomized
# crash/recovery rounds) for a fast inner loop.
test-short:
	$(GO) test -short ./...

# Every package under the race detector, stress soaks skipped.
test-race:
	$(GO) test -race -short ./...

# The log buffer's concurrent stress tests under the race detector, over
# every variant: test-race's -short skips them, and they are the only
# tests where inserts race each other through the consolidation array,
# the cross-goroutine unlock of a locked-release group and the release
# queue.
LOGBUF_STRESS = TestConcurrentNoGapsNoOverlap|TestSkewedSizes|TestWraparound|TestCDStallDiagnostic
logbuf-race:
	$(GO) test -race -count=1 -run '^($(LOGBUF_STRESS))$$' ./internal/logbuf

# The flush daemon's group-commit tests, twenty times each under the race
# detector: what they assert depends on how commits, the daemon's passes
# and the device's syncs interleave, so one clean run proves little.
# -short, as in test-race: under the race detector inserters spinning in
# the log buffer can convoy (ROADMAP item 3), which the tests' -short
# bounds allow for.
GROUP_COMMIT_TESTS = TestNextGroupFillsDuringFlush|TestPipelineIsOneGroup|TestSparseDetachedCommitsGroup|TestGroupCommitBatches|TestFlushPacing|TestFlushTrigger
group-commit-race:
	$(GO) test -race -short -count=20 -run '^($(GROUP_COMMIT_TESTS))$$' ./internal/core

# The lock manager's escalation tests, twenty times each under the race
# detector: an escalation is granted or refused depending on what other
# transactions hold at that instant, and it races the agent cache's
# steal-or-adopt protocol.
lock-race:
	$(GO) test -race -count=20 -run '^TestEscalat' ./internal/lockmgr

# Besides go vet: every durable write in the engine goes through
# internal/vfs, where FaultFS and the soak can reach it. Non-test Go in the
# root package and internal/ (vfs itself aside) may not call os's
# file-writing functions; the read-only os.Open stays allowed. And there
# is one crash model: no non-test Go outside internal/vfs declares a
# Crash, CrashFreeze, Remount or PowerCut method, except aether's
# DB.Crash, which cuts the power of an in-memory database's FaultFS. And
# there is one way from log devices to a running engine, txn.Restart: no
# Go file, tests included, opens the log with core.NewMultiLog outside
# internal/core and internal/txn/restart.go, or builds an engine with
# newEngine outside restart.go. And the log manager does not reach the
# cold tier: the engine's cold-tier daemon drains the archiving lanes it
# is handed (txn.ColdConfig), so no non-test Go in internal/core calls or
# declares ArchivePending, HasArchiver or CanArchive. And the log is
# replayed one way, by restart (a restore is a restart that stops): no Go
# file, tests included, calls recovery's redo or compensate outside
# internal/recovery/recovery.go, or recovery.NewLaneMerge outside
# internal/recovery and cmd/logdump. And a transaction's slot is mapped
# back to its ID one way, by recovery's lane merge: non-test Go outside
# internal/logrec and internal/recovery/lanemerge.go neither indexes a
# table by a slot (a record's .Slot) nor assigns a record's TxnID. And a
# frame enters the buffer pool
# one way, storage's install: non-test Go under internal/storage holds
# exactly one assignment into a shard's page map. And the log device keeps
# one set of segment files, live and dead alike, and recycles the dead
# ones by one drain: non-test Go under internal/logdev declares exactly
# one struct field of type map[int64]*fileSegment. And the paper's
# figures have one run loop and their workloads one loader: non-test Go
# under internal/bench calls workload.RunClosedLoop only in harness.go,
# and non-test Go under internal/workload calls CreateTable only in
# load.go. The run loop is also the one place there that builds an
# engine: non-test Go under internal/bench calls txn.Restart only in
# harness.go. And every logged byte carries one checksum, its batch's
# seal, which the flush daemon computes once: non-test Go under
# internal/logdev calls no crc32.Update (a watermark slot's CRC covers
# the slot, the cold-store envelope's its object, each in one
# crc32.Checksum), and internal/logdev/segment.go names no crc32 at all.
# And a transaction object is made one way, by its agent, which reuses
# the ones it got back (Agent.reuse): non-test Go holds exactly one
# &Txn{ or new(Txn) (txn. prefix or not), in internal/txn/engine.go.
vet:
	$(GO) vet ./...
	@bad="$$(grep -HnE '\bos\.(OpenFile|Create|WriteFile|Rename|Remove|MkdirAll|Truncate)\(' \
		$$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go'; \
		   find internal -name '*.go' ! -name '*_test.go' ! -path 'internal/vfs/*'))"; \
	if [ -n "$$bad" ]; then echo "durable writes must go through internal/vfs:"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -HnE '^func \([^)]*\) (Crash|CrashFreeze|Remount|PowerCut)\(' \
		$$(find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' ! -path './internal/vfs/*' -print) \
		| grep -vE '^\./aether\.go:[0-9]+:func \(db \*DB\) Crash\(\)')"; \
	if [ -n "$$bad" ]; then echo "power loss is simulated one way, by vfs.FaultFS (DB.Crash drives it):"; echo "$$bad"; exit 1; fi
	@gofiles="$$(find . -path './.*' -prune -o -name '*.go' ! -path './internal/txn/restart.go' -print)"; \
	bad="$$(grep -HnE '\bNewMultiLog\(' $$gofiles | grep -v '^\./internal/core/'; \
		grep -HnE '\bnewEngine\(' $$gofiles | grep -vE ':[0-9]+:func newEngine\(')"; \
	if [ -n "$$bad" ]; then echo "an engine is assembled one way, by txn.Restart:"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -HnE '\b(ArchivePending|HasArchiver|CanArchive)\b' $$(find internal/core -name '*.go' ! -name '*_test.go'))"; \
	if [ -n "$$bad" ]; then echo "the cold tier is the engine's, not the log manager's (txn.ColdConfig):"; echo "$$bad"; exit 1; fi
	@gofiles="$$(find . -path './.*' -prune -o -name '*.go' -print)"; \
	bad="$$(grep -HnE '\b(redo|compensate)\(' $$gofiles | grep -vE '^\./internal/recovery/recovery\.go:'; \
		grep -HnE '\bNewLaneMerge\(' $$gofiles | grep -vE '^\./(internal/recovery|cmd/logdump)/')"; \
	if [ -n "$$bad" ]; then echo "the log is replayed one way, by restart (a restore is a restart that stops):"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -HnE '\[[^]]*\.Slot\]|\.TxnID[[:space:]]*=[^=]' \
		$$(find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' ! -path './internal/logrec/*' ! -path './internal/recovery/lanemerge.go' -print))"; \
	if [ -n "$$bad" ]; then echo "a slot is resolved one way, by recovery's lane merge (internal/recovery/lanemerge.go):"; echo "$$bad"; exit 1; fi
	@hits="$$(grep -HnE '\.pages\[[^]]*\][[:space:]]*=[^=]' $$(find internal/storage -name '*.go' ! -name '*_test.go'))"; \
	if [ "$$(printf '%s\n' "$$hits" | grep -c .)" -ne 1 ]; then echo "a frame enters the buffer pool one way, storage's install (one assignment into a shard's page map):"; echo "$$hits"; exit 1; fi
	@hits="$$(grep -HnE '^[[:space:]]+[A-Za-z_][A-Za-z0-9_]*([[:space:]]*,[[:space:]]*[A-Za-z_][A-Za-z0-9_]*)*[[:space:]]+map\[int64\]\*fileSegment\b' \
		$$(find internal/logdev -name '*.go' ! -name '*_test.go'))"; \
	fields="$$(printf '%s\n' "$$hits" | sed -E 's/^[^:]*:[0-9]+:[[:space:]]*//; s/[[:space:]]+map\[int64\].*//' | tr ',' '\n' | grep -c .)"; \
	if [ "$$fields" -ne 1 ]; then echo "the log device keeps one set of segment files, drained one way (one map[int64]*fileSegment field):"; echo "$$hits"; exit 1; fi
	@bad="$$(grep -HnE '\b(RunClosedLoop|txn\.Restart)\(' $$(find internal/bench -name '*.go' ! -name '*_test.go' ! -path internal/bench/harness.go))"; \
	if [ -n "$$bad" ]; then echo "a figure drives the engine one way, through internal/bench/harness.go's run loop:"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -HnE '\bCreateTable\(' $$(find internal/workload -name '*.go' ! -name '*_test.go' ! -path internal/workload/load.go))"; \
	if [ -n "$$bad" ]; then echo "a workload's tables are created and loaded one way, by internal/workload/load.go:"; echo "$$bad"; exit 1; fi
	@bad="$$(awk 'FNR == 1 { d = 0 } \
		{ s = $$0; if (d == 0) { i = index(s, "logbuf.Config{"); if (i == 0) next; s = substr(s, i + 13) } \
		  lit = ""; for (k = 1; k <= length(s); k++) { c = substr(s, k, 1); \
		    if (c == "{") d++; else if (c == "}" && --d == 0) break; lit = lit c } \
		  if (lit ~ /(^|[{,[:space:]])Size:/) print FILENAME ":" FNR ":" $$0 }' \
		$$(find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' ! -path './internal/logbuf/*' ! -path './internal/bench/*' ! -path './benchmark/*' -print))"; \
	if [ -n "$$bad" ]; then echo "a log lane has one ring size, logbuf.DefaultSize (only the figure rigs in internal/bench and the benchmark's probes name their own):"; echo "$$bad"; exit 1; fi
	@bad="$$( { grep -HnE '\bcrc32\.Update\(' $$(find internal/logdev -name '*.go' ! -name '*_test.go'); \
		grep -HnE '\bcrc32\.' internal/logdev/segment.go; } | sort -u)"; \
	if [ -n "$$bad" ]; then echo "logrec's seals are the one proof of a lane's bytes (a watermark slot's CRC covers the slot alone; logdev keeps no CRC of the log):"; echo "$$bad"; exit 1; fi
	@hits="$$(grep -HnE '&(txn\.)?Txn\{|\bnew\((txn\.)?Txn\)' \
		$$(find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print))"; \
	if [ "$$(printf '%s\n' "$$hits" | grep -c .)" -ne 1 ] || ! printf '%s\n' "$$hits" | grep -q '^\./internal/txn/engine\.go:'; then \
		echo "a txn.Txn is made one way, by its agent, which reuses its finished ones (Agent.reuse in internal/txn/engine.go):"; echo "$$hits"; exit 1; fi

# Documentation lint: formatting, vet, every example and command builds,
# and the godoc-coverage check — exported identifiers in EVERY internal
# package must carry doc comments. The package list is every internal/*/
# directory, so adding or deleting a package cannot leave it stale.
docs: vet
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) build ./examples/... ./cmd/...
	$(GO) run ./cmd/doccheck $(patsubst %/,./%,$(wildcard internal/*/))

# Paired before/after of the repository's benchmark (BENCHMARK.json,
# benchmark/README.md "Paired comparisons"): builds ./benchmark at BASE
# and in the working tree from the same benchmark/ sources, runs them
# alternated PAIRS times on WORKLOAD (a name, or all) and ends in
# -compare — the table every perf PR reports. TRACE=1 adds the traced
# per-layer metrics; SEED picks the first seed (handed over explicitly:
# the soak target's own SEED default stops make exporting it). Leaves
# its work under .bench_build/ (ignored).
bench-pair: BASE ?= HEAD~1
bench-pair: WORKLOAD ?= all
bench-pair: PAIRS ?= 10
bench-pair:
	SEED="$(SEED)" sh scripts/bench-pair.sh "$(BASE)" "$(WORKLOAD)" "$(PAIRS)"

# Where a transaction's allocated bytes come from: runs the root
# BenchmarkTPCBCommitPath (the TPC-B transaction shape through
# aether.Session; B/op is its alloc_bytes_per_txn) under a memory profile
# sampling every 4 KiB and prints the allocation sites by bytes. The
# repository benchmark has no profile flag, so this is how a per-site
# table for a commit-path change is reproduced. Leaves its test binary
# and profile under .bench_build/ (ignored).
alloc-profile: TXNS ?= 200000
alloc-profile:
	mkdir -p .bench_build/alloc
	$(GO) test -run '^$$' -bench '^BenchmarkTPCBCommitPath$$' -benchtime $(TXNS)x -benchmem \
		-memprofile mem.prof -memprofilerate 4096 -outputdir .bench_build/alloc -o .bench_build/alloc/aether.test .
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 25 .bench_build/alloc/aether.test .bench_build/alloc/mem.prof

# Where a restart's time and memory go: runs the root BenchmarkReopenTPCB
# (the repository benchmark's reopen — Open, CreateTable x4,
# RebuildAfterRecovery — over a 100 000-account TPC-B database with
# 80 000 history rows; ns/op is its recover_s) under a cpu profile and a
# memory profile sampling every 4 KiB and prints both by function. Leaves
# its test binary and profiles under .bench_build/ (ignored).
restart-profile: REOPENS ?= 30
restart-profile:
	mkdir -p .bench_build/restart
	$(GO) test -run '^$$' -bench '^BenchmarkReopenTPCB$$' -benchtime $(REOPENS)x -benchmem \
		-cpuprofile cpu.prof -memprofile mem.prof -memprofilerate 4096 -outputdir .bench_build/restart -o .bench_build/restart/aether.test .
	$(GO) tool pprof -top -nodecount 25 .bench_build/restart/aether.test .bench_build/restart/cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 15 .bench_build/restart/aether.test .bench_build/restart/mem.prof

# Where a bulk load's time and memory go: runs the root BenchmarkLoadTPCB
# (the repository benchmark's TPC-B load, which setup_s times: 100 000
# accounts and the branches and tellers in 1 000-row transactions, then a
# checkpoint; it also reports rows/s, lock heads pinned and slot entries
# read per row) under a cpu profile and a memory profile sampling every
# 4 KiB and prints both by function. Leaves its test binary and profiles
# under .bench_build/ (ignored).
load-profile: LOADS ?= 10
load-profile:
	mkdir -p .bench_build/load
	$(GO) test -run '^$$' -bench '^BenchmarkLoadTPCB$$' -benchtime $(LOADS)x -benchmem \
		-cpuprofile cpu.prof -memprofile mem.prof -memprofilerate 4096 -outputdir .bench_build/load -o .bench_build/load/aether.test .
	$(GO) tool pprof -top -nodecount 25 .bench_build/load/aether.test .bench_build/load/cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 15 .bench_build/load/aether.test .bench_build/load/mem.prof

# Crash-storm smoke: fixed-seed runs of the root package's TestSoak —
# every incarnation opened with aether.Open over the fault-injection
# filesystem. 25 power-cut/recover cycles across every fault point
# (group-commit, pagecommit, pagefile, watermark, manifest, archive), each
# cycle's recovered state checked against the committed-ops model, then
# 15 with no archive point armed, so with no cold store, as the gated
# benchmark workloads run: after every recovery a checkpoint must leave
# no dead segment file on disk, whatever the power cuts brought back, then
# 15 more against a 3-partition log whose profile adds the
# partition-flush point (one log's fsync dies while the others keep
# hardening; recovery's merge verifies no flush dependency was
# violated), then 15 with the opt-in remote-archive point: the cold
# store — in the first two profiles a directory of objects on the fault
# filesystem, where the archive point cuts inside an object's install —
# becomes a cloud object store that survives power cuts, and cycles tear
# uploads mid-object or open outage windows — recovery must
# never lose a committed transaction to a torn upload nor recycle a
# parked segment before its bytes are durably remote — and 10 more of
# those on a 3-partition log. With the cloud the database also takes
# snapshots and prunes behind them, and after every recovery RestoreTo
# of the durable end must give back the recovered state. Fast enough for
# every CI pass; `make soak` is the long form. -v prints each run's
# summary (cycles, commits, in-doubt commits, cuts per point).
SOAK = $(GO) test -v -run '^TestSoak$$' -count=1
soak-smoke:
	$(SOAK) . -args -soak.cycles 25 -soak.seed 1
	$(SOAK) . -args -soak.cycles 15 -soak.seed 4 -soak.points group-commit,manifest,watermark
	$(SOAK) . -args -soak.cycles 15 -soak.seed 2 -soak.log-partitions 3
	$(SOAK) . -args -soak.cycles 15 -soak.seed 3 -soak.points remote-archive,group-commit
	$(SOAK) . -args -soak.cycles 10 -soak.seed 6 -soak.points remote-archive,partition-flush -soak.log-partitions 3

# Long crash storm for release qualification / bug hunting. Pick a
# fresh seed to explore new fault schedules; a divergence prints the
# flags that replay it.
soak: SEED ?= 1
soak:
	$(SOAK) -timeout 0 . -args -soak.cycles 500 -soak.seed $(SEED)

# The soak-smoke profiles under the race detector, on seeds of their own
# (11-13, so their fault schedules differ from the smoke's): the engine's
# daemons race each other and recovery across power cuts. Six cycles a
# profile keep it to seconds; `make soak-race-long` is the long form.
soak-race:
	$(SOAK) -race . -args -soak.cycles 6 -soak.seed 11
	$(SOAK) -race . -args -soak.cycles 6 -soak.seed 12 -soak.log-partitions 3
	$(SOAK) -race . -args -soak.cycles 6 -soak.seed 13 -soak.points remote-archive,group-commit

# Long race-detector soak, for bug hunting: SEED picks the fault
# schedule, CYCLES its length.
soak-race-long: SEED ?= 1
soak-race-long: CYCLES ?= 100
soak-race-long:
	$(SOAK) -race -timeout 0 . -args -soak.cycles $(CYCLES) -soak.seed $(SEED)

# Short coverage-guided fuzz runs over the hostile-input decoders: the
# wire protocol's frames and requests, the cloud tier's object envelope
# and snapshot payload (only segment and snapshot objects decode), the
# segment header's durable watermark slots, and the log record with its
# update and checkpoint payloads — none may panic, over-allocate, or
# round-trip asymmetrically, no slot may be admitted over bytes that do
# not match its data CRC, and no record may have two spellings; the
# sealed record stream, where no changed or missing byte may let a record
# of a batch whose seal fails through; the slot resolver, which must name
# every record's true transaction over random agent histories, truncated
# bases and lost lane tails, on one lane and three; and the
# fault filesystem, which keeps one image per file, must recover every
# file as the two-image model in its tests does. Ten seconds
# per target is enough to exercise the mutation corpus on every CI pass
# (the record targets keep finding new coverage from a cold cache, and
# the fuzzer's default minute of minimizing each find would eat the ten
# seconds: it gets one); run `go test -fuzz` by hand with a longer
# -fuzztime to dig.
fuzz-smoke:
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzRequestRoundTrip$$' -fuzztime 10s
	$(GO) test ./internal/logdev -run '^$$' -fuzz '^FuzzRemoteObject$$' -fuzztime 10s
	$(GO) test ./internal/logdev -run '^$$' -fuzz '^FuzzSegmentHeader$$' -fuzztime 10s
	$(GO) test ./internal/logrec -run '^$$' -fuzz '^FuzzRecordDecode$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/logrec -run '^$$' -fuzz '^FuzzSealedStream$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/recovery -run '^$$' -fuzz '^FuzzSlotResolve$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/vfs -run '^$$' -fuzz '^FuzzFaultFSModel$$' -fuzztime 10s

# The last step fails if anything above left the checkout dirty: no
# target may rewrite a tracked file or drop an unignored one.
ci: build vet docs test test-race logbuf-race group-commit-race lock-race soak-smoke soak-race fuzz-smoke
	@dirty="$$(git status --porcelain)"; if [ -n "$$dirty" ]; then \
		echo "make ci left the checkout dirty:"; echo "$$dirty"; exit 1; fi
