// Command aetherd serves an aether database over TCP with the wire
// protocol (internal/wire): one goroutine plus one Session per
// connection, so concurrent commits from many clients consolidate into
// shared group-commit flushes — the paper's scalable logging measured
// over a real network path.
//
// Usage:
//
//	aetherd -db /var/lib/aether              # serve on the default address
//	aetherd -db ./data -addr 127.0.0.1:7890  # explicit address (use :0 for an ephemeral port)
//	aetherd -db ./data -mode sync            # default commit mode for transactions
//	aetherd -db ./data -log-partitions 4     # shard the log across 4 devices; the
//	                                         # metrics page gains per-partition
//	                                         # flush and dependency-stall counters
//
// The -db directory holds the write-ahead log and the page archive, both
// in the segmented log directory <db>/logseg, and a durable table
// catalog: every CreateTable appends the name to
// <db>/catalog (fsynced) so a restart re-creates the tables in their
// original order before recovery rebuilds the indexes. On startup
// aetherd prints "listening on ADDR" once it accepts connections;
// SIGINT/SIGTERM trigger a graceful drain (in-flight transactions
// finish, new connections are refused).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"aether"
	"aether/internal/vfs"
	"aether/internal/wire"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7890", "TCP listen address (use :0 for an ephemeral port)")
		dbDir      = flag.String("db", "", "database directory (required): log, page archive and table catalog live here")
		segSize    = flag.Int64("segment-size", 0, "log segment size in bytes (0 = the log's own size on reopen, 8 MiB for a new log)")
		logParts   = flag.Int("log-partitions", 0, "shard the log across N partitions with enforced inter-log flush dependencies (0/1 = single log)")
		ckptEvery  = flag.Int64("checkpoint-every", 8<<20, "background checkpoint cadence in appended log bytes (0 = manual only)")
		cachePages = flag.Int("cache-pages", 0, "buffer-pool budget in pages (0 = fully memory-resident)")
		cleaner    = flag.Int("cleaner-pages", 0, "background cleaner headroom in pages (0 = off)")
		mode       = flag.String("mode", "pipelined", "default commit mode: pipelined, sync, sync-elr, async")
		readTO     = flag.Duration("read-timeout", 2*time.Minute, "per-connection idle read deadline")
		writeTO    = flag.Duration("write-timeout", 10*time.Second, "per-frame write deadline (stalled-reader guard)")
		maxFrame   = flag.Uint("max-frame", wire.DefaultMaxFrame, "request frame size ceiling in bytes")
	)
	flag.Parse()
	if err := run(*addr, *dbDir, *segSize, *ckptEvery, *logParts, *cachePages, *cleaner, *mode, *readTO, *writeTO, uint32(*maxFrame)); err != nil {
		fmt.Fprintln(os.Stderr, "aetherd:", err)
		os.Exit(1)
	}
}

func run(addr, dbDir string, segSize, ckptEvery int64, logParts, cachePages, cleaner int, mode string, readTO, writeTO time.Duration, maxFrame uint32) error {
	if dbDir == "" {
		return fmt.Errorf("-db is required")
	}
	commitMode, err := parseMode(mode)
	if err != nil {
		return err
	}
	// An earlier version kept an unsegmented log in the single file
	// <db>/log. Coming up on an empty <db>/logseg beside it would serve an
	// empty database over the old data, so refuse and leave it be.
	old := filepath.Join(dbDir, "log")
	if _, err := os.Stat(old); err == nil {
		return fmt.Errorf("%s is a single-file log, a layout this version does not read (the log is the segmented directory %s)", old, filepath.Join(dbDir, "logseg"))
	}
	if err := os.MkdirAll(dbDir, 0o755); err != nil {
		return err
	}
	db, err := aether.Open(aether.Options{
		LogPath:              filepath.Join(dbDir, "logseg"),
		SegmentSize:          segSize,
		LogPartitions:        logParts,
		Mode:                 commitMode,
		CheckpointEveryBytes: ckptEvery,
		CachePages:           cachePages,
		CleanerPages:         cleaner,
	})
	if err != nil {
		return fmt.Errorf("open database: %w", err)
	}
	defer db.Close()
	if logParts >= 2 {
		// The metrics page (OpStats) carries the per-partition counters:
		// aether_partition_flushes_N, aether_partition_bytes_N,
		// aether_dep_stalls_N, aether_dep_edges.
		fmt.Printf("log partitioned across %d devices\n", logParts)
	}

	// Recreate the catalog's tables in their original creation order —
	// table→space assignment is positional — then rebuild the indexes
	// from whatever recovery replayed.
	catalogPath := filepath.Join(dbDir, "catalog")
	names, err := readCatalog(catalogPath)
	if err != nil {
		return fmt.Errorf("read catalog: %w", err)
	}
	for _, name := range names {
		if _, err := db.CreateTable(name); err != nil {
			return fmt.Errorf("re-create table %q: %w", name, err)
		}
	}
	if err := db.RebuildAfterRecovery(); err != nil {
		return fmt.Errorf("rebuild after recovery: %w", err)
	}

	srv := wire.NewServer(db, wire.ServerOptions{
		ReadTimeout:  readTO,
		WriteTimeout: writeTO,
		MaxFrame:     maxFrame,
		OnCreateTable: func(name string) error {
			return appendCatalog(catalogPath, name)
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The kill/recovery test (and humans) parse this line for the bound
	// address, so it goes out before the first accept returns.
	fmt.Printf("listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	select {
	case err := <-serveDone:
		return err
	case sig := <-sigs:
		fmt.Printf("received %s, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return <-serveDone
	}
}

func parseMode(s string) (aether.CommitMode, error) {
	switch s {
	case "pipelined":
		return aether.CommitPipelined, nil
	case "sync":
		return aether.CommitSync, nil
	case "sync-elr":
		return aether.CommitSyncELR, nil
	case "async":
		return aether.CommitAsync, nil
	}
	return 0, fmt.Errorf("unknown commit mode %q (want pipelined, sync, sync-elr or async)", s)
}

// readCatalog returns the table names recorded in the catalog file, in
// creation order. A missing catalog is an empty database.
func readCatalog(path string) ([]string, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var names []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name := strings.TrimSpace(sc.Text()); name != "" {
			names = append(names, name)
		}
	}
	return names, sc.Err()
}

// appendCatalog durably appends one table name: the new line and the
// containing directory are fsynced before the create is acknowledged,
// so a table the client saw created is always re-created on restart.
func appendCatalog(path, name string) error {
	if strings.ContainsAny(name, "\r\n") {
		return fmt.Errorf("table name contains newline")
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(name + "\n"); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return vfs.OS{}.SyncDir(filepath.Dir(path))
}
