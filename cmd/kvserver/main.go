// Command kvserver runs the Memcached-like key-value store of §5.3 on
// simulated NVMM with ResPCT checkpointing. It speaks the text protocol and
// the pipelined binary protocol (docs/WIRE-PROTOCOL.md) on one TCP port,
// negotiated per connection by its first byte.
//
// With -shards N the key space is partitioned across N independent
// heap+runtime shards (see internal/shard): checkpoints are staggered
// round-robin so at most one shard stalls at a time, and each shard's
// recovery point is at most N intervals old (pass -interval/N for one
// interval per shard). Checkpoint gating is per operation and per shard,
// owned by the store (DESIGN.md §3f).
//
// On SIGINT/SIGTERM it runs one final coordinated checkpoint and snapshots
// each shard's persistent image into that shard's frame store (internal/frame,
// the one on-disk format, docs/SNAPSHOT-FORMAT.md) under
// ShardFrameDir(-snapshot, i) ("kv.img" → "kv-0.fset", "kv-1.fset", …). Each
// store's manifest is rewritten atomically, so a crash mid-write leaves the
// previous certified chain recoverable. A later start with the same -snapshot
// and -shards boots every shard's heap straight from its frames and recovers
// them in parallel — a full crash/recovery cycle across OS processes. A base
// that holds only a whole-image file from before frame stores is refused:
// there is no migration.
//
// Usage (defaults shown; kvserver -h describes each flag):
//
//	kvserver [-addr 127.0.0.1:11222] [-workers 4] [-shards 1] [-async]
//	         [-buckets 1048576] [-interval 64ms] [-heap 2147483648]
//	         [-snapshot ""] [-metrics ""] [-structures=true] [-transient]
//
// -transient serves the non-fault-tolerant store instead (no shards, no
// checkpoints, no snapshots — the paper's unmodified-Memcached baseline).
//
// -structures (on by default) enables the persistent structures surface —
// ordered SCAN, queues (QPUSH/QPOP), logs (LAPPEND/LRANGE), per-key TTLs
// (EXPIRE/TTL, swept at checkpoint boundaries by a dedicated per-shard
// sweeper thread) and atomic MULTI batches — over both protocols; see
// docs/COMMANDS.md. -structures=false runs the plain KV surface with
// one-cell records and no sweeper.
//
// -async switches every shard runtime to asynchronous checkpointing: workers
// pause only for the cut, the flush and the durable epoch commit run in the
// background (the recovery staleness bound doubles to two intervals).
//
// -buckets and -heap are totals for the whole store; each shard gets a 1/N
// slice.
//
// -metrics serves the telemetry registry over HTTP: Prometheus text on
// /metrics, a JSON snapshot on /metrics.json, and the pprof handlers under
// /debug/pprof/. Without the flag no registry exists and no instrumentation
// runs. On shutdown the order is: stop the KV listener (drain in-flight
// requests), stop the metrics server (a scrape in progress completes), dump
// a final JSON snapshot to stderr, and only then close the pool — so the
// last scrape and the final snapshot both see the fully drained counters
// while the runtimes are still alive.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/respct/respct/internal/frame"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/shard"
	"github.com/respct/respct/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:11222", "listen address")
	workers := flag.Int("workers", 4, "store threads: requests executing at once; further connections queue for one")
	shards := flag.Int("shards", 1, "key-space partitions, each with its own heap and runtime")
	async := flag.Bool("async", false, "asynchronous checkpoints: workers pause only for the cut, flush and durable commit run in the background (staleness bound doubles)")
	buckets := flag.Int("buckets", 1<<20, "hash-table buckets (total across shards)")
	interval := flag.Duration("interval", 64*time.Millisecond, "checkpoint period")
	heapBytes := flag.Int64("heap", 2<<30, "simulated NVMM size in bytes (total across shards)")
	snapshot := flag.String("snapshot", "", "snapshot base path: every shard's frame store is recovered from at start if present, written on shutdown")
	metricsAddr := flag.String("metrics", "", "serve telemetry on this address (/metrics, /metrics.json, /debug/pprof/); empty disables instrumentation")
	structures := flag.Bool("structures", true, "enable the persistent structures surface (SCAN/QPUSH/QPOP/LAPPEND/LRANGE/EXPIRE/TTL/MULTI, see docs/COMMANDS.md); disabling reclaims the per-shard sweeper thread and two-cell records")
	transient := flag.Bool("transient", false, "run the non-fault-tolerant store instead")
	flag.Parse()

	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		telemetry.RegisterGoRuntime(reg)
	}
	newServer := func(store kv.Store) (*kv.Server, error) {
		return kv.NewServerOpts(store, kv.Options{
			Workers: *workers,
			Addr:    *addr,
			Metrics: reg,
		})
	}

	if *transient {
		h := pmem.New(pmem.NVMMConfig(*heapBytes))
		srv, err := newServer(kv.NewTransientStore(h))
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvserver:", err)
			os.Exit(1)
		}
		msrv := serveMetrics(reg, *metricsAddr)
		fmt.Println("transient kvserver listening on", srv.Addr())
		waitForSignal()
		srv.Close()
		stopMetrics(msrv, reg)
		return
	}

	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "kvserver: -shards must be >= 1")
		os.Exit(1)
	}
	cfg := shard.Config{
		Shards:     *shards,
		Workers:    *workers,
		Buckets:    max(*buckets / *shards, 1<<8),
		HeapBytes:  *heapBytes / int64(*shards),
		Interval:   *interval,
		Async:      *async,
		Structures: *structures,
		Metrics:    reg,
	}

	var pool *shard.Pool
	found := 0
	if *snapshot != "" {
		var err error
		if found, err = shard.SnapshotFileCount(*snapshot); err != nil {
			fmt.Fprintln(os.Stderr, "kvserver:", err)
			fmt.Fprintln(os.Stderr, "kvserver: nothing was recovered; move the file aside to start an empty store")
			os.Exit(1)
		}
		// Refuse a shard count that disagrees with the on-disk stores:
		// recovering fewer shards would silently drop the extra stores' keys,
		// and more would silently start an empty store.
		if found > 0 && found != *shards {
			fmt.Fprintf(os.Stderr, "kvserver: snapshot %s holds %d shard frame store(s) but -shards is %d; restart with -shards %d or move the stores aside\n",
				*snapshot, found, *shards, found)
			os.Exit(1)
		}
	}
	if found > 0 {
		p, rep, err := shard.OpenPoolFiles(cfg, *snapshot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "recover:", err)
			if errors.Is(err, kv.ErrLayoutMismatch) {
				fmt.Fprintf(os.Stderr, "kvserver: snapshot %s was written with another -structures setting or record layout; restart with the setting that wrote it or move the stores aside\n", *snapshot)
			}
			os.Exit(1)
		}
		pool = p
		fmt.Printf("recovered %d shard(s) from %s: failed epochs %v, %d cells scanned, %d rolled back, %v\n",
			*shards, *snapshot, rep.FailedEpochs(), rep.CellsScanned, rep.CellsRolledBack,
			rep.Duration.Round(time.Millisecond))
		printFlightEvents(rep)
	} else {
		p, err := shard.NewPool(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pool:", err)
			os.Exit(1)
		}
		pool = p
	}

	pool.Start()
	srv, err := newServer(pool.Store())
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvserver:", err)
		os.Exit(1)
	}
	msrv := serveMetrics(reg, *metricsAddr)
	schedule := "staggered"
	if *async {
		schedule += " async"
	}
	fmt.Printf("ResPCT kvserver listening on %s (%d shard(s), %s checkpoint every %v)\n",
		srv.Addr(), *shards, schedule, *interval)

	waitForSignal()
	fmt.Println("shutting down...")
	// Ordering matters: the KV listener drains first so no new operations
	// mutate the counters, then the metrics server stops (completing any
	// in-flight scrape against live runtimes), then the final snapshot is
	// flushed — all before Pool.Close waits out the last drains.
	srv.Close()
	stopMetrics(msrv, reg)
	pool.Close()
	if *snapshot != "" {
		// One final coordinated checkpoint, then every shard's frame set in
		// parallel; each shard's manifest update is atomic, so a crash
		// mid-write leaves the previous certified chain recoverable.
		res, err := pool.SnapshotFrames(*snapshot, frame.Params{Compression: frame.CompressFlate})
		if err != nil {
			fmt.Fprintln(os.Stderr, "snapshot:", err)
			os.Exit(1)
		}
		var bytes int64
		for _, r := range res {
			bytes += r.Info.Bytes
		}
		fmt.Printf("%d shard frame set(s) (%s, %d bytes total) written under %s\n",
			*shards, res[0].Info.Kind, bytes, *snapshot)
	}
}

// printFlightEvents shows each recovered shard's flight-recorder tail: the
// runtime's final checkpoints, cuts and drain commits before the crash.
func printFlightEvents(rep *shard.RecoveryReport) {
	const tail = 5
	for i, r := range rep.PerShard {
		evs := r.FlightEvents
		if len(evs) == 0 {
			continue
		}
		lo := max(len(evs)-tail, 0)
		fmt.Printf("shard %d flight recorder (%d events, showing %d):\n", i, len(evs), len(evs)-lo)
		for _, e := range evs[lo:] {
			fmt.Println("  " + e.String())
		}
	}
}

// serveMetrics starts the telemetry HTTP server, or returns nil when the
// registry is disabled. Bind errors are fatal — a silently dead metrics
// endpoint is worse than no server.
func serveMetrics(reg *telemetry.Registry, addr string) *http.Server {
	if reg == nil {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metrics listen:", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: telemetry.Handler(reg)}
	go srv.Serve(ln)
	fmt.Println("metrics on http://" + ln.Addr().String() + "/metrics")
	return srv
}

// stopMetrics shuts the metrics server down gracefully and writes a final
// JSON snapshot to stderr, so the run's closing counters survive in logs
// even when nothing was scraping.
func stopMetrics(srv *http.Server, reg *telemetry.Registry) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	fmt.Fprintln(os.Stderr, "final telemetry snapshot:")
	reg.WriteJSON(os.Stderr)
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	<-ch
}
