// Command mistique is a small operational CLI over a MISTIQUE store
// directory. It demonstrates the end-to-end flow against the synthetic
// Zillow workload:
//
//	mistique -dir /tmp/mq log -pipelines 5        # log pipelines
//	mistique -dir /tmp/mq query -model p1_v0 -interm model -col pred
//	mistique -dir /tmp/mq stats                   # store statistics
//	mistique -dir /tmp/mq catalog                 # list models/intermediates
//
// (Pipelines must be re-logged per process to enable RERUN — transformer
// state is in-memory — but previously stored chunks and the catalog are
// read back from disk for stats/catalog inspection.)
package main

import (
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

	"mistique"
	"mistique/internal/codec"
	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/metadata"
	"mistique/internal/nindex"
	"mistique/internal/server"
	"mistique/internal/zillow"
)

func main() {
	dir := flag.String("dir", "", "store directory (required for every command but cluster)")
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	args := flag.Args()[1:]
	// cluster, ingest and coldist (in -addr mode) talk to running servers
	// over HTTP; they need no store of their own.
	if *dir == "" && cmd != "cluster" && cmd != "ingest" && cmd != "coldist" {
		usage()
		os.Exit(2)
	}

	var err error
	switch cmd {
	case "log":
		err = runLog(*dir, args)
	case "query":
		err = runQuery(*dir, args)
	case "stats":
		err = runStats(*dir, args)
	case "serve":
		err = runServe(*dir, args)
	case "cluster":
		err = runCluster(args)
	case "catalog":
		err = runCatalog(*dir)
	case "lineage":
		err = runLineage(*dir, args)
	case "scan":
		err = runScan(*dir, args)
	case "fsck":
		err = runFsck(*dir)
	case "compact":
		err = runCompact(*dir, args)
	case "ingest":
		err = runIngest(args)
	case "coldist":
		err = runColDist(*dir, args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mistique:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: mistique -dir DIR <command> [flags]

commands:
  log      -pipelines N [-props N] [-rows N] [-dedup]   log Zillow pipelines
  query    -model M -interm I [-col C] [-n N]           fetch an intermediate
  scan     -model M -interm I -col C -op OP -bound V    predicate scan
  stats    [-format text|json|prom]                     metrics snapshot
  serve    -addr HOST:PORT [-pipelines N] [-shard NAME]  HTTP query service
           [-max-in-flight N] [-request-timeout D] [-drain-timeout D]
           [-codec gzip|store|actz]  partition codec for new flushes
           [-tenant-max-in-flight N] [-tenant-rows-per-sec N]  ingest quotas
  ingest   -addr URL -model M -interm I -cols A,B,C      stream rows from stdin
           [-batch N] [-tenant T]   (no -dir: talks to a running server)
  coldist  -model M -interm I -col C [-max-error F]      sampled column stats
           [-addr URL]   (remote against a server, or local against -dir)
  cluster  -shards URL,URL,... -model M -interm I -col C  scatter-gather query
           [-op topk|filter] [-k N] [-pred gt|ge|lt|le] [-bound V]
           [-replication N] [-block-rows N]   (no -dir: talks to running shards)
  fsck                                                  verify store integrity
  compact  [-codec gzip|store|actz]                     reclaim garbage chunks
  catalog                                               list logged models
  lineage  -model M                                     walk a model's version chain`)
}

// open builds the system. codecName selects the partition codec for new
// flushes ("" keeps the store default; files on disk are always read by
// their own framing, whatever the config says).
func open(dir string, dedup bool, gamma float64, codecName string) (*mistique.System, error) {
	cfg := mistique.Config{Gamma: gamma, Cost: cost.DefaultParams()}
	cfg.Store.Codec = codecName
	if dedup {
		cfg.Store.Mode = colstore.ModeSimilarity
	} else {
		cfg.Store.Mode = colstore.ModeArrival
		cfg.Store.DisableExactDedup = true
		cfg.Store.DisableApproxDedup = true
	}
	return mistique.Open(dir, cfg)
}

func runLog(dir string, args []string) error {
	fs := flag.NewFlagSet("log", flag.ExitOnError)
	nPipes := fs.Int("pipelines", 5, "number of Zillow pipelines to log (max 50)")
	nProps := fs.Int("props", 400, "synthetic parcels")
	nRows := fs.Int("rows", 2048, "synthetic sale records")
	dedup := fs.Bool("dedup", true, "enable de-duplication")
	seed := fs.Int64("seed", 1, "data seed")
	fs.Parse(args)

	sys, err := open(dir, *dedup, 0, "")
	if err != nil {
		return err
	}
	env := zillow.Env(*nProps, *nRows, *seed)
	pipes, err := zillow.Build(env)
	if err != nil {
		return err
	}
	if *nPipes > len(pipes) {
		*nPipes = len(pipes)
	}
	for _, p := range pipes[:*nPipes] {
		rep, err := sys.LogPipeline(p, env)
		if err != nil {
			return err
		}
		fmt.Printf("logged %-8s  %2d intermediates  stored %8d B (logical %8d B)  dedup %d chunks  %.2fs\n",
			rep.Model, rep.Intermediates, rep.StoredBytes, rep.LogicalBytes, rep.ColumnsDedup, rep.Seconds)
	}
	if err := sys.Flush(); err != nil {
		return err
	}
	disk, err := sys.DiskBytes()
	if err != nil {
		return err
	}
	fmt.Printf("on-disk footprint: %d bytes\n", disk)
	return nil
}

func runQuery(dir string, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	model := fs.String("model", "", "model name")
	interm := fs.String("interm", "", "intermediate name")
	col := fs.String("col", "", "column (default: all)")
	n := fs.Int("n", 10, "examples to fetch")
	nPipes := fs.Int("pipelines", 5, "pipelines to re-log (must cover -model)")
	seed := fs.Int64("seed", 1, "data seed (must match the log run)")
	fs.Parse(args)
	if *model == "" || *interm == "" {
		return fmt.Errorf("query needs -model and -interm")
	}

	// Re-log to rebuild in-memory transformer state; stored chunks dedup
	// against the existing store so this is cheap on a warm directory.
	sys, err := open(dir, true, 0, "")
	if err != nil {
		return err
	}
	env := zillow.Env(400, 2048, *seed)
	pipes, err := zillow.Build(env)
	if err != nil {
		return err
	}
	for _, p := range pipes[:*nPipes] {
		if _, err := sys.LogPipeline(p, env); err != nil {
			return err
		}
	}

	var cols []string
	if *col != "" {
		cols = strings.Split(*col, ",")
	}
	res, err := sys.GetIntermediate(*model, *interm, cols, *n)
	if err != nil {
		return err
	}
	fmt.Printf("strategy=%s fetch=%.4fs est_read=%.4fs est_rerun=%.4fs\n",
		res.Strategy, res.FetchSeconds, res.EstReadSecs, res.EstRerunSecs)
	fmt.Println(strings.Join(res.Cols, "\t"))
	for i := 0; i < res.Data.Rows; i++ {
		row := res.Data.Row(i)
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = fmt.Sprintf("%.4g", v)
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	return nil
}

func runScan(dir string, args []string) error {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	model := fs.String("model", "", "model name")
	interm := fs.String("interm", "", "intermediate name")
	col := fs.String("col", "", "column to scan")
	opStr := fs.String("op", "gt", "predicate: gt, ge, lt, le")
	bound := fs.Float64("bound", 0, "predicate bound")
	limit := fs.Int("limit", 20, "max matches to print")
	nPipes := fs.Int("pipelines", 5, "pipelines to re-log (must cover -model)")
	seed := fs.Int64("seed", 1, "data seed (must match the log run)")
	fs.Parse(args)
	if *model == "" || *interm == "" || *col == "" {
		return fmt.Errorf("scan needs -model, -interm and -col")
	}
	op, err := nindex.ParseOp(*opStr)
	if err != nil {
		return err
	}
	sys, err := open(dir, true, 0, "")
	if err != nil {
		return err
	}
	env := zillow.Env(400, 2048, *seed)
	pipes, err := zillow.Build(env)
	if err != nil {
		return err
	}
	for _, p := range pipes[:*nPipes] {
		if _, err := sys.LogPipeline(p, env); err != nil {
			return err
		}
	}
	rows, err := sys.FilterRows(*model, *interm, *col, op, float32(*bound))
	if err != nil {
		return err
	}
	fmt.Printf("%d rows match %s %s %g\n", len(rows), *col, op, *bound)
	for i, r := range rows {
		if i >= *limit {
			fmt.Printf("... and %d more\n", len(rows)-*limit)
			break
		}
		fmt.Println(r)
	}
	return nil
}

func runFsck(dir string) error {
	sys, err := open(dir, true, 0, "")
	if err != nil {
		return err
	}
	rep, err := sys.Store().Verify()
	if err != nil {
		return err
	}
	fmt.Printf("partitions: %d  chunks: %d  columns: %d  garbage chunks: %d\n",
		rep.Partitions, rep.Chunks, rep.Columns, rep.GarbageChunks)
	if len(rep.Problems) == 0 {
		fmt.Println("store healthy")
		return nil
	}
	for _, p := range rep.Problems {
		fmt.Println("PROBLEM:", p)
	}
	return fmt.Errorf("%d integrity problems", len(rep.Problems))
}

func runCompact(dir string, args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	codecName := fs.String("codec", "", "partition codec for the rewritten files: "+strings.Join(codec.Names(), ", ")+" (default: store default)")
	fs.Parse(args)

	sys, err := open(dir, true, 0, *codecName)
	if err != nil {
		return err
	}
	reclaimed, err := sys.CompactStore()
	if err != nil {
		return err
	}
	fmt.Printf("reclaimed %d bytes\n", reclaimed)
	return nil
}

func runStats(dir string, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	format := fs.String("format", "text", "output format: text, json, prom")
	fs.Parse(args)

	sys, err := open(dir, true, 0, "")
	if err != nil {
		return err
	}
	disk, err := sys.DiskBytes()
	if err != nil {
		return err
	}
	snap := sys.Metrics()
	snap.Gauges["mistique_disk_bytes"] = disk
	snap.Help["mistique_disk_bytes"] = "on-disk footprint of stored intermediates"

	switch *format {
	case "json":
		return snap.WriteJSON(os.Stdout)
	case "prom":
		return snap.WritePrometheus(os.Stdout)
	case "text":
		st := sys.Store().Stats()
		fmt.Printf("disk bytes:     %d\n", disk)
		fmt.Printf("chunks stored:  %d (session)\n", st.ChunksStored)
		fmt.Printf("chunks deduped: %d (session)\n", st.ChunksDeduped)
		fmt.Printf("partitions:     %d\n", st.Partitions)
		fmt.Printf("corrupt parts:  %d (session)\n", st.CorruptPartitions)
		return nil
	default:
		return fmt.Errorf("unknown -format %q (want text, json or prom)", *format)
	}
}

// runServe runs the query service (internal/server) over the store: the
// full JSON API under /api/v1 plus /metrics and /healthz, with
// admission control, per-request deadlines and graceful shutdown —
// SIGINT/SIGTERM stops accepting, drains in-flight requests, then flushes
// the store and catalog so nothing logged is lost. Optionally logs Zillow
// pipelines first so a fresh directory has models to query (and RERUN
// available — transformer state is in-memory).
func runServe(dir string, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "", "listen address (e.g. 127.0.0.1:7420; required)")
	nPipes := fs.Int("pipelines", 0, "Zillow pipelines to log before serving")
	seed := fs.Int64("seed", 1, "data seed")
	shard := fs.String("shard", "", "shard name reported by /readyz when this node serves in a cluster")
	maxInFlight := fs.Int("max-in-flight", 64, "admission bound on concurrently executing queries (excess gets 429)")
	tenantInFlight := fs.Int("tenant-max-in-flight", 8, "per-tenant bound on concurrently executing ingest batches")
	tenantRate := fs.Int("tenant-rows-per-sec", 0, "per-tenant streaming ingest rate quota in rows/sec (0 = unlimited)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request context deadline")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "shutdown bound on finishing in-flight requests")
	codecName := fs.String("codec", "", "partition codec for new flushes: "+strings.Join(codec.Names(), ", ")+" (default: store default)")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("serve needs -addr")
	}

	sys, err := open(dir, true, 0, *codecName)
	if err != nil {
		return err
	}
	if *nPipes > 0 {
		env := zillow.Env(400, 2048, *seed)
		pipes, err := zillow.Build(env)
		if err != nil {
			return err
		}
		if *nPipes > len(pipes) {
			*nPipes = len(pipes)
		}
		for _, p := range pipes[:*nPipes] {
			if _, err := sys.LogPipeline(p, env); err != nil {
				return err
			}
		}
	}

	srv := server.New(sys, server.Config{
		ShardName:         *shard,
		MaxInFlight:       *maxInFlight,
		RequestTimeout:    *reqTimeout,
		TenantMaxInFlight: *tenantInFlight,
		TenantRowsPerSec:  *tenantRate,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Printf("serving queries on http://%s/api/v1 (metrics at /metrics, JSON stats at /api/v1/stats)\n", ln.Addr())

	select {
	case err := <-serveErr:
		// Listener died on its own; still drain what's in flight and
		// flush so the store closes clean.
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if serr := srv.Shutdown(sctx); err == nil {
			err = serr
		}
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills hard
	fmt.Println("signal received; draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil {
		return err
	}
	fmt.Println("drained and flushed; bye")
	return nil
}

// runLineage walks a model's version chain (LogDNN Parent links), newest
// first, printing each version's storage footprint and deepest delta
// chain. Opens the store read-mostly: delta depths live in its manifest.
func runLineage(dir string, args []string) error {
	fs := flag.NewFlagSet("lineage", flag.ExitOnError)
	model := fs.String("model", "", "model version to start from")
	fs.Parse(args)
	if *model == "" {
		return fmt.Errorf("lineage needs -model")
	}
	sys, err := open(dir, true, 0, "")
	if err != nil {
		return err
	}
	chain, err := sys.Lineage(*model)
	if err != nil {
		return err
	}
	for i, e := range chain {
		arrow := "└─"
		if i == 0 {
			arrow = "  "
		}
		parent := e.Parent
		if parent == "" {
			parent = "(root)"
		}
		fmt.Printf("%s %-20s kind=%-4s parent=%-20s interms=%3d stored=%10d B max_delta_depth=%d\n",
			arrow, e.Model, e.Kind, parent, e.Intermediates, e.StoredBytes, e.MaxDeltaDepth)
	}
	return nil
}

func runCatalog(dir string) error {
	path := filepath.Join(dir, "metadata.json")
	db, err := metadata.Load(path)
	if err != nil {
		return fmt.Errorf("no catalog at %s (run 'log' first): %w", path, err)
	}
	for _, name := range db.Models() {
		m := db.Model(name)
		fmt.Printf("%s (%s, %d examples, %d stages)\n", m.Name, m.Kind, m.TotalExamples, len(m.Stages))
		for _, it := range m.Intermediates {
			mat := " "
			if it.Materialized {
				mat = "M"
			}
			fmt.Printf("  [%s] %-16s stage=%2d cols=%4d rows=%6d queries=%d scheme=%s\n",
				mat, it.Name, it.StageIndex, len(it.Columns), it.Rows, it.QueryCount, it.QuantScheme)
		}
	}
	return nil
}
