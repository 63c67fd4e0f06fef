package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"mistique"
	"mistique/client"
	"mistique/internal/server"
)

// captureStdout runs fn with os.Stdout redirected into a buffer.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	errCh := make(chan error, 1)
	var buf bytes.Buffer
	go func() {
		_, err := io.Copy(&buf, r)
		errCh <- err
	}()
	fnErr := fn()
	w.Close()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if fnErr != nil {
		t.Fatal(fnErr)
	}
	return buf.String()
}

// TestStatsFormats drives the CLI end-to-end: log a small workload, run a
// query so the query-path metrics move, then check that `stats -format
// json` parses and `stats -format prom` emits Prometheus exposition with
// ingest/flush counters and latency series.
func TestStatsFormats(t *testing.T) {
	dir := t.TempDir()
	// Sizes must match runQuery's re-log env (400 props x 2048 rows).
	captureStdout(t, func() error {
		return runLog(dir, []string{"-pipelines", "1"})
	})
	captureStdout(t, func() error {
		return runQuery(dir, []string{"-model", "p1_v0", "-interm", "model", "-col", "pred", "-n", "5", "-pipelines", "1"})
	})

	jsonOut := captureStdout(t, func() error {
		return runStats(dir, []string{"-format", "json"})
	})
	var snap struct {
		Counters   map[string]int64           `json:"counters"`
		Gauges     map[string]int64           `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(jsonOut), &snap); err != nil {
		t.Fatalf("stats -format json does not parse: %v\n%s", err, jsonOut)
	}
	// The stats process reopens the store, so only persisted/store-derived
	// series are non-zero — but the full metric families must be present.
	if _, ok := snap.Counters["mistique_queries_total"]; !ok {
		t.Errorf("JSON snapshot missing mistique_queries_total: %v", snap.Counters)
	}
	if snap.Gauges["mistique_disk_bytes"] <= 0 {
		t.Errorf("disk bytes gauge = %d, want > 0", snap.Gauges["mistique_disk_bytes"])
	}
	if snap.Gauges["mistique_store_partitions"] <= 0 {
		t.Errorf("partitions gauge = %d, want > 0", snap.Gauges["mistique_store_partitions"])
	}
	if _, ok := snap.Histograms["mistique_query_read_seconds"]; !ok {
		t.Error("JSON snapshot missing mistique_query_read_seconds histogram")
	}

	promOut := captureStdout(t, func() error {
		return runStats(dir, []string{"-format", "prom"})
	})
	for _, want := range []string{
		"# TYPE mistique_queries_total counter",
		"# TYPE mistique_store_partitions gauge",
		"# TYPE mistique_query_read_seconds histogram",
		`mistique_query_read_seconds_bucket{le="+Inf"}`,
		"# TYPE mistique_disk_bytes gauge",
	} {
		if !strings.Contains(promOut, want) {
			t.Errorf("stats -format prom missing %q", want)
		}
	}

	textOut := captureStdout(t, func() error {
		return runStats(dir, []string{})
	})
	if !strings.Contains(textOut, "disk bytes:") {
		t.Errorf("default text stats malformed:\n%s", textOut)
	}

	if err := runStats(dir, []string{"-format", "yaml"}); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestServeGracefulSIGTERM drives the serve command end-to-end: start the
// service on a free port, wait for liveness, run a real query over HTTP,
// send the process SIGTERM, and require runServe to drain and return nil.
// The store must be durable across the shutdown: a fresh System over the
// same directory still answers queries.
func TestServeGracefulSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("serve lifecycle test skipped in -short mode")
	}
	dir := t.TempDir()

	// Reserve a free port, then hand it to serve. The tiny window between
	// Close and the server's Listen is harmless in CI.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- runServe(dir, []string{"-addr", addr, "-pipelines", "1", "-drain-timeout", "30s"})
	}()

	// Wait for liveness: logging the pipeline happens before Serve, so
	// give it room.
	base := "http://" + addr
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case err := <-serveErr:
			t.Fatalf("serve exited before becoming healthy: %v", err)
		default:
		}
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("serve never became healthy")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// A real query through the typed client proves the API is up.
	c, err := client.New(base)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := c.GetIntermediate(context.Background(), "p1_v0", "model", []string{"pred"}, 8)
	if err != nil {
		t.Fatalf("query against serve: %v", err)
	}
	if qr.Rows != 8 {
		t.Fatalf("query returned %d rows", qr.Rows)
	}

	// SIGTERM: runServe's signal context must drain and return cleanly.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("runServe after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("runServe did not return after SIGTERM")
	}

	// Durability: everything logged survives the drain.
	sys, err := mistique.Open(dir, mistique.Config{})
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	res, err := sys.GetIntermediate("p1_v0", "model", []string{"pred"}, 8)
	if err != nil {
		t.Fatalf("query after reopen: %v", err)
	}
	if res.Data.Rows != 8 {
		t.Fatalf("reopened store returned %d rows", res.Data.Rows)
	}
}

// TestLineageCommand drives `mistique lineage` end-to-end over a logged
// workload: the chain of a pipeline model is a single root entry.
func TestLineageCommand(t *testing.T) {
	dir := t.TempDir()
	captureStdout(t, func() error {
		return runLog(dir, []string{"-pipelines", "1"})
	})
	out := captureStdout(t, func() error {
		return runLineage(dir, []string{"-model", "p1_v0"})
	})
	if !strings.Contains(out, "p1_v0") || !strings.Contains(out, "parent=(root)") {
		t.Fatalf("lineage output = %q", out)
	}
	if err := runLineage(dir, []string{"-model", "missing"}); err == nil {
		t.Fatal("lineage of unknown model succeeded")
	}
}

// TestCompactDropsNamedModels drives `mistique compact MODEL`: the named
// model leaves the catalog for good, its space is reclaimed and the store
// stays healthy; a list with an unknown name touches no file.
func TestCompactDropsNamedModels(t *testing.T) {
	dir := t.TempDir()
	captureStdout(t, func() error {
		return runLog(dir, []string{"-pipelines", "2"})
	})
	// A stream model owns a write-ahead log, which dropping it deletes.
	sys, err := open(dir, true, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.IngestRows("live", "acts", []string{"v"}, [][]float32{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// state reopens the directory and reports its models and disk bytes.
	state := func() ([]string, int64) {
		t.Helper()
		sys, err := open(dir, true, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		disk, err := sys.DiskBytes()
		if err != nil {
			t.Fatal(err)
		}
		return sys.Metadata().Models(), disk
	}
	// files lists every file under dir with its size.
	files := func() map[string]int64 {
		t.Helper()
		out := map[string]int64{}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			out[path] = info.Size()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	models, before := state()
	if len(models) != 3 || models[0] != "live" {
		t.Fatalf("logged models %v, want live and 2 pipelines", models)
	}
	drop := models[2]
	keep := models[:2]

	// The unknown name sorts after the stream, so a compact that dropped
	// as it checked would already have deleted the stream's log.
	onDisk := files()
	if err := runCompact(dir, []string{"live", "zz-unknown"}); !errors.Is(err, mistique.ErrUnknownModel) {
		t.Fatalf("compact with an unknown name: err = %v, want ErrUnknownModel", err)
	}
	if got := files(); !maps.Equal(got, onDisk) {
		t.Fatalf("failed compact changed the directory:\n got  %v\n want %v", got, onDisk)
	}
	if got, disk := state(); !slices.Equal(got, models) || disk != before {
		t.Fatalf("failed compact changed the store: models %v, %d bytes (was %v, %d)", got, disk, models, before)
	}

	out := captureStdout(t, func() error {
		return runCompact(dir, []string{drop})
	})
	if !strings.Contains(out, "dropped "+drop) {
		t.Fatalf("compact output = %q", out)
	}
	got, after := state()
	if !slices.Equal(got, keep) {
		t.Fatalf("models after compact %v, want %v", got, keep)
	}
	if after >= before {
		t.Fatalf("disk bytes %d after dropping %s, want below %d", after, drop, before)
	}
	if out := captureStdout(t, func() error { return runFsck(dir) }); !strings.Contains(out, "store healthy") {
		t.Fatalf("fsck after compact: %q", out)
	}
}

// TestIngestAndColDistCommands drives the streaming CLI path end to end:
// ingest rows from stdin into a running server, query the sampled column
// stats remotely, then again locally against the store directory after
// the server drains.
func TestIngestAndColDistCommands(t *testing.T) {
	dir := t.TempDir()
	sys, err := mistique.Open(dir, mistique.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(sys, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var lines bytes.Buffer
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&lines, "%d,%g\n", i, float64(i)+0.5)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		w.Write(lines.Bytes())
		w.Close()
	}()
	oldStdin := os.Stdin
	os.Stdin = r
	defer func() { os.Stdin = oldStdin }()

	out := captureStdout(t, func() error {
		return runIngest([]string{"-addr", ts.URL, "-model", "live", "-interm", "acts",
			"-cols", "a,b", "-batch", "100", "-tenant", "cli"})
	})
	if !strings.Contains(out, "500 rows acknowledged") {
		t.Fatalf("ingest output: %q", out)
	}

	out = captureStdout(t, func() error {
		return runColDist("", []string{"-addr", ts.URL, "-model", "live", "-interm", "acts", "-col", "a"})
	})
	// 500 rows fit the reservoir: the sample holds every row.
	if !strings.Contains(out, "strategy=SAMPLE rows=500 sample_rows=500") {
		t.Fatalf("remote coldist output: %q", out)
	}

	// Drain the server's System, then answer the same question offline.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	out = captureStdout(t, func() error {
		return runColDist(dir, []string{"-model", "live", "-interm", "acts", "-col", "a"})
	})
	if !strings.Contains(out, "strategy=SAMPLE rows=500 sample_rows=500") {
		t.Fatalf("local coldist output: %q", out)
	}
}
