package mistique

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mistique/internal/colstore"
	"mistique/internal/cost"
)

// TestMetricsEndToEnd is the observability acceptance scenario: log a
// model, flush, query twice (one rerun, one read), corrupt the on-disk
// partitions to force a rerun-fallback recovery and a scan-path heal, then
// assert that the ingest/flush/query/recovery counters and latency
// histograms all moved and that both exposition formats carry them.
func TestMetricsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{SlowQueryThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s)

	// One forced rerun, one cost-model read.
	if _, err := s.Fetch("demo", "model", []string{"pred"}, 0, cost.Rerun); err != nil {
		t.Fatal(err)
	}
	read, err := s.GetIntermediate("demo", "model", []string{"pred"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if read.Strategy != cost.Read {
		t.Fatalf("setup: expected READ, got %v", read.Strategy)
	}

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().DropCache(); err != nil {
		t.Fatal(err)
	}
	if n := corruptDataFiles(t, dir); n == 0 {
		t.Fatal("no partition files to corrupt")
	}

	// READ hits the corruption and transparently falls back to rerun.
	rec, err := s.GetIntermediate("demo", "model", []string{"pred"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Recovered {
		t.Fatal("query against corrupt store did not recover")
	}

	// Corrupt again so the predicate scan exercises heal-and-retry.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().DropCache(); err != nil {
		t.Fatal(err)
	}
	if n := corruptDataFiles(t, dir); n == 0 {
		t.Fatal("no partition files to corrupt for the heal path")
	}
	if _, err := s.FilterRows("demo", "model", "pred", colstore.Gt, -1e30); err != nil {
		t.Fatalf("FilterRows with heal: %v", err)
	}

	snap := s.Metrics()

	wantCounterMin := map[string]int64{
		"mistique_models_logged_total":            1,
		"mistique_queries_total":                  3, // fetch + read + recovered
		"mistique_query_rerun_fallbacks_total":    1,
		"mistique_heals_total":                    1,
		"mistique_slow_queries_total":             1,
		"mistique_catalog_queries_total":          4, // + FilterRows
		"mistique_store_flushes_total":            1,
		"mistique_store_quarantines_total":        1,
		"mistique_store_chunks_put_total":         1,
		"mistique_store_corrupt_partitions_total": 1,
		"mistique_store_recovered_reads_total":    2, // fallback + heal
		"mistique_store_fsyncs_total":             1,
	}
	for name, min := range wantCounterMin {
		if got := snap.Counters[name]; got < min {
			t.Errorf("counter %s = %d, want >= %d", name, got, min)
		}
	}
	if snap.Gauges["mistique_store_partitions"] <= 0 {
		t.Errorf("gauge mistique_store_partitions = %d, want > 0", snap.Gauges["mistique_store_partitions"])
	}

	wantHistMin := map[string]int64{
		"mistique_ingest_seconds":                1,
		"mistique_query_read_seconds":            1, // the clean READ
		"mistique_query_rerun_seconds":           2, // forced rerun + recovered
		"mistique_query_filter_rows_seconds":     1,
		"mistique_cost_read_rel_error":           1,
		"mistique_cost_rerun_rel_error":          1,
		"mistique_heal_seconds":                  1,
		"mistique_store_put_encode_seconds":      1,
		"mistique_store_put_hash_seconds":        1,
		"mistique_store_put_append_seconds":      1,
		"mistique_flush_partition_write_seconds": 1,
		"mistique_catalog_save_seconds":          1,
	}
	for name, min := range wantHistMin {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Errorf("histogram %s missing from snapshot", name)
			continue
		}
		if h.Count < min {
			t.Errorf("histogram %s count = %d, want >= %d", name, h.Count, min)
		}
		if h.Count > 0 && (h.P50 < 0 || h.P99 < h.P50) {
			t.Errorf("histogram %s quantiles out of order: p50=%g p99=%g", name, h.P50, h.P99)
		}
	}

	// Prometheus exposition carries the counters and the histogram series.
	var prom bytes.Buffer
	if err := s.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"# TYPE mistique_queries_total counter",
		"mistique_query_rerun_fallbacks_total 1",
		"# TYPE mistique_query_read_seconds histogram",
		`mistique_query_read_seconds_bucket{le="+Inf"}`,
		"mistique_query_read_seconds_sum",
		"mistique_query_read_seconds_count",
		"# TYPE mistique_store_partitions gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}

	// JSON exposition round-trips and surfaces the quantiles.
	var js bytes.Buffer
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64   `json:"count"`
			P99   float64 `json:"p99"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("stats JSON does not parse: %v", err)
	}
	if decoded.Counters["mistique_queries_total"] < 3 {
		t.Errorf("JSON counters missing queries_total: %+v", decoded.Counters)
	}
	if h := decoded.Histograms["mistique_query_rerun_seconds"]; h.Count < 2 || h.P99 <= 0 {
		t.Errorf("JSON histogram rerun_seconds = %+v", h)
	}

	// The slow-query log recorded every query (threshold 1ns) with the
	// fields needed to replay the decision.
	blob, err := os.ReadFile(filepath.Join(dir, slowQueryLogName))
	if err != nil {
		t.Fatalf("slow-query log missing: %v", err)
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(blob))
	for sc.Scan() {
		var rec slowQueryRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("slow-query line %d does not parse: %v", lines, err)
		}
		if rec.Model != "demo" || rec.Strategy == "" || rec.Seconds <= 0 {
			t.Fatalf("slow-query record incomplete: %+v", rec)
		}
		lines++
	}
	if lines < 3 {
		t.Fatalf("slow-query log has %d records, want >= 3", lines)
	}
}

// TestMetricsCostModelError pins the estimate-vs-actual tracking: every
// non-recovered query must observe one relative-error sample for the
// strategy it executed.
func TestMetricsCostModelError(t *testing.T) {
	s := openSys(t, Config{})
	logDemo(t, s)

	before := s.Metrics()
	if _, err := s.GetIntermediate("demo", "model", []string{"pred"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fetch("demo", "model", []string{"pred"}, 0, cost.Rerun); err != nil {
		t.Fatal(err)
	}
	after := s.Metrics()

	readErr := after.Histograms["mistique_cost_read_rel_error"].Count - before.Histograms["mistique_cost_read_rel_error"].Count
	rerunErr := after.Histograms["mistique_cost_rerun_rel_error"].Count - before.Histograms["mistique_cost_rerun_rel_error"].Count
	if readErr != 1 {
		t.Errorf("read rel-error samples = %d, want 1", readErr)
	}
	if rerunErr != 1 {
		t.Errorf("rerun rel-error samples = %d, want 1", rerunErr)
	}
}

// TestMetricsDisabledSlowLog checks that a zero threshold writes nothing.
func TestMetricsDisabledSlowLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s)
	if _, err := s.GetIntermediate("demo", "model", nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, slowQueryLogName)); !os.IsNotExist(err) {
		t.Fatalf("slow-query log exists with threshold disabled (stat err=%v)", err)
	}
	if n := s.Metrics().Counters["mistique_slow_queries_total"]; n != 0 {
		t.Fatalf("slow_queries_total = %d with threshold disabled", n)
	}
}

// TestSlowQueryLogRotation drives the slow-query log past its byte bound
// and checks the single-generation rotation: the live file is cut over to
// slow_queries.jsonl.1 and both stay valid JSON-lines.
func TestSlowQueryLogRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{SlowQueryThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	s.slowMax = 512
	logDemo(t, s)
	for i := 0; i < 12; i++ {
		if _, err := s.GetIntermediate("demo", "model", []string{"pred"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	gen1 := filepath.Join(dir, "slow_queries.jsonl.1")
	st, err := os.Stat(gen1)
	if err != nil {
		t.Fatalf("no rotated generation: %v", err)
	}
	if st.Size() < 512 {
		t.Fatalf("rotated generation only %d bytes, rotation fired early", st.Size())
	}
	lines := 0
	for _, path := range []string{filepath.Join(dir, "slow_queries.jsonl"), gen1} {
		blob, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(blob))
		for sc.Scan() {
			var rec map[string]any
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("%s: bad line %q: %v", path, sc.Text(), err)
			}
			lines++
		}
	}
	if lines == 0 {
		t.Fatal("no slow-query lines survived rotation")
	}
	if lines > 12 {
		t.Fatalf("%d lines across two generations, want <= 12", lines)
	}
}
