package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mistique"
	"mistique/client"
	"mistique/internal/colstore"
	"mistique/internal/data"
	"mistique/internal/faultfs"
	"mistique/internal/nn"
	"mistique/internal/pipeline"
	"mistique/internal/zillow"
)

// eq compares a wire value against an engine value, treating NaN as
// equal to NaN (pre-fillna intermediates carry NaNs by design).
func eq(a client.F32, b float32) bool {
	fa := float32(a)
	if math.IsNaN(float64(fa)) && math.IsNaN(float64(b)) {
		return true
	}
	return fa == b
}

// demoSpec mirrors the engine test fixture: a 6-stage Zillow pipeline
// whose "joined" intermediate is materialized and whose "model" stage
// yields predictions.
const demoSpec = `
name: demo
stages:
  - name: props
    op: read_table
    params: {table: properties}
  - name: sales
    op: read_table
    params: {table: train}
  - name: joined
    op: join
    inputs: [sales, props]
    params: {on: parcelid}
  - name: filled
    op: fillna
    inputs: [joined]
  - name: splits
    op: split
    inputs: [filled]
    params: {frac: 0.8, seed: 1}
    outputs: [train_split, eval_split]
  - name: model
    op: train_xgb
    inputs: [train_split]
    params: {target: logerror, rounds: 4, max_depth: 3}
`

// newSys opens a System in a temp dir and logs the demo pipeline.
func newSys(t *testing.T, cfg mistique.Config) *mistique.System {
	t.Helper()
	sys, err := mistique.Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	logPipeline(t, sys, demoSpec)
	return sys
}

func logPipeline(t *testing.T, sys *mistique.System, spec string) {
	t.Helper()
	ps, err := pipeline.SpecFromYAML(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.LogPipeline(p, zillow.Env(200, 600, 1)); err != nil {
		t.Fatal(err)
	}
}

// newService stands up a System + Server + httptest listener + client.
func newService(t *testing.T, mcfg mistique.Config, scfg Config) (*mistique.System, *client.Client) {
	t.Helper()
	sys := newSys(t, mcfg)
	srv := New(sys, scfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.WithTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	return sys, c
}

func TestCatalogEndpoints(t *testing.T) {
	sys, c := newService(t, mistique.Config{}, Config{})
	ctx := context.Background()

	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Name != "demo" {
		t.Fatalf("models = %+v", models)
	}
	if len(models[0].Intermediates) == 0 || len(models[0].Stages) != 6 {
		t.Fatalf("model entry missing detail: %+v", models[0])
	}

	m, err := c.Model(ctx, "demo")
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalExamples != sys.Metadata().Model("demo").TotalExamples {
		t.Fatalf("total examples %d", m.TotalExamples)
	}

	it, err := c.Intermediate(ctx, "demo", "joined")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sys.Metadata().IntermSnapshot("demo", "joined")
	if !it.Materialized || it.Rows != want.Rows || len(it.Columns) != len(want.Columns) {
		t.Fatalf("intermediate = %+v, catalog = %+v", it, want)
	}
}

// TestQueryParity checks that every data-bearing endpoint returns exactly
// what direct System calls on the same store return.
func TestQueryParity(t *testing.T) {
	sys, c := newService(t, mistique.Config{}, Config{})
	ctx := context.Background()
	cols := []string{"logerror", "finishedsquarefeet"}

	qr, err := c.GetIntermediate(ctx, "demo", "joined", cols, 100)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sys.GetIntermediate("demo", "joined", cols, 100)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Rows != direct.Data.Rows || len(qr.Data) != direct.Data.Rows {
		t.Fatalf("rows %d vs %d", qr.Rows, direct.Data.Rows)
	}
	for i := range qr.Data {
		for j := range qr.Data[i] {
			if !eq(qr.Data[i][j], direct.Data.Row(i)[j]) {
				t.Fatalf("data mismatch at (%d,%d): %v vs %v", i, j, qr.Data[i][j], direct.Data.Row(i)[j])
			}
		}
	}
	if qr.EstReadSecs <= 0 || qr.EstRerunSecs <= 0 {
		t.Fatalf("estimates not populated: %+v", qr)
	}

	// Forced strategies agree with each other (deterministic pipeline).
	read, err := c.Fetch(ctx, "demo", "joined", cols, 50, "READ")
	if err != nil {
		t.Fatal(err)
	}
	if read.Strategy != "READ" {
		t.Fatalf("forced READ answered by %s", read.Strategy)
	}
	rerun, err := c.Fetch(ctx, "demo", "joined", cols, 50, "RERUN")
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Strategy != "RERUN" {
		t.Fatalf("forced RERUN answered by %s", rerun.Strategy)
	}
	for i := range read.Data {
		for j := range read.Data[i] {
			if !eq(read.Data[i][j], float32(rerun.Data[i][j])) {
				t.Fatalf("READ/RERUN disagree at (%d,%d)", i, j)
			}
		}
	}

	// Column endpoint.
	vals, err := c.GetColumn(ctx, "demo", "joined", "logerror", 64)
	if err != nil {
		t.Fatal(err)
	}
	dvals, err := sys.GetColumn("demo", "joined", "logerror", 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(dvals) {
		t.Fatalf("column lengths %d vs %d", len(vals), len(dvals))
	}
	for i := range vals {
		if !eq(client.F32(vals[i]), dvals[i]) {
			t.Fatalf("column mismatch at %d", i)
		}
	}

	// Estimate parity, including the engine's choice.
	est, err := c.Estimate(ctx, "demo", "joined", 100)
	if err != nil {
		t.Fatal(err)
	}
	dr, drr, err := sys.Estimate("demo", "joined", 100)
	if err != nil {
		t.Fatal(err)
	}
	if est.EstReadSecs != dr || est.EstRerunSecs != drr {
		t.Fatalf("estimate parity: %+v vs (%g, %g)", est, dr, drr)
	}
	if est.Chosen != "READ" && est.Chosen != "RERUN" {
		t.Fatalf("bad chosen %q", est.Chosen)
	}

	// Filter parity.
	rows, err := c.FilterRows(ctx, "demo", "joined", "logerror", "gt", 0)
	if err != nil {
		t.Fatal(err)
	}
	drows, err := sys.FilterRows("demo", "joined", "logerror", colstore.Gt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(drows) {
		t.Fatalf("filter rows %d vs %d", len(rows), len(drows))
	}
	for i := range rows {
		if rows[i] != drows[i] {
			t.Fatalf("filter mismatch at %d", i)
		}
	}

	// Row-range parity.
	rr, err := c.GetRows(ctx, "demo", "joined", cols, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	drm, err := sys.GetRows("demo", "joined", cols, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Data) != drm.Rows || rr.From != 10 || rr.To != 40 {
		t.Fatalf("rows shape %+v vs %d", rr, drm.Rows)
	}
	for i := range rr.Data {
		for j := range rr.Data[i] {
			if !eq(rr.Data[i][j], drm.Row(i)[j]) {
				t.Fatalf("rows mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestOpsEndpoints(t *testing.T) {
	sys, c := newService(t, mistique.Config{}, Config{})
	ctx := context.Background()

	if _, err := c.GetIntermediate(ctx, "demo", "joined", nil, 10); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["mistique_http_requests_total"] == 0 {
		t.Fatalf("http series missing from stats: %v", stats.Counters)
	}
	if stats.Counters["mistique_queries_total"] == 0 {
		t.Fatal("engine series missing from stats")
	}
	if stats.Gauges["mistique_disk_bytes"] < 0 {
		t.Fatal("disk bytes missing")
	}
	if _, ok := stats.Histograms["mistique_http_request_seconds"]; !ok {
		t.Fatal("request latency histogram missing")
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Models != 1 {
		t.Fatalf("health = %+v", h)
	}

	if _, err := c.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	_ = sys
}

// TestMetricsExposition hits /metrics and /api/v1/stats raw.
func TestMetricsExposition(t *testing.T) {
	sys := newSys(t, mistique.Config{})
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("metrics: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		"# TYPE mistique_http_requests_total counter",
		"# TYPE mistique_http_in_flight gauge",
		"# TYPE mistique_http_request_seconds histogram",
		"mistique_models_logged_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	resp, err = http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
}

// errorShape asserts a raw response is status + well-formed envelope.
func errorShape(t *testing.T, resp *http.Response, status int) client.ErrorEnvelope {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != status {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, status, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("error response Content-Type = %q", ct)
	}
	var env client.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body not an envelope: %v", err)
	}
	if env.Error.Status != status || env.Error.Message == "" {
		t.Fatalf("malformed envelope %+v for status %d", env, status)
	}
	return env
}

func TestErrorEnvelopes(t *testing.T) {
	sys := newSys(t, mistique.Config{})
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// An unknown catalog entry → 404, surfaced as APIError. (What every
	// query route does with a malformed target is
	// TestMalformedTargetsOverHTTP's table.)
	if _, err := c.Model(ctx, "nope"); !client.IsNotFound(err) {
		t.Fatalf("unknown model err = %v", err)
	}

	// A predicate the wire format does not know → 400.
	var ae *client.APIError
	if _, err := c.FilterRows(ctx, "demo", "joined", "logerror", "between", 0); !errors.As(err, &ae) || ae.Status != 400 {
		t.Fatalf("bad op err = %v", err)
	}

	// Raw shapes: malformed body, unknown field, bad query param, wrong
	// method, unknown route.
	resp, err := http.Post(ts.URL+"/api/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	errorShape(t, resp, 400)

	resp, err = http.Post(ts.URL+"/api/v1/query", "application/json", strings.NewReader(`{"model":"demo","intermediate":"joined","surprise":1}`))
	if err != nil {
		t.Fatal(err)
	}
	errorShape(t, resp, 400)

	resp, err = http.Get(ts.URL + "/api/v1/models/demo/intermediates/joined/columns/logerror?n=many")
	if err != nil {
		t.Fatal(err)
	}
	errorShape(t, resp, 400)

	resp, err = http.Get(ts.URL + "/api/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	errorShape(t, resp, 405)

	resp, err = http.Get(ts.URL + "/api/v1/unknown")
	if err != nil {
		t.Fatal(err)
	}
	errorShape(t, resp, 404)

	resp, err = http.Get(ts.URL + "/api/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	errorShape(t, resp, 400)
}

// TestAdmissionControl proves over-capacity requests are rejected with
// 429 + Retry-After while an admitted request is still executing.
func TestAdmissionControl(t *testing.T) {
	sys := newSys(t, mistique.Config{})
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	srv := New(sys, Config{
		MaxInFlight: 1,
		queryGate: func() {
			entered <- struct{}{}
			<-gate
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only slot.
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/api/v1/query", "application/json",
			strings.NewReader(`{"model":"demo","intermediate":"joined","n_ex":4}`))
		if err == nil {
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				body, _ := io.ReadAll(resp.Body)
				err = errors.New(string(body))
			}
		}
		done <- err
	}()
	<-entered

	// Second query-class request: immediate 429 with the hint.
	resp, err := http.Post(ts.URL+"/api/v1/query", "application/json",
		strings.NewReader(`{"model":"demo","intermediate":"joined","n_ex":4}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	errorShape(t, resp, 429)

	// Catalog endpoints are never shed.
	resp, err = http.Get(ts.URL + "/api/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("catalog read shed under load: %d", resp.StatusCode)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
	if got := sys.Obs().Counter("mistique_http_rejected_total", "").Value(); got == 0 {
		t.Fatal("rejected counter did not move")
	}
}

// TestRequestTimeout maps an expired per-request deadline to 504.
func TestRequestTimeout(t *testing.T) {
	sys := newSys(t, mistique.Config{})
	srv := New(sys, Config{
		RequestTimeout: 50 * time.Millisecond,
		queryGate:      func() { time.Sleep(120 * time.Millisecond) },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/v1/query", "application/json",
		strings.NewReader(`{"model":"demo","intermediate":"joined","n_ex":4}`))
	if err != nil {
		t.Fatal(err)
	}
	errorShape(t, resp, 504)
}

// TestClientRetries5xx checks the retry policy against a flaky backend:
// two 503s then success; and that 400s are never retried.
func TestClientRetries5xx(t *testing.T) {
	var calls int
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(503)
			json.NewEncoder(w).Encode(client.ErrorEnvelope{Error: client.ErrorBody{Status: 503, Message: "warming up"}})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(client.ModelsResponse{Models: []client.ModelInfo{{Name: "m"}}})
	}))
	defer flaky.Close()

	c, err := client.New(flaky.URL, client.WithMaxRetries(3), client.WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	models, err := c.Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || calls != 3 {
		t.Fatalf("models %v after %d calls", models, calls)
	}

	// 4xx: one attempt, typed error.
	calls = 0
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(400)
		json.NewEncoder(w).Encode(client.ErrorEnvelope{Error: client.ErrorBody{Status: 400, Message: "nope"}})
	}))
	defer bad.Close()
	c2, _ := client.New(bad.URL, client.WithMaxRetries(3), client.WithBackoff(time.Millisecond))
	var ae *client.APIError
	if _, err := c2.Models(context.Background()); !errors.As(err, &ae) || ae.Status != 400 || calls != 1 {
		t.Fatalf("err = %v after %d calls", err, calls)
	}

	// Exhausted retries surface the 5xx.
	calls = 0
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(503)
	}))
	defer down.Close()
	c3, _ := client.New(down.URL, client.WithMaxRetries(2), client.WithBackoff(time.Millisecond))
	if _, err := c3.Models(context.Background()); !errors.As(err, &ae) || ae.Status != 503 || calls != 3 {
		t.Fatalf("err = %v after %d calls", err, calls)
	}
}

// TestENOSPCIs507: a full disk under compaction or ingest answers 507
// Insufficient Storage, not a 500, and the client does not retry it — a
// full disk does not heal within a backoff window.
func TestENOSPCIs507(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	sys := newSys(t, mistique.Config{RowBlockRows: 64, Store: colstore.Config{FS: inj}})
	var calls atomic.Int32
	h := New(sys, Config{}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithMaxRetries(3), client.WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name, path string
		call       func() error
	}{
		{"compact", "MANIFEST", func() error { _, err := c.Compact(ctx); return err }},
		{"ingest", ".wal", func() error {
			_, err := c.IngestRows(ctx, "live", "acts", []string{"v"}, [][]float32{{1}, {2}})
			return err
		}},
	}
	for _, tc := range cases {
		calls.Store(0)
		inj.Arm(faultfs.Fault{Op: faultfs.OpWrite, PathContains: tc.path, Err: syscall.ENOSPC})
		err := tc.call()
		if !inj.Fired() {
			t.Fatalf("%s: fault on %q never fired", tc.name, tc.path)
		}
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusInsufficientStorage {
			t.Fatalf("%s: err = %v, want 507", tc.name, err)
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("%s: %d attempts, want exactly 1", tc.name, n)
		}
	}
}

// TestClientRetries429 checks backpressure transparency: a saturated
// window resolves through Retry-After waits, not an error.
func TestClientRetries429(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 3 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(429)
			json.NewEncoder(w).Encode(client.ErrorEnvelope{Error: client.ErrorBody{Status: 429, Message: "over capacity"}})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(client.HealthResponse{Status: "ok"})
	}))
	defer srv.Close()

	c, _ := client.New(srv.URL, client.WithMaxRetries(0), client.WithTimeout(5*time.Second))
	h, err := c.Health(context.Background())
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v (calls %d)", h, err, calls)
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}

	// A deadline bounds the 429 loop and surfaces IsOverCapacity.
	calls = 0
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(429)
	}))
	defer always.Close()
	c2, _ := client.New(always.URL, client.WithTimeout(300*time.Millisecond))
	_, err = c2.Health(context.Background())
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("saturated server err = %v", err)
	}
}

// TestLineageEndpoint walks a two-version DNN chain over the wire: the
// response must list newest-first with Parent links and the stored-bytes
// accounting; an unknown model must 404.
func TestLineageEndpoint(t *testing.T) {
	sys, c := newService(t, mistique.Config{}, Config{})
	ctx := context.Background()

	net := nn.SimpleCNN("cnn", 4, 1)
	imgs, _ := data.Images(8, 4, 1)
	opts := mistique.DNNLogOptions{Scheme: mistique.SchemeFull, Layers: []int{11, 13}}
	if _, err := sys.LogDNN("cnn@e0", net, imgs, opts); err != nil {
		t.Fatal(err)
	}
	opts.Parent = "cnn@e0"
	if _, err := sys.LogDNN("cnn@e1", net, imgs, opts); err != nil {
		t.Fatal(err)
	}

	resp, err := c.Lineage(ctx, "cnn@e1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Model != "cnn@e1" || len(resp.Versions) != 2 {
		t.Fatalf("lineage = %+v", resp)
	}
	head, root := resp.Versions[0], resp.Versions[1]
	if head.Model != "cnn@e1" || head.Parent != "cnn@e0" || head.Kind != "dnn" {
		t.Fatalf("head = %+v", head)
	}
	if root.Model != "cnn@e0" || root.Parent != "" {
		t.Fatalf("root = %+v", root)
	}
	// e1 logged the same activations as e0, so every column exact-dedups
	// and its post-dedup footprint is legitimately zero; the root paid.
	if head.Intermediates != 2 || root.StoredBytes <= 0 {
		t.Fatalf("accounting: head=%+v root=%+v", head, root)
	}

	if _, err := c.Lineage(ctx, "nope"); !client.IsNotFound(err) {
		t.Fatalf("unknown model: %v", err)
	}
}
