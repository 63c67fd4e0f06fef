package server

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mistique"
	"mistique/client"
	"mistique/internal/colstore"
)

func streamCell(row int64, col int) float32 { return float32(row%353) + float32(col)*0.5 }

// newStreamService stands up a service tuned for streaming tests.
func newStreamService(t *testing.T, scfg Config) (*mistique.System, *Server, *httptest.Server) {
	t.Helper()
	sys, err := mistique.Open(t.TempDir(), mistique.Config{Store: colstore.Config{RowBlockRows: 128}})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys, scfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return sys, srv, ts
}

func TestIngestAndApproxEndpoints(t *testing.T) {
	sys, _, ts := newStreamService(t, Config{})
	c, err := client.New(ts.URL, client.WithTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const n = 1000
	cols := []string{"v", "w"}
	var last *client.IngestResponse
	for off := int64(0); off < n; off += 200 {
		rows := make([][]float32, 200)
		for i := range rows {
			row := off + int64(i)
			rows[i] = []float32{streamCell(row, 0), streamCell(row, 1)}
		}
		if last, err = c.IngestRows(ctx, "live", "acts", cols, rows); err != nil {
			t.Fatal(err)
		}
	}
	if last.Rows != n || last.FlushedRows != 896 {
		t.Fatalf("ingest ack %+v", last)
	}

	// ColDist: sampled from a reservoir that holds every row, so the
	// answer is exact and its bound 0.
	d, err := c.ColDist(ctx, "live", "acts", "v", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Strategy != "SAMPLE" || d.Rows != n || d.SampleRows != n || d.MeanBound != 0 {
		t.Fatalf("coldist %+v", d)
	}
	var exactMean float64
	for row := int64(0); row < n; row++ {
		exactMean += float64(streamCell(row, 0))
	}
	exactMean /= n
	if diff := math.Abs(d.Mean - exactMean); diff > d.MeanBound+1e-9 {
		t.Fatalf("mean %v vs exact %v exceeds bound %v", d.Mean, exactMean, d.MeanBound)
	}
	// Engine parity: the endpoint answers from the same sample.
	direct, err := sys.ColDist("live", "acts", "v", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean != direct.Mean || d.SampleRows != direct.SampleRows {
		t.Fatalf("wire %+v vs direct %+v", d, direct)
	}

	// ApproxTopK: every entry carries its true population value.
	tk, err := c.ApproxTopK(ctx, "live", "acts", "v", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tk.Strategy != "SAMPLE" || len(tk.Entries) != 5 || tk.RankBound != 0 {
		t.Fatalf("approx topk %+v", tk)
	}
	for _, e := range tk.Entries {
		if float32(e.Value) != streamCell(e.Row, 0) {
			t.Fatalf("entry row %d = %v, population has %v", e.Row, e.Value, streamCell(e.Row, 0))
		}
	}

	// SampleRows: real row ids, ascending, true values.
	var sr client.SampleRowsResponse
	if err := c.Execute(ctx, client.Query{Op: client.OpSampleRows, Model: "live", Intermediate: "acts", To: 50}, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Strategy != "SAMPLE" || len(sr.RowIDs) != 50 || sr.Rows != n {
		t.Fatalf("sample rows %+v", sr)
	}
	for i, id := range sr.RowIDs {
		if i > 0 && id <= sr.RowIDs[i-1] {
			t.Fatalf("row ids not ascending: %v", sr.RowIDs[i-1:i+1])
		}
		for j := range cols {
			if float32(sr.Data[i][j]) != streamCell(id, j) {
				t.Fatalf("sampled row %d col %d = %v, want %v", id, j, sr.Data[i][j], streamCell(id, j))
			}
		}
	}

	// Confusion over a second stream with label/pred columns.
	exact := map[[2]float32]float64{}
	rows := make([][]float32, n)
	for i := range rows {
		l := float32(i % 4)
		p := l
		if i%9 == 0 {
			p = float32((i + 1) % 4)
		}
		rows[i] = []float32{l, p}
		exact[[2]float32{l, p}]++
	}
	if _, err := c.IngestRows(ctx, "live", "preds", []string{"label", "pred"}, rows); err != nil {
		t.Fatal(err)
	}
	var cm client.ConfusionResponse
	if err := c.Execute(ctx, client.Query{Op: client.OpConfusion, Model: "live", Intermediate: "preds", Columns: []string{"label", "pred"}}, &cm); err != nil {
		t.Fatal(err)
	}
	if cm.Strategy != "SAMPLE" || cm.Rows != n || cm.MaxBound != 0 {
		t.Fatalf("confusion %+v", cm)
	}
	for _, cell := range cm.Cells {
		want := exact[[2]float32{float32(cell.Label), float32(cell.Pred)}]
		if diff := math.Abs(cell.Count - want); diff > cell.Bound+1e-6 {
			t.Fatalf("cell (%v,%v): %v vs exact %v exceeds bound %v", cell.Label, cell.Pred, cell.Count, want, cell.Bound)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	_, _, ts := newStreamService(t, Config{})
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/api/v1/ingest/live/acts", `{`); code != http.StatusBadRequest {
		t.Fatalf("bad JSON got %d", code)
	}
	if code := post("/api/v1/ingest/live/acts", `{"columns":[],"rows":[[1]]}`); code != http.StatusBadRequest {
		t.Fatalf("no columns got %d", code)
	}
	if code := post("/api/v1/ingest/live/acts", `{"columns":["a"],"rows":[]}`); code != http.StatusBadRequest {
		t.Fatalf("no rows got %d", code)
	}
	if code := post("/api/v1/ingest/live/acts", `{"columns":["a"],"rows":[[1],[2]]}`); code != http.StatusOK {
		t.Fatalf("valid batch got %d", code)
	}
	if code := post("/api/v1/ingest/live/acts", `{"columns":["b"],"rows":[[1]]}`); code < 400 {
		t.Fatalf("column mismatch got %d", code)
	}
	if code := post("/api/v1/execute", `{"op":"col_dist","model":"live"}`); code != http.StatusBadRequest {
		t.Fatalf("incomplete coldist got %d", code)
	}
	if code := post("/api/v1/execute", `{"op":"approx_topk","model":"live","intermediate":"acts","columns":["a"],"k":0}`); code != http.StatusBadRequest {
		t.Fatalf("k=0 got %d", code)
	}
}

// TestTenantRateQuota exercises the per-tenant token bucket over the wire:
// a tenant that exhausts its rows/sec gets 429 + Retry-After while other
// tenants keep flowing.
func TestTenantRateQuota(t *testing.T) {
	_, srv, ts := newStreamService(t, Config{TenantRowsPerSec: 100})

	post := func(tenant string, nRows int) *http.Response {
		t.Helper()
		body := []byte(`{"columns":["v"],"rows":[`)
		for i := 0; i < nRows; i++ {
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, []byte(`[1.5]`)...)
		}
		body = append(body, []byte(`]}`)...)
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/ingest/live/acts", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set("X-Mistique-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// The bucket starts full: 100 rows pass, the next batch is over rate.
	if resp := post("noisy", 100); resp.StatusCode != http.StatusOK {
		t.Fatalf("first batch got %d", resp.StatusCode)
	}
	resp := post("noisy", 100)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate batch got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
	// Another tenant has its own bucket.
	if resp := post("quiet", 100); resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant got %d", resp.StatusCode)
	}
	// The anonymous bucket is separate too.
	if resp := post("", 100); resp.StatusCode != http.StatusOK {
		t.Fatalf("default tenant got %d", resp.StatusCode)
	}
	if got := srv.sys.Metrics().Counters["mistique_http_tenant_rejected_total"]; got < 1 {
		t.Fatalf("tenant rejected counter = %v", got)
	}
}

// TestTenantInFlightQuota unit-tests the in-flight half of the admission
// bucket.
func TestTenantInFlightQuota(t *testing.T) {
	_, srv, _ := newStreamService(t, Config{TenantMaxInFlight: 2})

	rel1, err := srv.admitTenant("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := srv.admitTenant("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.admitTenant("t", 1); err == nil {
		t.Fatal("third in-flight ingest admitted past the bound")
	}
	// Other tenants are unaffected.
	relOther, err := srv.admitTenant("other", 1)
	if err != nil {
		t.Fatal(err)
	}
	relOther()
	rel1()
	if rel3, err := srv.admitTenant("t", 1); err != nil {
		t.Fatal(err)
	} else {
		rel3()
	}
	rel2()
}
