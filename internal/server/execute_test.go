package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"mistique"
	"mistique/client"
	"mistique/internal/nindex"
)

// execCase is one query of TestExecuteOverHTTPMatchesLibrary: its wire
// form, and the payload of its HTTP and its library answer, each in
// client.F32 terms so that JSON compares them bit for bit.
type execCase struct {
	q    client.Query
	wire func(ctx context.Context, c *client.Client) (any, error)
	lib  func(a *mistique.Answer) any
}

// payload builds an execCase whose HTTP answer decodes as a T.
func payload[T any](q client.Query, got func(*T) any, want func(*mistique.Answer) any) execCase {
	return execCase{q: q, lib: want, wire: func(ctx context.Context, c *client.Client) (any, error) {
		var out T
		if err := c.Execute(ctx, q, &out); err != nil {
			return nil, err
		}
		return got(&out), nil
	}}
}

func wireFloats(vs []float32) []client.F32 {
	out := make([]client.F32, len(vs))
	for i, v := range vs {
		out[i] = client.F32(v)
	}
	return out
}

// TestExecuteOverHTTPMatchesLibrary: every op, and get_intermediate under
// each forced strategy, answers over POST /api/v1/execute exactly what
// System.Execute answers on the same store — the exact ops on a logged
// pipeline, the sample-or-exact ops on a stream whose sample answers.
func TestExecuteOverHTTPMatchesLibrary(t *testing.T) {
	sys, _, ts := newStreamService(t, Config{})
	logPipeline(t, sys, demoSpec)
	ingestLive(t, sys, 300)
	c, err := client.New(ts.URL, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	matrix := func(a *mistique.Answer) [][]client.F32 {
		out := make([][]client.F32, a.Data.Rows)
		for i := range out {
			out[i] = wireFloats(a.Data.Row(i))
		}
		return out
	}
	get := func(force string) execCase {
		return payload(client.Query{Op: client.OpGet, Model: "demo", Intermediate: "joined", Columns: []string{"logerror", "yearbuilt"}, To: 100, Force: force},
			func(r *client.QueryResponse) any { return []any{r.Cols, r.Rows, r.Data, r.Strategy} },
			func(a *mistique.Answer) any { return []any{a.Columns, a.Data.Rows, matrix(a), a.Strategy.String()} })
	}
	colDist := func(model, interm, col string) execCase {
		return payload(client.Query{Op: client.OpColDist, Model: model, Intermediate: interm, Columns: []string{col}},
			func(d *client.ColDistResponse) any {
				return []any{d.Rows, d.Finite, d.NaN, d.PosInf, d.NegInf, d.Min, d.Max, d.Mean, d.MeanBound, d.Std, d.P50, d.P50RankBound, d.SampleRows, d.Strategy}
			},
			func(a *mistique.Answer) any {
				d := a.ColDist
				return []any{d.Rows, d.Finite, d.NaN, d.PosInf, d.NegInf, client.F32(d.Min), client.F32(d.Max), d.Mean, d.MeanBound, d.Std,
					client.F32(d.P50), d.P50RankBound, d.SampleRows, d.Strategy.String()}
			})
	}
	cases := []execCase{
		get(""), get("READ"), get("RERUN"),
		payload(client.Query{Op: client.OpRows, Model: "demo", Intermediate: "joined", Columns: []string{"logerror"}, From: 130, To: 0},
			func(r *client.RowsResponse) any { return []any{r.Cols, r.From, r.To, r.Data} },
			func(a *mistique.Answer) any { return []any{a.Columns, a.From, a.To, matrix(a)} }),
		payload(client.Query{Op: client.OpFilter, Model: "demo", Intermediate: "joined", Columns: []string{"yearbuilt"}, Pred: "ge", Bound: 1990, From: 10, To: 400},
			func(r *client.FilterResponse) any { return []any{r.Rows, r.Count} },
			func(a *mistique.Answer) any { return []any{a.Rows, len(a.Rows)} }),
		payload(client.Query{Op: client.OpTopK, Model: "demo", Intermediate: "joined", Columns: []string{"logerror"}, K: 9},
			func(r *client.TopKResponse) any { return r.Entries },
			func(a *mistique.Answer) any {
				out := []client.TopKEntry{}
				for _, e := range a.TopK {
					out = append(out, client.TopKEntry{Row: e.Row, Value: client.F32(e.Value)})
				}
				return out
			}),
		payload(client.Query{Op: client.OpKNN, Model: "demo", Intermediate: "joined", Columns: []string{"logerror", "yearbuilt"}, K: 5, Row: 7},
			func(r *client.NeighborsResponse) any { return []any{r.Row, r.Neighbors} },
			func(a *mistique.Answer) any {
				out := []client.Neighbor{}
				for _, n := range a.Neighbors {
					out = append(out, client.Neighbor{Row: n.Row, Dist: client.F32(n.Dist)})
				}
				return []any{a.Row, out}
			}),
		colDist("demo", "joined", "logerror"),
		colDist("live", "acts", "v"),
		payload(client.Query{Op: client.OpApproxTopK, Model: "live", Intermediate: "acts", Columns: []string{"w"}, K: 6, MaxError: 0.5},
			func(r *client.ApproxTopKResponse) any {
				return []any{r.Entries, r.RankBound, r.Rows, r.SampleRows, r.Strategy}
			},
			func(a *mistique.Answer) any {
				t := a.ApproxTopK
				out := []client.ApproxTopKEntry{}
				for _, e := range t.Entries {
					out = append(out, client.ApproxTopKEntry{Row: e.Row, Value: client.F32(e.Value)})
				}
				return []any{out, t.RankBound, t.Rows, t.SampleRows, t.Strategy.String()}
			}),
		payload(client.Query{Op: client.OpConfusion, Model: "live", Intermediate: "acts", Columns: []string{"v", "w"}},
			func(r *client.ConfusionResponse) any {
				return []any{r.Cells, r.Rows, r.MaxBound, r.SampleRows, r.Strategy}
			},
			func(a *mistique.Answer) any {
				cm := a.Confusion
				cells := []client.ConfusionCell{}
				for _, c := range cm.Cells {
					cells = append(cells, client.ConfusionCell{Label: client.F32(c.Label), Pred: client.F32(c.Pred), Count: c.Count, Bound: c.Bound})
				}
				return []any{cells, cm.Rows, cm.MaxBound, cm.SampleRows, cm.Strategy.String()}
			}),
		payload(client.Query{Op: client.OpSampleRows, Model: "live", Intermediate: "acts", To: 40},
			func(r *client.SampleRowsResponse) any { return []any{r.Cols, r.RowIDs, r.Data, r.Rows, r.Strategy} },
			func(a *mistique.Answer) any {
				return []any{a.Columns, a.RowIDs, matrix(a), a.Population, a.Strategy.String()}
			}),
	}
	seen := map[string]bool{}
	for _, tc := range cases {
		name := tc.q.Op + "/" + tc.q.Intermediate + "/" + tc.q.Force
		seen[tc.q.Op] = true
		q := mistique.Query{Op: mistique.Op(tc.q.Op), Model: tc.q.Model, Intermediate: tc.q.Intermediate, Columns: tc.q.Columns,
			From: tc.q.From, To: tc.q.To, Bound: float32(tc.q.Bound), K: tc.q.K, Row: tc.q.Row, MaxError: tc.q.MaxError, Force: tc.q.Force}
		if tc.q.Pred != "" {
			if q.Pred, err = nindex.ParseOp(tc.q.Pred); err != nil {
				t.Fatal(err)
			}
		}
		a, err := sys.Execute(ctx, q)
		if err != nil {
			t.Fatalf("%s: library: %v", name, err)
		}
		got, err := tc.wire(ctx, c)
		if err != nil {
			t.Fatalf("%s: over HTTP: %v", name, err)
		}
		gb, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := json.Marshal(tc.lib(a))
		if err != nil {
			t.Fatal(err)
		}
		if string(gb) != string(wb) {
			t.Errorf("%s: over HTTP\n  %.400s\nlibrary\n  %.400s", name, gb, wb)
		}
	}
	for _, op := range []mistique.Op{mistique.OpGet, mistique.OpRows, mistique.OpFilter, mistique.OpTopK, mistique.OpKNN,
		mistique.OpColDist, mistique.OpApproxTopK, mistique.OpConfusion, mistique.OpSampleRows} {
		if !seen[string(op)] {
			t.Errorf("op %s has no case", op)
		}
	}
}

// TestRouteSurface pins the endpoint table, method and pattern. Every
// engine query travels on POST /api/v1/execute, so a route added for one
// op fails here; the per-op routes that /execute replaced answer the JSON
// 404.
func TestRouteSurface(t *testing.T) {
	want := []string{
		"POST /api/v1/execute",
		"POST /api/v1/compact",
		"POST /api/v1/ingest/{model}/{interm}",
		"GET /api/v1/models",
		"GET /api/v1/models/{model}",
		"GET /api/v1/models/{model}/intermediates/{interm}",
		"GET /api/v1/models/{model}/lineage",
		"GET /api/v1/stats",
		"GET /metrics",
		"GET /healthz",
		"GET /readyz",
	}
	sys, err := mistique.Open(t.TempDir(), mistique.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys, Config{})
	var got []string
	for _, rt := range srv.routes() {
		got = append(got, rt.method+" "+rt.pattern)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("route table\n  %q\nwant\n  %q", got, want)
	}
	for _, path := range []string{
		"/api/v1/query", "/api/v1/models/demo/intermediates/joined/columns/logerror", "/api/v1/filter",
		"/api/v1/topk", "/api/v1/rows", "/api/v1/estimate", "/api/v1/approx/coldist",
		"/api/v1/approx/topk", "/api/v1/approx/confusion", "/api/v1/approx/rows",
	} {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
			if rec.Code != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404", method, path, rec.Code)
			}
		}
	}
}

// TestOversizedBodyIs413: a request body past the 1 MiB cap is refused
// whole with 413 — also when a valid JSON value fits under the cap and
// only whitespace and garbage run past it — on the query route and on
// ingest, and none of it reaches the engine.
func TestOversizedBodyIs413(t *testing.T) {
	sys, _, ts := newStreamService(t, Config{})
	logPipeline(t, sys, demoSpec)
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	pad := strings.Repeat(" ", maxBodyBytes) + "garbage"
	huge := strings.Repeat("x", maxBodyBytes)
	for _, tc := range []struct{ path, body, oversized string }{
		{"/api/v1/execute", `{"op":"get_intermediate","model":"demo","intermediate":"joined","to":1}`,
			`{"op":"get_intermediate","model":"` + huge + `","intermediate":"joined"}`},
		{"/api/v1/ingest/live/acts", `{"columns":["v"],"rows":[[1]]}`, `{"columns":["` + huge + `"],"rows":[[1]]}`},
	} {
		for _, body := range []string{tc.body + pad, tc.oversized} {
			env := errorShape(t, post(tc.path, body), http.StatusRequestEntityTooLarge)
			if !strings.Contains(env.Error.Message, "limit") {
				t.Errorf("%s: 413 message %q does not name the limit", tc.path, env.Error.Message)
			}
		}
		resp := post(tc.path, tc.body+" \n")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: the value alone got %d", tc.path, resp.StatusCode)
		}
	}
	c, err := client.New(ts.URL, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	ack, err := c.IngestRows(context.Background(), "live", "acts", []string{"v"}, [][]float32{{2}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Rows != 2 {
		t.Fatalf("live.acts holds %d rows after two accepted batches of 1", ack.Rows)
	}
}
