package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mistique"
	"mistique/client"
)

// target is everything a query-class request names; the endpoint table
// turns one into a request, the malformation table bends one.
type target struct {
	model, interm, col string
	from, to, k        int
	force              string
}

// queryEndpoints is every query shape that ends in System.Execute or Plan,
// each a body on POST /api/v1/execute; the names are those of the per-op
// routes the one route replaced.
var queryEndpoints = []struct {
	name                      string
	stored, col, ranged, hasK bool
	request                   func(x target) (path, body string)
}{
	{"query", false, true, false, false, func(x target) (string, string) {
		return execute(`{"op":"get_intermediate","model":%q,"intermediate":%q,"columns":[%q],"to":5,"force":%q}`, x.model, x.interm, x.col, x.force)
	}},
	{"column", false, true, false, false, func(x target) (string, string) {
		return execute(`{"op":"get_intermediate","model":%q,"intermediate":%q,"columns":[%q],"to":5}`, x.model, x.interm, x.col)
	}},
	{"estimate", false, false, false, false, func(x target) (string, string) {
		path, body := execute(`{"op":"get_intermediate","model":%q,"intermediate":%q,"to":5}`, x.model, x.interm)
		return path + "?explain=1", body
	}},
	{"rows", true, true, true, false, func(x target) (string, string) {
		return execute(`{"op":"get_rows","model":%q,"intermediate":%q,"columns":[%q],"from":%d,"to":%d}`, x.model, x.interm, x.col, x.from, x.to)
	}},
	{"filter", true, true, true, false, func(x target) (string, string) {
		return execute(`{"op":"filter_rows","model":%q,"intermediate":%q,"columns":[%q],"pred":"gt","bound":0,"from":%d,"to":%d}`, x.model, x.interm, x.col, x.from, x.to)
	}},
	{"topk", true, true, true, true, func(x target) (string, string) {
		return execute(`{"op":"topk","model":%q,"intermediate":%q,"columns":[%q],"k":%d,"from":%d,"to":%d}`, x.model, x.interm, x.col, x.k, x.from, x.to)
	}},
	{"knn", true, true, false, true, func(x target) (string, string) {
		return execute(`{"op":"knn","model":%q,"intermediate":%q,"columns":[%q],"k":%d,"row":1}`, x.model, x.interm, x.col, x.k)
	}},
	{"approx/coldist", false, true, false, false, func(x target) (string, string) {
		return execute(`{"op":"col_dist","model":%q,"intermediate":%q,"columns":[%q],"max_error":0.05}`, x.model, x.interm, x.col)
	}},
	{"approx/topk", true, true, false, true, func(x target) (string, string) {
		return execute(`{"op":"approx_topk","model":%q,"intermediate":%q,"columns":[%q],"k":%d,"max_error":0.05}`, x.model, x.interm, x.col, x.k)
	}},
	{"approx/confusion", false, true, false, false, func(x target) (string, string) {
		return execute(`{"op":"confusion","model":%q,"intermediate":%q,"columns":[%q,"yearbuilt"]}`, x.model, x.interm, x.col)
	}},
	{"approx/rows", false, true, false, false, func(x target) (string, string) {
		return execute(`{"op":"sample_rows","model":%q,"intermediate":%q,"columns":[%q],"to":5}`, x.model, x.interm, x.col)
	}},
}

// execute formats a POST /api/v1/execute body.
func execute(format string, args ...any) (path, body string) {
	return "/api/v1/execute", fmt.Sprintf(format, args...)
}

// TestMalformedTargetsOverHTTP is the HTTP half of the engine's every-op x
// every-malformed-target table: the sentinel every op shares maps to the
// same status on every route — 404 for a target the catalog lacks, 409 for
// chunks that are not there, 400 for a query that is malformed whatever
// the catalog holds, 504 for a deadline that has already passed.
func TestMalformedTargetsOverHTTP(t *testing.T) {
	serve := func(mcfg mistique.Config, scfg Config) string {
		ts := httptest.NewServer(New(newSys(t, mcfg), scfg).Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	healthy := serve(mistique.Config{}, Config{})
	lazy := serve(mistique.Config{Gamma: 1e12}, Config{}) // adaptive: nothing stored
	expired := serve(mistique.Config{}, Config{RequestTimeout: time.Nanosecond})

	malformations := []struct {
		name   string
		url    string
		status int
		// bend malforms the target, or reports that the endpoint at hand
		// (described by its flags) cannot be malformed this way.
		bend func(x *target, stored, col, ranged, hasK bool) bool
	}{
		{"well-formed", healthy, 200, func(x *target, _, _, _, _ bool) bool { return true }},
		{"unknown model", healthy, 404, func(x *target, _, _, _, _ bool) bool { x.model = "nope"; return true }},
		{"unknown intermediate", healthy, 404, func(x *target, _, _, _, _ bool) bool { x.interm = "nope"; return true }},
		{"unknown column", healthy, 404, func(x *target, _, col, _, _ bool) bool { x.col = "typo"; return col }},
		{"empty column", healthy, 400, func(x *target, _, col, _, _ bool) bool { x.col = ""; return col }},
		{"no model", healthy, 400, func(x *target, _, _, _, _ bool) bool { x.model = ""; return true }},
		{"unmaterialized", lazy, 409, func(x *target, stored, _, _, _ bool) bool { return stored }},
		{"forced READ unmaterialized", lazy, 409, func(x *target, _, _, _, _ bool) bool { x.force = "READ"; return false }},
		{"inverted range", healthy, 400, func(x *target, _, _, ranged, _ bool) bool { x.from, x.to = 9, 4; return ranged }},
		{"negative range", healthy, 400, func(x *target, _, _, ranged, _ bool) bool { x.from = -1; return ranged }},
		{"range past the end", healthy, 400, func(x *target, _, _, ranged, _ bool) bool { x.from, x.to = 1<<20, 0; return ranged }},
		{"negative k", healthy, 400, func(x *target, _, _, _, hasK bool) bool { x.k = -1; return hasK }},
		{"unknown strategy", healthy, 400, func(x *target, _, _, _, _ bool) bool { x.force = "MAYBE"; return false }},
		{"expired deadline", expired, 504, func(x *target, _, _, _, _ bool) bool { return true }},
	}
	for _, mal := range malformations {
		for _, ep := range queryEndpoints {
			x := target{model: "demo", interm: "joined", col: "logerror", to: 40, k: 3}
			applies := mal.bend(&x, ep.stored, ep.col, ep.ranged, ep.hasK)
			if ep.name == "query" && x.force != "" {
				applies = true // only get_intermediate takes a forced strategy
			}
			if !applies {
				continue
			}
			path, body := ep.request(x)
			resp, err := http.Post(mal.url+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if mal.status == 200 {
				if resp.StatusCode != 200 {
					t.Errorf("%s, %s: status %d, want 200", mal.name, ep.name, resp.StatusCode)
				}
				resp.Body.Close()
				continue
			}
			t.Run(mal.name+"/"+ep.name, func(t *testing.T) { errorShape(t, resp, mal.status) })
		}
	}
}

// TestEstimateAgreesWithQuery: EXPLAIN is the engine's own plan, so for
// every op its strategy is the one the executed query then answers with
// (READ for the ops bound to stored chunks, whose answers carry no
// strategy), and get_intermediate's estimates are the ones its answer
// reports; EXPLAIN itself moves no query counter, and the query it echoes
// executes as it is, with the same strategy. All of it holds on a
// materialized pipeline, an unmaterialized one, and a stream (where the
// old hand-derived choice said RERUN for a model that cannot re-run).
// Every op succeeds on every target except the stored-chunk ops on the
// unmaterialized pipeline, whose EXPLAIN and query are both 409.
func TestEstimateAgreesWithQuery(t *testing.T) {
	ctx := context.Background()
	_, c, _ := newService(t, mistique.Config{}, Config{})
	_, lazy, _ := newService(t, mistique.Config{Gamma: 1e12}, Config{})
	ssys, _, ts := newStreamService(t, Config{})
	ingestLive(t, ssys, 300)
	if err := ssys.Flush(); err != nil {
		t.Fatal(err)
	}
	stream, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	status := func(err error) int {
		var ae *client.APIError
		if errors.As(err, &ae) {
			return ae.Status
		}
		return 0
	}
	for _, tc := range []struct {
		name, model, interm, a, b string
		c                         *client.Client
		fails                     map[string]int // op -> status of both EXPLAIN and query
	}{
		{"materialized", "demo", "joined", "logerror", "yearbuilt", c, nil},
		{"unmaterialized", "demo", "joined", "logerror", "yearbuilt", lazy, map[string]int{
			client.OpRows: 409, client.OpFilter: 409, client.OpTopK: 409, client.OpKNN: 409, client.OpApproxTopK: 409,
		}},
		{"stream", "live", "acts", "v", "w", stream, nil},
	} {
		one, two := []string{tc.a}, []string{tc.a, tc.b}
		for _, q := range []client.Query{
			{Op: client.OpGet, To: 100},
			{Op: client.OpRows, Columns: one, From: 3, To: 40},
			{Op: client.OpFilter, Columns: one, Pred: "gt", Bound: 0},
			{Op: client.OpTopK, Columns: one, K: 5},
			{Op: client.OpKNN, Columns: two, K: 3, Row: 2},
			{Op: client.OpColDist, Columns: one},
			{Op: client.OpApproxTopK, Columns: one, K: 5},
			{Op: client.OpConfusion, Columns: two},
			{Op: client.OpSampleRows, Columns: two, To: 20},
		} {
			q.Model, q.Intermediate = tc.model, tc.interm
			before, err := tc.c.Intermediate(ctx, tc.model, tc.interm)
			if err != nil {
				t.Fatal(err)
			}
			plan, perr := tc.c.Explain(ctx, q)
			if after, err := tc.c.Intermediate(ctx, tc.model, tc.interm); err != nil || after.QueryCount != before.QueryCount {
				t.Fatalf("%s %s: EXPLAIN moved the query count %d -> %+v (%v)", tc.name, q.Op, before.QueryCount, after, err)
			}
			var got struct{ Strategy string }
			xerr := tc.c.Execute(ctx, q, &got)
			if want, fails := tc.fails[q.Op]; fails {
				if status(perr) != want || status(xerr) != want {
					t.Errorf("%s %s: explain %v, execute %v; want both %d", tc.name, q.Op, perr, xerr, want)
				}
				continue
			}
			if perr != nil || xerr != nil {
				t.Fatalf("%s %s: explain %v, execute %v", tc.name, q.Op, perr, xerr)
			}
			if got.Strategy == "" {
				got.Strategy = "READ"
			}
			if plan.Strategy != got.Strategy {
				t.Errorf("%s %s: explain chose %s, the query answered %s", tc.name, q.Op, plan.Strategy, got.Strategy)
			}
			var again struct{ Strategy string }
			if err := tc.c.Execute(ctx, plan.Query, &again); err != nil {
				t.Fatalf("%s %s: the explained query %+v does not execute: %v", tc.name, q.Op, plan.Query, err)
			}
			if again.Strategy == "" {
				again.Strategy = "READ"
			}
			if again.Strategy != plan.Strategy {
				t.Errorf("%s %s: the explained query answered %s, explain chose %s", tc.name, q.Op, again.Strategy, plan.Strategy)
			}
			if q.Op != client.OpGet {
				continue
			}
			var qr client.QueryResponse
			if err := tc.c.Execute(ctx, q, &qr); err != nil {
				t.Fatal(err)
			}
			if plan.EstReadSecs != qr.EstReadSecs || plan.EstRerunSecs != qr.EstRerunSecs {
				t.Errorf("%s: explain %+v, query estimated read %g, rerun %g", tc.name, plan, qr.EstReadSecs, qr.EstRerunSecs)
			}
		}
	}
}

// ingestLive streams n rows of streamCell data into live.acts.
func ingestLive(t *testing.T, sys *mistique.System, n int) {
	t.Helper()
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = []float32{streamCell(int64(i), 0), streamCell(int64(i), 1)}
	}
	if _, err := sys.IngestRows("live", "acts", []string{"v", "w"}, rows); err != nil {
		t.Fatal(err)
	}
}

// TestTypoColumnOverHTTPKeepsStoredRows: one POST with a misspelled column
// used to run the heal path, which deleted a flushed stream's every row
// (and answered 500); it is a 404 that leaves the store alone.
func TestTypoColumnOverHTTPKeepsStoredRows(t *testing.T) {
	sys, _, ts := newStreamService(t, Config{})
	logPipeline(t, sys, demoSpec)
	ingestLive(t, sys, 300)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	c, err := client.New(ts.URL, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tgt := range []struct{ model, interm string }{{"live", "acts"}, {"demo", "joined"}} {
		it, err := c.Intermediate(ctx, tgt.model, tgt.interm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.GetRows(ctx, tgt.model, tgt.interm, nil, 0, it.Rows)
		if err != nil {
			t.Fatal(err)
		}
		stats := sys.Store().Stats()
		for _, body := range []string{
			fmt.Sprintf(`{"op":"get_rows","model":%q,"intermediate":%q,"columns":["typo"],"from":0,"to":10}`, tgt.model, tgt.interm),
			fmt.Sprintf(`{"op":"filter_rows","model":%q,"intermediate":%q,"columns":["typo"],"pred":"gt","bound":0}`, tgt.model, tgt.interm),
		} {
			resp, err := http.Post(ts.URL+"/api/v1/execute", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			errorShape(t, resp, 404)
		}
		if after := sys.Store().Stats(); after != stats {
			t.Fatalf("%s.%s: typo requests touched the store: %+v -> %+v", tgt.model, tgt.interm, stats, after)
		}
		got, err := c.GetRows(ctx, tgt.model, tgt.interm, nil, 0, it.Rows)
		if err != nil {
			t.Fatalf("%s.%s: exact read after the typos: %v", tgt.model, tgt.interm, err)
		}
		if fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
			t.Fatalf("%s.%s: stored rows changed", tgt.model, tgt.interm)
		}
	}
}
