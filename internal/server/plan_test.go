package server

import (
	"context"
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

// queryEndpoints is every route that ends in System.Execute or Plan.
var queryEndpoints = []struct {
	name                      string
	stored, col, ranged, hasK bool
	method                    string
	request                   func(x target) (path, body string)
}{
	{"query", false, true, false, false, "POST", func(x target) (string, string) {
		return "/api/v1/query", fmt.Sprintf(`{"model":%q,"intermediate":%q,"cols":[%q],"n_ex":5,"strategy":%q}`, x.model, x.interm, x.col, x.force)
	}},
	{"column", false, true, false, false, "GET", func(x target) (string, string) {
		return fmt.Sprintf("/api/v1/models/%s/intermediates/%s/columns/%s?n=5", x.model, x.interm, x.col), ""
	}},
	{"estimate", false, false, false, false, "GET", func(x target) (string, string) {
		return fmt.Sprintf("/api/v1/estimate?model=%s&interm=%s&n=5", x.model, x.interm), ""
	}},
	{"rows", true, true, true, false, "POST", func(x target) (string, string) {
		return "/api/v1/rows", fmt.Sprintf(`{"model":%q,"intermediate":%q,"cols":[%q],"from":%d,"to":%d}`, x.model, x.interm, x.col, x.from, x.to)
	}},
	{"filter", true, true, true, false, "POST", func(x target) (string, string) {
		return "/api/v1/filter", fmt.Sprintf(`{"model":%q,"intermediate":%q,"column":%q,"op":"gt","bound":0,"from":%d,"to":%d}`, x.model, x.interm, x.col, x.from, x.to)
	}},
	{"topk", true, true, true, true, "POST", func(x target) (string, string) {
		return "/api/v1/topk", fmt.Sprintf(`{"model":%q,"intermediate":%q,"column":%q,"k":%d,"from":%d,"to":%d}`, x.model, x.interm, x.col, x.k, x.from, x.to)
	}},
	{"approx/coldist", false, true, false, false, "POST", func(x target) (string, string) {
		return "/api/v1/approx/coldist", fmt.Sprintf(`{"model":%q,"intermediate":%q,"column":%q,"max_error":0.05}`, x.model, x.interm, x.col)
	}},
	{"approx/topk", true, true, false, true, "POST", func(x target) (string, string) {
		return "/api/v1/approx/topk", fmt.Sprintf(`{"model":%q,"intermediate":%q,"column":%q,"k":%d,"max_error":0.05}`, x.model, x.interm, x.col, x.k)
	}},
	{"approx/confusion", false, true, false, false, "POST", func(x target) (string, string) {
		return "/api/v1/approx/confusion", fmt.Sprintf(`{"model":%q,"intermediate":%q,"label_col":%q,"pred_col":"yearbuilt"}`, x.model, x.interm, x.col)
	}},
	{"approx/rows", false, true, false, false, "POST", func(x target) (string, string) {
		return "/api/v1/approx/rows", fmt.Sprintf(`{"model":%q,"intermediate":%q,"cols":[%q],"max_rows":5}`, x.model, x.interm, x.col)
	}},
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
				applies = true // only /api/v1/query carries a strategy
			}
			if ep.name == "estimate" && (mal.status == 504 || x.model == "") {
				continue // never deadline-bound; its empty-target 400 is TestErrorEnvelopes'
			}
			if ep.name == "column" && (x.model == "" || x.col == "") {
				continue // an empty path segment is a different route
			}
			if !applies {
				continue
			}
			path, body := ep.request(x)
			req, err := http.NewRequest(ep.method, mal.url+path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
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

// TestEstimateAgreesWithQuery: /api/v1/estimate is the engine's own plan,
// so its estimates and its choice are the ones /api/v1/query then reports
// — on a materialized pipeline, an unmaterialized one, and a stream (where
// the old hand-derived choice said RERUN for a model that cannot re-run).
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
	for _, tc := range []struct {
		name, model, interm string
		c                   *client.Client
	}{{"materialized", "demo", "joined", c}, {"unmaterialized", "demo", "joined", lazy}, {"stream", "live", "acts", stream}} {
		est, err := tc.c.Estimate(ctx, tc.model, tc.interm, 100)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		qr, err := tc.c.GetIntermediate(ctx, tc.model, tc.interm, nil, 100)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if est.Chosen != qr.Strategy || est.EstReadSecs != qr.EstReadSecs || est.EstRerunSecs != qr.EstRerunSecs {
			t.Errorf("%s: estimate %+v, query answered %s (read %g, rerun %g)", tc.name, est, qr.Strategy, qr.EstReadSecs, qr.EstRerunSecs)
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
		for path, body := range map[string]string{
			"/api/v1/rows":   fmt.Sprintf(`{"model":%q,"intermediate":%q,"cols":["typo"],"from":0,"to":10}`, tgt.model, tgt.interm),
			"/api/v1/filter": fmt.Sprintf(`{"model":%q,"intermediate":%q,"column":"typo","op":"gt","bound":0}`, tgt.model, tgt.interm),
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
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
