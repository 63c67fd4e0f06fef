package server

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"testing"

	"mistique"
	"mistique/client"
	"mistique/internal/pipeline"
	"mistique/internal/zillow"
)

var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

// fuzzHandler lazily builds one shared System + Server reused across
// fuzz executions — building a store per input would drown the fuzzer in
// setup. The store lives in its own temp dir (not t.TempDir, which is
// torn down per subtest while the shared Server still references it).
func fuzzHandler(t testing.TB) *Server {
	fuzzOnce.Do(func() {
		dir, err := os.MkdirTemp("", "mistique-fuzz-*")
		if err != nil {
			t.Fatal(err)
		}
		sys, err := mistique.Open(dir, mistique.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := pipeline.SpecFromYAML(demoSpec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pipeline.New(ps)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.LogPipeline(p, zillow.Env(50, 120, 1)); err != nil {
			t.Fatal(err)
		}
		fuzzSrv = New(sys, Config{})
	})
	return fuzzSrv
}

// validToken reports whether s is a non-empty RFC 7230 token — the set
// net/http itself accepts as a method; anything else never reaches a
// handler.
func validToken(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case strings.ContainsRune("!#$%&'*+-.^_`|~", r):
		default:
			return false
		}
	}
	return true
}

// FuzzRouting throws arbitrary methods, paths and bodies at the full
// handler chain. The contract under test: the server never panics, and
// every non-2xx response is the JSON error envelope with a status field
// matching the HTTP status — no plain-text net/http error pages, no
// truncated bodies.
func FuzzRouting(f *testing.F) {
	seeds := []struct {
		method, path, body string
	}{
		{"GET", "/api/v1/models", ""},
		{"GET", "/api/v1/models/demo", ""},
		{"GET", "/api/v1/models/demo/intermediates/joined", ""},
		{"POST", "/api/v1/execute", `{"op":"get_intermediate","model":"demo","intermediate":"joined","columns":["logerror"],"to":5}`},
		{"POST", "/api/v1/execute", `{"op":"get_intermediate","model":"demo","intermediate":"joined","to":4}`},
		{"POST", "/api/v1/execute", `{"op":"get_intermediate","model":"demo",`},
		{"POST", "/api/v1/execute", `{"op":"get_intermediate","model":"demo"} trailing`},
		{"POST", "/api/v1/execute", `{"unknown_field":1}`},
		{"POST", "/api/v1/execute", `{"op":"filter_rows","model":"m","intermediate":"i","columns":["c"],"pred":"between","bound":0}`},
		{"POST", "/api/v1/execute", `{"op":"get_rows","model":"m","intermediate":"i","from":-5,"to":2}`},
		{"POST", "/api/v1/execute?explain=1", `{"op":"","model":"","intermediate":""}`},
		{"POST", "/api/v1/execute?explain=NaN", `{"op":"get_intermediate","model":"demo","intermediate":"joined"}`},
		{"DELETE", "/api/v1/execute", ""},
		{"GET", "/", ""},
		{"GET", "/metrics", ""},
		{"GET", "/api/v1/stats", ""},
		{"PATCH", "/api/v1/unknown/../../etc/passwd", ""},
		{"POST", "/api/v1/compact", ""},
		{"POST", "/api/v1/execute", `{"op":"drop_table","model":"demo","intermediate":"joined"}`},
		{"POST", "/api/v1/execute", `{"op":"topk","model":"demo","intermediate":"joined","columns":["logerror"],"k":3,"pred":"gt"}`},
		{"POST", "/api/v1/execute?explain=1", `{"op":"knn","model":"demo","intermediate":"joined","k":2,"row":1}`},
		{"POST", "/api/v1/execute", `{"op":"get_intermediate","model":"demo","intermediate":"joined"}` + strings.Repeat(" ", maxBodyBytes)},
	}
	for _, s := range seeds {
		f.Add(s.method, s.path, s.body)
	}

	f.Fuzz(func(t *testing.T, method, path, body string) {
		// Constrain inputs to what a real HTTP layer could deliver;
		// everything else is the transport's problem, not the router's.
		if !validToken(method) {
			t.Skip()
		}
		if !strings.HasPrefix(path, "/") {
			path = "/" + path
		}
		for _, r := range path {
			// A request target with spaces or control bytes never parses
			// as an HTTP/1.x request line.
			if r <= ' ' || r == 0x7f {
				t.Skip()
			}
		}
		if _, err := url.ParseRequestURI(path); err != nil {
			t.Skip()
		}

		srv := fuzzHandler(t)
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req) // must not panic

		if rec.Code < 400 {
			return
		}
		var env client.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s %s -> %d with non-envelope body %q: %v", method, path, rec.Code, rec.Body.String(), err)
		}
		if env.Error.Status != rec.Code {
			t.Fatalf("%s %s -> %d but envelope says %d", method, path, rec.Code, env.Error.Status)
		}
		if env.Error.Message == "" {
			t.Fatalf("%s %s -> %d with empty error message", method, path, rec.Code)
		}
	})
}
