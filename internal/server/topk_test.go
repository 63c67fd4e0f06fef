package server

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mistique"
	"mistique/client"
)

// TestTopKEndpoint holds the topk op on POST /api/v1/execute to exact parity with direct
// System.TopK calls and checks its wire-level error shapes (malformed
// targets are TestMalformedTargetsOverHTTP's).
func TestTopKEndpoint(t *testing.T) {
	sys := newSys(t, mistique.Config{})
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for _, k := range []int{0, 1, 10, 600, 601} {
		got, err := c.TopK(ctx, "demo", "joined", "yearbuilt", k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want, err := sys.TopK("demo", "joined", "yearbuilt", k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d entries over HTTP, %d direct", k, len(got), len(want))
		}
		for i := range want {
			if got[i].Row != want[i].Row ||
				math.Float32bits(float32(got[i].Value)) != math.Float32bits(want[i].Value) {
				t.Fatalf("k=%d entry %d: {%d %v} over HTTP, {%d %v} direct",
					k, i, got[i].Row, got[i].Value, want[i].Row, want[i].Value)
			}
		}
	}

	// Raw shapes: malformed body and wrong method.
	resp, err := http.Post(ts.URL+"/api/v1/execute", "application/json", strings.NewReader(`{"op":"topk",`))
	if err != nil {
		t.Fatal(err)
	}
	errorShape(t, resp, 400)
	resp, err = http.Get(ts.URL + "/api/v1/execute")
	if err != nil {
		t.Fatal(err)
	}
	errorShape(t, resp, 405)
}
