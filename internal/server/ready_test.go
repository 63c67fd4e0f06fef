package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mistique"
	"mistique/client"
)

// TestReadinessEndpoint: /healthz stays pure liveness while /readyz
// reports the richer readiness contract — 200 + "ok" on a clean node,
// 503 + "degraded" with reasons when the admission window is saturated.
func TestReadinessEndpoint(t *testing.T) {
	sys := newSys(t, mistique.Config{})
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv := New(sys, Config{
		ShardName:   "shard-a",
		MaxInFlight: 1,
		queryGate: func() {
			entered <- struct{}{}
			<-gate
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Clean node: ready, shard name in the body.
	resp, ready, err := c.Ready(ctx)
	if err != nil || !ready {
		t.Fatalf("ready = %v, err = %v", ready, err)
	}
	if resp.Status != "ok" || resp.Shard != "shard-a" || resp.Models != 1 || resp.Saturated {
		t.Fatalf("resp = %+v", resp)
	}

	// Liveness is untouched: /healthz still answers its own shape.
	h, err := health(ctx, ts.URL)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v", h, err)
	}

	// Saturate the admission window: readiness flips to degraded/503
	// while liveness stays 200 — "shed me" is not "dead".
	done := make(chan error, 1)
	go func() {
		_, qerr := c.GetIntermediate(ctx, "demo", "joined", nil, 4)
		done <- qerr
	}()
	<-entered
	resp, ready, err = c.Ready(ctx)
	if err != nil {
		t.Fatalf("degraded probe errored: %v", err)
	}
	if ready || resp.Status != "degraded" || !resp.Saturated || len(resp.Reasons) == 0 {
		t.Fatalf("saturated resp = %+v ready=%v", resp, ready)
	}
	if resp.InFlight != 1 || resp.MaxInFlight != 1 {
		t.Fatalf("window = %d/%d", resp.InFlight, resp.MaxInFlight)
	}
	if h, err := health(ctx, ts.URL); err != nil || h.Status != "ok" {
		t.Fatalf("liveness flipped with readiness: %+v, %v", h, err)
	}

	// Raw shape: 503 carries the JSON body, not the error envelope.
	raw, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(raw.Body)
	raw.Body.Close()
	if raw.StatusCode != 503 || !strings.Contains(string(body), `"status":"degraded"`) {
		t.Fatalf("raw /readyz: %d %s", raw.StatusCode, body)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("admitted query failed: %v", err)
	}

	// Drained: ready again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ready, _ = c.Ready(ctx); ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node never became ready after draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRangeQueries: the from/to window on filter and topk answers with
// global row offsets that splice exactly into the full answer — the
// property scatter-gather correctness rests on.
func TestRangeQueries(t *testing.T) {
	sys, c, _ := newService(t, mistique.Config{}, Config{})
	ctx := context.Background()

	full, err := c.FilterRows(ctx, "demo", "joined", "logerror", "gt", 0)
	if err != nil {
		t.Fatal(err)
	}
	it, err := c.Intermediate(ctx, "demo", "joined")
	if err != nil {
		t.Fatal(err)
	}
	mid := it.Rows / 2

	lo, err := c.FilterRowsRange(ctx, "demo", "joined", "logerror", "gt", 0, 0, mid)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := c.FilterRowsRange(ctx, "demo", "joined", "logerror", "gt", 0, mid, it.Rows)
	if err != nil {
		t.Fatal(err)
	}
	spliced := append(append([]int{}, lo...), hi...)
	if len(spliced) != len(full) {
		t.Fatalf("spliced %d rows, full %d", len(spliced), len(full))
	}
	for i := range full {
		if spliced[i] != full[i] {
			t.Fatalf("splice mismatch at %d: %d vs %d", i, spliced[i], full[i])
		}
	}

	// TopK over a window returns global ids within that window, ranked.
	wk, err := c.TopKRange(ctx, "demo", "joined", "logerror", 5, mid, it.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(wk) != 5 {
		t.Fatalf("window topk %d entries", len(wk))
	}
	for i, e := range wk {
		if e.Row < mid || e.Row >= it.Rows {
			t.Fatalf("entry %d row %d outside window [%d, %d)", i, e.Row, mid, it.Rows)
		}
	}
	a, err := sys.Execute(ctx, mistique.Query{Op: mistique.OpTopK, Model: "demo", Intermediate: "joined",
		Columns: []string{"logerror"}, K: 5, From: mid, To: it.Rows})
	if err != nil {
		t.Fatal(err)
	}
	dwk := a.TopK
	for i := range wk {
		if wk[i].Row != dwk[i].Row || !eq(wk[i].Value, dwk[i].Value) {
			t.Fatalf("window topk mismatch at %d: %+v vs %+v", i, wk[i], dwk[i])
		}
	}

	// A full-range TopKRange equals plain TopK (the index-accelerated
	// path answers both).
	allK, err := c.TopKRange(ctx, "demo", "joined", "logerror", 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.TopK(ctx, "demo", "joined", "logerror", 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range allK {
		if allK[i] != plain[i] {
			t.Fatalf("full-range topk diverged at %d", i)
		}
	}
}
