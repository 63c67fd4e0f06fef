package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mistique"
	"mistique/client"
	"mistique/internal/colstore"
)

// auxSpec is a second pipeline a logger ingests while the query storm
// runs, proving reads and writes coexist.
const auxSpec = `
name: aux
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
  - name: model
    op: train_xgb
    inputs: [filled]
    params: {target: logerror, rounds: 2, max_depth: 2}
`

// TestStressConcurrentClients hammers the service with 64 concurrent
// clients issuing mixed query classes against a deliberately tiny
// admission window while a logger ingests a new model through the same
// System. Every request must succeed (the client rides out 429s via
// Retry-After), results must be consistent, and the admission semaphore
// must actually have shed load. Run with -race.
func TestStressConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	sys := newSys(t, mistique.Config{})
	srv := New(sys, Config{
		MaxInFlight: 4,
		// Widen each request's in-flight window so 64 clients reliably
		// overrun a 4-slot semaphore.
		queryGate: func() { time.Sleep(500 * time.Microsecond) },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	c, err := client.New("http://"+ln.Addr().String(), client.WithTimeout(2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Ground truth from direct System calls before the storm.
	wantFilter, err := sys.FilterRows("demo", "joined", "logerror", colstore.Gt, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantCol, err := sys.GetColumn("demo", "joined", "logerror", 32)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 64
	const iters = 5
	var failed atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, clients)

	// The concurrent logger: a new model lands mid-storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		logPipeline(t, sys, auxSpec)
	}()

	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				var err error
				switch (id + it) % 6 {
				case 0:
					var qr *client.QueryResponse
					qr, err = c.GetIntermediate(ctx, "demo", "joined", []string{"logerror"}, 64)
					if err == nil && qr.Rows != 64 {
						err = fmt.Errorf("got %d rows, want 64", qr.Rows)
					}
				case 1:
					var qr *client.QueryResponse
					qr, err = c.Fetch(ctx, "demo", "joined", []string{"logerror", "finishedsquarefeet"}, 32, "RERUN")
					if err == nil && qr.Strategy != "RERUN" {
						err = fmt.Errorf("forced RERUN answered by %s", qr.Strategy)
					}
				case 2:
					var rows []int
					rows, err = c.FilterRows(ctx, "demo", "joined", "logerror", "gt", 0)
					if err == nil && len(rows) != len(wantFilter) {
						err = fmt.Errorf("filter returned %d rows, want %d", len(rows), len(wantFilter))
					}
				case 3:
					var rr *client.RowsResponse
					rr, err = c.GetRows(ctx, "demo", "joined", []string{"logerror"}, 10, 20)
					if err == nil && len(rr.Data) != 10 {
						err = fmt.Errorf("row range returned %d rows, want 10", len(rr.Data))
					}
				case 4:
					var vals []float32
					vals, err = c.GetColumn(ctx, "demo", "joined", "logerror", 32)
					if err == nil {
						if len(vals) != len(wantCol) {
							err = fmt.Errorf("column returned %d values, want %d", len(vals), len(wantCol))
						} else {
							for i := range vals {
								if !eq(client.F32(vals[i]), wantCol[i]) {
									err = fmt.Errorf("column value %d drifted under load", i)
									break
								}
							}
						}
					}
				case 5:
					var est *client.EstimateResponse
					est, err = c.Estimate(ctx, "demo", "joined", 100)
					if err == nil && (est.EstReadSecs <= 0 || est.EstRerunSecs <= 0) {
						err = fmt.Errorf("degenerate estimate %+v", est)
					}
				}
				if err != nil {
					failed.Add(1)
					select {
					case errc <- fmt.Errorf("client %d iter %d: %w", id, it, err):
					default:
					}
				}
			}
		}(id)
	}
	wg.Wait()

	if n := failed.Load(); n != 0 {
		t.Errorf("%d requests failed under load; first: %v", n, <-errc)
	}
	if got := sys.Obs().Counter("mistique_http_rejected_total", "").Value(); got == 0 {
		t.Error("admission control never engaged: rejected counter is 0")
	}

	// The model logged mid-storm is fully queryable.
	qr, err := c.GetIntermediate(ctx, "aux", "filled", nil, 16)
	if err != nil {
		t.Fatalf("model logged during the storm is not queryable: %v", err)
	}
	if qr.Rows != 16 {
		t.Fatalf("aux query returned %d rows", qr.Rows)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestGracefulShutdown proves the drain contract: Shutdown lets in-flight
// queries finish and flushes the store, so a fresh System over the same
// directory sees everything that was logged.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	sys, err := mistique.Open(dir, mistique.Config{})
	if err != nil {
		t.Fatal(err)
	}
	logPipeline(t, sys, demoSpec)

	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	srv := New(sys, Config{
		RequestTimeout: time.Minute,
		queryGate: func() {
			entered <- struct{}{}
			<-gate
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Put two queries in flight and hold them at the gate.
	type result struct {
		status int
		err    error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(base+"/api/v1/query", "application/json",
				strings.NewReader(`{"model":"demo","intermediate":"joined","n_ex":8}`))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			results <- result{status: resp.StatusCode}
		}()
	}
	<-entered
	<-entered

	// Begin the drain while both are still executing.
	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()

	// The drain must wait for them, not kill them.
	select {
	case err := <-shutDone:
		t.Fatalf("shutdown returned (%v) while queries were still gated", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(gate)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("in-flight request failed during drain: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("in-flight request got %d during drain, want 200", r.status)
		}
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// No data loss: a fresh System over the same directory has the model
	// and answers the same queries.
	sys2, err := mistique.Open(dir, mistique.Config{})
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	res, err := sys2.GetIntermediate("demo", "joined", []string{"logerror"}, 32)
	if err != nil {
		t.Fatalf("query after reopen: %v", err)
	}
	if res.Data.Rows != 32 {
		t.Fatalf("reopened store returned %d rows", res.Data.Rows)
	}
}
