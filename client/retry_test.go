package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestJitterDelayBounds: every draw lands in [0, cap] and a non-positive
// cap short-circuits to zero — the deadline math in do() depends on the
// sleep never exceeding the cap.
func TestJitterDelayBounds(t *testing.T) {
	if d := jitterDelay(0); d != 0 {
		t.Fatalf("jitterDelay(0) = %v", d)
	}
	if d := jitterDelay(-time.Second); d != 0 {
		t.Fatalf("jitterDelay(-1s) = %v", d)
	}
	for _, cap := range []time.Duration{1, time.Millisecond, 50 * time.Millisecond, time.Hour} {
		for i := 0; i < 1000; i++ {
			if d := jitterDelay(cap); d < 0 || d > cap {
				t.Fatalf("jitterDelay(%v) = %v, out of [0, cap]", cap, d)
			}
		}
	}
}

// TestJitterDelaySpread: full jitter exists to decorrelate retry waves,
// so draws must actually spread over the window rather than cluster on
// one value.
func TestJitterDelaySpread(t *testing.T) {
	const draws = 200
	cap := 50 * time.Millisecond
	seen := make(map[time.Duration]struct{}, draws)
	var low, high int
	for i := 0; i < draws; i++ {
		d := jitterDelay(cap)
		seen[d] = struct{}{}
		if d < cap/2 {
			low++
		} else {
			high++
		}
	}
	if len(seen) < draws/2 {
		t.Fatalf("only %d distinct delays in %d draws: not jittering", len(seen), draws)
	}
	// Both halves of the window get traffic (p(miss) ~ 2^-200).
	if low == 0 || high == 0 {
		t.Fatalf("draws collapsed to one half: low=%d high=%d", low, high)
	}
}

// TestRetriesStayWithinDeadline: the backoff cap doubling never escapes
// the per-request deadline — a dead server turns into a deadline error in
// bounded time, jitter or not.
func TestRetriesStayWithinDeadline(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(503)
	}))
	defer down.Close()
	c, err := New(down.URL, WithMaxRetries(100), WithTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	c.backoff = 40 * time.Millisecond
	start := time.Now()
	_, err = c.Models(context.Background())
	if err == nil {
		t.Fatal("dead server produced no error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop escaped the deadline: %v", elapsed)
	}
}

// TestReady covers the one endpoint where a 503 is data, not an error.
func TestReady(t *testing.T) {
	var status int
	var body string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			t.Errorf("ready probe hit %s", r.URL.Path)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	defer srv.Close()
	c, err := New(srv.URL, WithMaxRetries(3))
	if err != nil {
		t.Fatal(err)
	}

	status, body = 200, `{"status":"ok","shard":"s0","models":2}`
	resp, ready, err := c.Ready(context.Background())
	if err != nil || !ready {
		t.Fatalf("ok probe: ready=%v err=%v", ready, err)
	}
	if resp.Status != "ok" || resp.Shard != "s0" || resp.Models != 2 {
		t.Fatalf("resp = %+v", resp)
	}

	// 503 decodes the same body and reports not-ready with a nil error.
	status, body = 503, `{"status":"degraded","reasons":["admission semaphore saturated, shedding queries"],"saturated":true}`
	resp, ready, err = c.Ready(context.Background())
	if err != nil {
		t.Fatalf("degraded probe must not error: %v", err)
	}
	if ready || resp.Status != "degraded" || !resp.Saturated || len(resp.Reasons) != 1 {
		t.Fatalf("degraded resp = %+v ready=%v", resp, ready)
	}

	// Any other status is a real error.
	status, body = 404, `{"error":{"status":404,"message":"nope"}}`
	_, ready, err = c.Ready(context.Background())
	var ae *APIError
	if ready || !errors.As(err, &ae) || ae.Status != 404 {
		t.Fatalf("404 probe: ready=%v err=%v", ready, err)
	}
}
