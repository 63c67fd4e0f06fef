package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// APIError is a non-2xx response decoded from the server's error
// envelope. It is returned for failures the client does not (or can no
// longer) retry.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's description of the failure.
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("mistique server: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// Client is a typed HTTP client for the MISTIQUE query service. A Client
// is safe for concurrent use.
//
// Transient failures are retried: connection errors and 5xx responses up
// to MaxRetries times with full-jitter backoff (the sleep is drawn
// uniformly from [0, cap] and the cap doubles per attempt), and 429
// over-capacity rejections by honoring the server's Retry-After hint
// until the request deadline expires — backpressure is transparent to
// callers, who either get an answer or a deadline error. 4xx responses
// other than 429 are never retried.
type Client struct {
	base       string
	hc         *http.Client
	maxRetries int
	backoff    time.Duration
	timeout    time.Duration
	tenant     string
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithMaxRetries bounds retries of connection errors and 5xx responses
// (default 3; 0 disables retries).
func WithMaxRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithTimeout sets the per-request deadline applied to every attempt's
// context (default 30s; 0 leaves only the caller's context bound).
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// WithTenant names the tenant sent as X-Mistique-Tenant on every request.
// The server's streaming-ingest admission quotas (in-flight and rows/sec)
// are accounted per tenant; empty shares the "default" bucket.
func WithTenant(name string) Option { return func(c *Client) { c.tenant = name } }

// New returns a Client for the service at baseURL (e.g.
// "http://127.0.0.1:7420").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs scheme and host", baseURL)
	}
	c := &Client{
		base:       strings.TrimRight(u.String(), "/"),
		hc:         &http.Client{},
		maxRetries: 3,
		backoff:    50 * time.Millisecond,
		timeout:    30 * time.Second,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// do issues one logical request with the retry policy. in == nil sends no
// body; out == nil discards the response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	// The per-request deadline bounds the whole logical call — every
	// attempt, backoff and 429 wait — so a saturated or flapping server
	// turns into a deadline error, never an unbounded stall.
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}

	retriesLeft := c.maxRetries
	wait := c.backoff
	for {
		err := c.attempt(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		var delay time.Duration
		switch {
		case retryAfter(err) > 0:
			// Over capacity: not a failure budget matter — wait out the
			// server's hint and try again until the deadline says stop.
			delay = retryAfter(err)
		case retriable(err) && retriesLeft > 0:
			retriesLeft--
			delay = jitterDelay(wait)
			wait *= 2
		default:
			return err
		}
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("client: %s %s: %w (last error: %v)", method, path, ctx.Err(), err)
		case <-t.C:
		}
	}
}

// jitterDelay draws one retry's sleep uniformly from [0, cap] — "full
// jitter". A deterministic backoff re-synchronizes every caller that
// failed together, so a saturated server takes the whole retry wave back
// at once; spreading each sleep over the full window decorrelates them.
// The cap still doubles per attempt and the per-request deadline still
// bounds the total wait, so worst-case semantics are unchanged.
func jitterDelay(cap time.Duration) time.Duration {
	if cap <= 0 {
		return 0
	}
	return time.Duration(rand.Int64N(int64(cap) + 1))
}

// attempt issues one HTTP round trip.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tenant != "" {
		req.Header.Set("X-Mistique-Tenant", c.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return &connError{err: err}
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 400 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// connError wraps a transport-level failure so the retry policy can
// distinguish it from a decoded server error.
type connError struct{ err error }

func (e *connError) Error() string { return "client: connection error: " + e.err.Error() }
func (e *connError) Unwrap() error { return e.err }

// overCapacityError is a 429 carrying the server's Retry-After hint.
type overCapacityError struct {
	APIError
	after time.Duration
}

func decodeError(resp *http.Response) error {
	ae := &APIError{Status: resp.StatusCode}
	var env ErrorEnvelope
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&env); err == nil && env.Error.Message != "" {
		ae.Message = env.Error.Message
	} else {
		ae.Message = "(no error envelope)"
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		after := time.Second
		if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && v >= 0 {
			after = time.Duration(v) * time.Second
			if after == 0 {
				after = 100 * time.Millisecond
			}
		}
		return &overCapacityError{APIError: *ae, after: after}
	}
	return ae
}

func (e *overCapacityError) Error() string { return e.APIError.Error() }

// As exposes the embedded APIError to errors.As, so a caller finds the
// 429 on deadline-wrapped failures too.
func (e *overCapacityError) As(target any) bool {
	if p, ok := target.(**APIError); ok {
		*p = &e.APIError
		return true
	}
	return false
}

// retriable reports whether one attempt's failure is transient.
func retriable(err error) bool {
	var ce *connError
	if errors.As(err, &ce) {
		return true
	}
	// A full disk (507) does not heal within a backoff window.
	var ae *APIError
	return errors.As(err, &ae) && ae.Status >= 500 && ae.Status != http.StatusInsufficientStorage
}

// retryAfter returns the wait hint of a 429, or 0.
func retryAfter(err error) time.Duration {
	var oe *overCapacityError
	if errors.As(err, &oe) {
		return oe.after
	}
	return 0
}

// call issues one request with do and returns the response decoded as a T.
func call[T any](ctx context.Context, c *Client, method, path string, in any) (*T, error) {
	var out T
	if err := c.do(ctx, method, path, in, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Models lists every logged model with its full catalog entry.
func (c *Client) Models(ctx context.Context) ([]ModelInfo, error) {
	out, err := call[ModelsResponse](ctx, c, http.MethodGet, "/api/v1/models", nil)
	if err != nil {
		return nil, err
	}
	return out.Models, nil
}

// Model fetches one model's catalog entry, intermediates included.
func (c *Client) Model(ctx context.Context, name string) (*ModelInfo, error) {
	return call[ModelInfo](ctx, c, http.MethodGet, "/api/v1/models/"+url.PathEscape(name), nil)
}

// Intermediate fetches one intermediate's catalog entry.
func (c *Client) Intermediate(ctx context.Context, model, interm string) (*IntermInfo, error) {
	return call[IntermInfo](ctx, c, http.MethodGet, "/api/v1/models/"+url.PathEscape(model)+"/intermediates/"+url.PathEscape(interm), nil)
}

// Lineage fetches the version chain of a model, newest first: the model
// itself, the parent version it was logged as a delta against, and so on
// to the root of the training run.
func (c *Client) Lineage(ctx context.Context, model string) (*LineageResponse, error) {
	return call[LineageResponse](ctx, c, http.MethodGet, "/api/v1/models/"+url.PathEscape(model)+"/lineage", nil)
}

// Execute runs one query (POST /api/v1/execute) and decodes its answer
// into out, a pointer to the op's response type (see Query).
func (c *Client) Execute(ctx context.Context, q Query, out any) error {
	return c.do(ctx, http.MethodPost, "/api/v1/execute", q, out)
}

// Explain returns the plan the server would run for q — the normalized
// query, the chosen strategy and the cost estimates — without running it.
func (c *Client) Explain(ctx context.Context, q Query) (*PlanResponse, error) {
	return call[PlanResponse](ctx, c, http.MethodPost, "/api/v1/execute?explain=1", q)
}

// execute runs q and returns its answer decoded as a T.
func execute[T any](ctx context.Context, c *Client, q Query) (*T, error) {
	return call[T](ctx, c, http.MethodPost, "/api/v1/execute", q)
}

// The methods below are one-line forms of Execute and Explain for the
// common queries.

// GetIntermediate fetches cols x nEx of an intermediate, letting the
// server's cost model choose read vs. rerun. nil cols fetches every
// column; nEx <= 0 every row.
func (c *Client) GetIntermediate(ctx context.Context, model, interm string, cols []string, nEx int) (*QueryResponse, error) {
	return c.Fetch(ctx, model, interm, cols, nEx, "")
}

// Fetch is GetIntermediate with a forced strategy ("READ" or "RERUN").
func (c *Client) Fetch(ctx context.Context, model, interm string, cols []string, nEx int, strategy string) (*QueryResponse, error) {
	return execute[QueryResponse](ctx, c, Query{Op: OpGet, Model: model, Intermediate: interm, Columns: cols, To: max(nEx, 0), Force: strategy})
}

// Estimate explains GetIntermediate: the cost model's read/rerun
// predictions and the strategy the engine would choose.
func (c *Client) Estimate(ctx context.Context, model, interm string, nEx int) (*PlanResponse, error) {
	return c.Explain(ctx, Query{Op: OpGet, Model: model, Intermediate: interm, To: max(nEx, 0)})
}

// FilterRows returns row offsets where `column op bound` holds; op is one
// of "gt", "ge", "lt", "le".
func (c *Client) FilterRows(ctx context.Context, model, interm, column, op string, bound float64) ([]int, error) {
	return c.FilterRowsRange(ctx, model, interm, column, op, bound, 0, 0)
}

// FilterRowsRange is FilterRows restricted to global rows [from, to);
// to == 0 means the intermediate's row count. Returned offsets stay
// global, so per-block answers concatenate.
func (c *Client) FilterRowsRange(ctx context.Context, model, interm, column, op string, bound float64, from, to int) ([]int, error) {
	out, err := execute[FilterResponse](ctx, c, Query{Op: OpFilter, Model: model, Intermediate: interm, Columns: []string{column}, Pred: op, Bound: bound, From: from, To: to})
	if err != nil {
		return nil, err
	}
	return out.Rows, nil
}

// TopK returns the k rows with the highest values in one column, in rank
// order (value descending, NaN last, ascending row id on ties).
func (c *Client) TopK(ctx context.Context, model, interm, column string, k int) ([]TopKEntry, error) {
	return c.TopKRange(ctx, model, interm, column, k, 0, 0)
}

// TopKRange is TopK restricted to global rows [from, to) — the
// shard-local probe behind scatter-gather TOPK. Row ids stay global and
// the ranking order is the engine's pinned comparator, so merged
// per-block candidate lists reproduce the single-node answer exactly.
func (c *Client) TopKRange(ctx context.Context, model, interm, column string, k, from, to int) ([]TopKEntry, error) {
	out, err := execute[TopKResponse](ctx, c, Query{Op: OpTopK, Model: model, Intermediate: interm, Columns: []string{column}, K: k, From: from, To: to})
	if err != nil {
		return nil, err
	}
	return out.Entries, nil
}

// GetRows reads rows [from, to) of the given columns.
func (c *Client) GetRows(ctx context.Context, model, interm string, cols []string, from, to int) (*RowsResponse, error) {
	return execute[RowsResponse](ctx, c, Query{Op: OpRows, Model: model, Intermediate: interm, Columns: cols, From: from, To: to})
}

// ColDist estimates a column's distribution. maxError is the acceptable
// mean error as a fraction of the value range; 0 takes whatever bound the
// sample delivers, and a tighter request than the sample can honor is
// answered exactly (Strategy reports which happened).
func (c *Client) ColDist(ctx context.Context, model, interm, column string, maxError float64) (*ColDistResponse, error) {
	return execute[ColDistResponse](ctx, c, Query{Op: OpColDist, Model: model, Intermediate: interm, Columns: []string{column}, MaxError: maxError})
}

// ApproxTopK ranks a column's top k rows from the reservoir sample when
// the rank bound satisfies maxError, exactly otherwise.
func (c *Client) ApproxTopK(ctx context.Context, model, interm, column string, k int, maxError float64) (*ApproxTopKResponse, error) {
	return execute[ApproxTopKResponse](ctx, c, Query{Op: OpApproxTopK, Model: model, Intermediate: interm, Columns: []string{column}, K: k, MaxError: maxError})
}

// Stats returns the server's full metrics snapshot.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	return call[StatsResponse](ctx, c, http.MethodGet, "/api/v1/stats", nil)
}

// Compact asks the store to reclaim garbage chunks, returning the
// reclaimed encoded bytes.
func (c *Client) Compact(ctx context.Context) (int64, error) {
	out, err := call[CompactResponse](ctx, c, http.MethodPost, "/api/v1/compact", nil)
	if err != nil {
		return 0, err
	}
	return out.ReclaimedBytes, nil
}

// Ready probes readiness. Unlike every other call, a 503 here is data,
// not a failure: the server answers 503 with the same JSON body when it
// is alive but degraded (quarantined partitions, admission saturation),
// and Ready returns that decoded body with ready == false so a health
// checker can distinguish "shed me traffic" from "dead". The probe is a
// single attempt with no retries — the checker supplies its own cadence,
// and retrying inside a probe would mask exactly the flakiness it exists
// to detect.
func (c *Client) Ready(ctx context.Context) (resp *ReadyResponse, ready bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return nil, false, fmt.Errorf("client: %w", err)
	}
	hr, err := c.hc.Do(req)
	if err != nil {
		return nil, false, &connError{err: err}
	}
	defer func() {
		io.Copy(io.Discard, hr.Body)
		hr.Body.Close()
	}()
	switch hr.StatusCode {
	case http.StatusOK, http.StatusServiceUnavailable:
		var out ReadyResponse
		if derr := json.NewDecoder(io.LimitReader(hr.Body, 1<<20)).Decode(&out); derr != nil {
			return nil, false, fmt.Errorf("client: decode /readyz response: %w", derr)
		}
		return &out, hr.StatusCode == http.StatusOK, nil
	default:
		return nil, false, decodeError(hr)
	}
}
