// Package server turns a *mistique.System into a network query service:
// a JSON-over-HTTP surface for the diagnostic query classes of Sec. 5
// (intermediate fetches under the read-vs-rerun cost model, cost
// estimates, predicate scans, row-range reads), the metadata
// catalog, stats and compaction. mistique/client is the typed Go client;
// the wire types live there and are shared by both sides.
//
// The service is built for sustained concurrent load in front of a store
// whose queries can be expensive (a RERUN may execute a whole model):
//
//   - Admission control: an in-flight semaphore bounds concurrently
//     executing queries. Requests beyond the bound are rejected
//     immediately with 429 and a Retry-After hint instead of queueing —
//     under overload the server sheds load at the door rather than
//     collapsing into a pile of blocked goroutines all holding store
//     resources.
//   - Deadlines: every request runs under a context deadline
//     (Config.RequestTimeout); the engine's *Ctx query variants observe
//     it between chunk reads and before queueing on a model's execution
//     mutex. An expired deadline maps to 504.
//   - Error envelopes: every non-2xx response, including recovered
//     handler panics, is the same JSON ErrorEnvelope shape, so clients
//     never parse prose.
//   - Graceful drain: Shutdown stops accepting, lets in-flight requests
//     finish, then flushes the System (partitions + catalog) so nothing
//     logged is lost.
//
// Observability threads through the System's own obs registry: request
// latency, in-flight, rejected and error counters surface in the same
// /metrics and /api/v1/stats expositions as the engine's series.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"

	"mistique"
	"mistique/client"
	"mistique/internal/obs"
)

// Config controls a Server. Zero values select defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing query-class requests
	// (query, column, filter, rows, compact). Excess requests get 429 +
	// Retry-After. Default 64.
	MaxInFlight int
	// RequestTimeout is the per-request context deadline. Default 30s.
	RequestTimeout time.Duration
	// ShardName labels this node in /readyz responses when it serves as
	// one shard of a cluster (mistique serve -shard). Empty is fine for a
	// single-node service.
	ShardName string

	// TenantMaxInFlight bounds concurrently executing streaming-ingest
	// requests per tenant (X-Mistique-Tenant header; empty shares the
	// "default" bucket). Ingest holds a WAL fsync per batch, so one noisy
	// tenant could otherwise monopolize the global semaphore. Default 8.
	TenantMaxInFlight int
	// TenantRowsPerSec bounds each tenant's acknowledged streaming rows
	// per second with a token bucket (burst of one second's quota).
	// Excess batches get 429 + Retry-After sized to the deficit. Zero
	// disables rate accounting.
	TenantRowsPerSec int

	// queryGate, when non-nil, is called at the start of every admitted
	// query-class request. Tests use it to hold requests in flight while
	// they probe admission control and graceful drain.
	queryGate func()
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.TenantMaxInFlight <= 0 {
		c.TenantMaxInFlight = 8
	}
	return c
}

// retryAfterHint is the Retry-After sent with 429 rejections (a tenant
// over its row rate is told how long its deficit takes to refill, if that
// is longer).
const retryAfterHint = time.Second

// Server serves MISTIQUE queries over HTTP. Create with New, expose with
// Handler (tests) or Serve (production), stop with Shutdown.
type Server struct {
	sys *mistique.System
	cfg Config
	mux *http.ServeMux
	sem chan struct{}

	mu      sync.Mutex
	httpSrv *http.Server

	tenantMu sync.Mutex
	tenants  map[string]*tenantState

	requests   *obs.Counter
	rejected   *obs.Counter
	errors5x   *obs.Counter
	tenantShed *obs.Counter
	inFlight   *obs.Gauge
	latency    *obs.Histogram
}

// tenantState is one tenant's ingest admission bucket: an in-flight count
// and a rows/sec token bucket refilled on demand.
type tenantState struct {
	inFlight int
	tokens   float64
	last     time.Time
}

// New wraps sys in a query service. The server registers its instruments
// in sys's obs registry, so its series appear in the system's own
// /metrics and /api/v1/stats expositions.
func New(sys *mistique.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := sys.Obs()
	s := &Server{
		sys:     sys,
		cfg:     cfg,
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		tenants: make(map[string]*tenantState),

		requests:   reg.Counter("mistique_http_requests_total", "HTTP requests received (all endpoints)"),
		rejected:   reg.Counter("mistique_http_rejected_total", "requests rejected with 429 by the admission semaphore"),
		errors5x:   reg.Counter("mistique_http_errors_total", "requests answered with a 5xx status"),
		tenantShed: reg.Counter("mistique_http_tenant_rejected_total", "ingest batches rejected with 429 by a per-tenant quota"),
		inFlight:   reg.Gauge("mistique_http_in_flight", "query-class requests currently executing"),
		latency:    reg.Histogram("mistique_http_request_seconds", "wall time of one HTTP request, admission wait included"),
	}
	s.routes()
	return s
}

// routes wires the endpoint table. Patterns carry no method — each
// handler checks its own, so method mismatches get the JSON 405 envelope
// instead of net/http's plain-text one.
func (s *Server) routes() {
	// Query class: admission-controlled, deadline-bound.
	s.mux.HandleFunc("/api/v1/query", s.admitted(http.MethodPost, s.handleQuery))
	s.mux.HandleFunc("/api/v1/models/{model}/intermediates/{interm}/columns/{col}", s.admitted(http.MethodGet, s.handleColumn))
	s.mux.HandleFunc("/api/v1/filter", s.admitted(http.MethodPost, s.handleFilter))
	s.mux.HandleFunc("/api/v1/topk", s.admitted(http.MethodPost, s.handleTopK))
	s.mux.HandleFunc("/api/v1/rows", s.admitted(http.MethodPost, s.handleRows))
	s.mux.HandleFunc("/api/v1/compact", s.admitted(http.MethodPost, s.handleCompact))

	// Streaming ingest: admission-controlled globally AND per tenant.
	s.mux.HandleFunc("/api/v1/ingest/{model}/{interm}", s.admitted(http.MethodPost, s.handleIngest))

	// Approximate diagnosis: sampled answers with error bounds; exact
	// fallback happens inside the engine, so these stay query-class.
	s.mux.HandleFunc("/api/v1/approx/coldist", s.admitted(http.MethodPost, s.handleColDist))
	s.mux.HandleFunc("/api/v1/approx/topk", s.admitted(http.MethodPost, s.handleApproxTopK))
	s.mux.HandleFunc("/api/v1/approx/confusion", s.admitted(http.MethodPost, s.handleConfusion))
	s.mux.HandleFunc("/api/v1/approx/rows", s.admitted(http.MethodPost, s.handleSampleRows))

	// Catalog + estimates: cheap in-memory reads, never shed.
	s.mux.HandleFunc("/api/v1/models", s.plain(http.MethodGet, s.handleModels))
	s.mux.HandleFunc("/api/v1/models/{model}", s.plain(http.MethodGet, s.handleModel))
	s.mux.HandleFunc("/api/v1/models/{model}/intermediates/{interm}", s.plain(http.MethodGet, s.handleIntermediate))
	s.mux.HandleFunc("/api/v1/models/{model}/lineage", s.plain(http.MethodGet, s.handleLineage))
	s.mux.HandleFunc("/api/v1/estimate", s.plain(http.MethodGet, s.handleEstimate))

	// Ops surface.
	s.mux.HandleFunc("/api/v1/stats", s.plain(http.MethodGet, s.handleStats))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	// Liveness vs readiness: /healthz answers "is the process up" and
	// stays 200 as long as the server can serve at all; /readyz answers
	// "should this node take traffic" and flips to 503 (same JSON body)
	// when degraded, so load balancers and the cluster health checker can
	// tell "dead" from "shed me".
	s.mux.HandleFunc("/healthz", s.plain(http.MethodGet, s.handleHealth))
	s.mux.HandleFunc("/readyz", s.handleReady)

	// Everything else: JSON 404, not net/http's text page.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		writeError(w, http.StatusNotFound, "no route for %s %s", r.Method, r.URL.Path)
	})
}

// Handler returns the service's root handler (httptest entry point).
func (s *Server) Handler() http.Handler { return s.mux }

// handlerFunc is an endpoint body: it returns the response payload or an
// error (an *apiError for a chosen status, anything else mapping via
// errorStatus).
type handlerFunc func(r *http.Request) (any, error)

// plain wraps an endpoint with method check, panic recovery, metrics and
// the JSON envelope — no admission control or deadline (for cheap
// catalog/ops reads).
func (s *Server) plain(method string, fn handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		t0 := time.Now()
		defer s.latency.ObserveSince(t0)
		defer s.recoverPanic(w)
		if r.Method != method {
			writeError(w, http.StatusMethodNotAllowed, "%s needs %s, got %s", r.URL.Path, method, r.Method)
			return
		}
		payload, err := fn(r)
		s.respond(w, payload, err)
	}
}

// admitted wraps a query-class endpoint: method check, panic recovery,
// admission semaphore (non-blocking — full means 429 + Retry-After), and
// the per-request deadline.
func (s *Server) admitted(method string, fn handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		t0 := time.Now()
		defer s.latency.ObserveSince(t0)
		defer s.recoverPanic(w)
		if r.Method != method {
			writeError(w, http.StatusMethodNotAllowed, "%s needs %s, got %s", r.URL.Path, method, r.Method)
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			// Full house: shed at the door. The store never sees the
			// request, so overload degrades into fast 429s, not a convoy
			// of goroutines queued on the chunk reader.
			s.rejected.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(int(retryAfterHint/time.Second)))
			writeError(w, http.StatusTooManyRequests, "over capacity: %d queries in flight", s.cfg.MaxInFlight)
			return
		}
		s.inFlight.Add(1)
		defer func() {
			s.inFlight.Add(-1)
			<-s.sem
		}()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		// The gate runs inside the deadline so tests can also exercise
		// expiry by stalling here.
		if s.cfg.queryGate != nil {
			s.cfg.queryGate()
		}
		payload, err := fn(r.WithContext(ctx))
		s.respond(w, payload, err)
	}
}

// recoverPanic converts a handler panic into a 500 envelope — the routing
// and decoding layer must never take the process down or leak a
// half-written non-JSON body on a fresh response.
func (s *Server) recoverPanic(w http.ResponseWriter) {
	if p := recover(); p != nil {
		s.errors5x.Inc()
		debug.PrintStack()
		writeError(w, http.StatusInternalServerError, "internal panic: %v", p)
	}
}

// respond writes the payload or the error envelope.
func (s *Server) respond(w http.ResponseWriter, payload any, err error) {
	if err != nil {
		var ae *apiError
		if errors.As(err, &ae) && ae.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int((ae.retryAfter+time.Second-1)/time.Second)))
		}
		status := errorStatus(err)
		if status >= 500 {
			s.errors5x.Inc()
		}
		writeError(w, status, "%s", err.Error())
		return
	}
	// Marshal before touching the ResponseWriter: an encode failure this
	// way becomes a clean 500 envelope, never a truncated 200 body.
	body, merr := json.Marshal(payload)
	if merr != nil {
		s.errors5x.Inc()
		writeError(w, http.StatusInternalServerError, "encode response: %v", merr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	w.Write([]byte("\n"))
}

// apiError carries an explicit status chosen at the decode/validate
// layer, plus an optional Retry-After hint for 429s.
type apiError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &apiError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// errorStatus maps an engine error to an HTTP status via the typed
// sentinels the query entry points wrap.
func errorStatus(err error) int {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae.status
	case errors.Is(err, mistique.ErrUnknownModel), errors.Is(err, mistique.ErrUnknownIntermediate),
		errors.Is(err, mistique.ErrUnknownColumn):
		return http.StatusNotFound
	case errors.Is(err, mistique.ErrNotMaterialized):
		return http.StatusConflict
	case errors.Is(err, mistique.ErrBadQuery):
		return http.StatusBadRequest
	case errors.Is(err, syscall.ENOSPC):
		return http.StatusInsufficientStorage
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; the status is for the log, not the peer.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// writeError emits the JSON error envelope shared with mistique/client.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(client.ErrorEnvelope{Error: client.ErrorBody{
		Status:  status,
		Message: fmt.Sprintf(format, args...),
	}})
}

// Serve accepts connections on ln until Shutdown (or a listener error).
// Returns nil after a graceful Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.httpSrv == nil {
		s.httpSrv = &http.Server{
			Handler:           s.mux,
			ReadHeaderTimeout: 10 * time.Second,
		}
	}
	srv := s.httpSrv
	s.mu.Unlock()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown drains the service: it stops accepting new connections, waits
// for in-flight requests to complete (bounded by ctx), then closes the
// System — flushing every dirty partition and the catalog — so no logged
// intermediate is lost. The first error wins but the flush always runs.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	if cerr := s.sys.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
