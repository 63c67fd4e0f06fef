// Package server turns a *mistique.System into a network query service
// over JSON and HTTP. Every diagnostic query class of Sec. 5 arrives as
// one client.Query on POST /api/v1/execute, runs through System.Execute
// and answers in its op's wire type; ?explain=1 returns the engine's Plan
// instead, with nothing executed. The metadata catalog, streaming
// ingest, stats and compaction have routes of their own; routes() is the
// whole table. mistique/client is the typed Go client; the wire types live
// there and are shared by both sides.
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
	"cmp"
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
	// (execute but not its EXPLAIN, ingest, compact). Excess requests get
	// 429 + Retry-After.
	// Default 64.
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
	s.register()
	return s
}

// route is one row of the endpoint table: the one method it answers and
// its handler.
type route struct {
	method, pattern string
	serve           http.HandlerFunc
}

// routes is the endpoint table — every route the service answers. Every
// engine query, and the EXPLAIN of every query, travels on the one
// /api/v1/execute route; TestRouteSurface pins the table so a per-op
// route cannot creep back.
func (s *Server) routes() []route {
	return []route{
		// Query class: admission-controlled (all but an EXPLAIN),
		// deadline-bound.
		{http.MethodPost, "/api/v1/execute", s.serveExecute()},
		{http.MethodPost, "/api/v1/compact", s.admitted(s.handleCompact)},
		// Streaming ingest: admission-controlled globally AND per tenant.
		{http.MethodPost, "/api/v1/ingest/{model}/{interm}", s.admitted(s.handleIngest)},

		// Catalog: cheap in-memory reads, never shed.
		{http.MethodGet, "/api/v1/models", s.plain(s.handleModels)},
		{http.MethodGet, "/api/v1/models/{model}", s.plain(s.handleModel)},
		{http.MethodGet, "/api/v1/models/{model}/intermediates/{interm}", s.plain(s.handleIntermediate)},
		{http.MethodGet, "/api/v1/models/{model}/lineage", s.plain(s.handleLineage)},

		// Ops surface. Liveness vs readiness: /healthz answers "is the
		// process up" and stays 200 as long as the server can serve at
		// all; /readyz answers "should this node take traffic" and flips
		// to 503 (same JSON body) when degraded, so load balancers and the
		// cluster health checker can tell "dead" from "shed me".
		{http.MethodGet, "/api/v1/stats", s.plain(s.handleStats)},
		{http.MethodGet, "/metrics", s.handleMetrics},
		{http.MethodGet, "/healthz", s.plain(s.handleHealth)},
		{http.MethodGet, "/readyz", s.handleReady},
	}
}

// register mounts the endpoint table. Patterns carry no method: the
// wrapper checks it, so a mismatch gets the JSON 405 envelope instead of
// net/http's plain-text one. Every request body is capped at maxBodyBytes.
func (s *Server) register() {
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) {
			s.requests.Inc()
			defer s.recoverPanic(w)
			if r.Method != rt.method {
				writeError(w, http.StatusMethodNotAllowed, "%s needs %s, got %s", r.URL.Path, rt.method, r.Method)
				return
			}
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
			rt.serve(w, r)
		})
	}
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

// plain wraps an endpoint with latency metrics and the JSON envelope — no
// admission control or deadline (for cheap catalog/ops reads).
func (s *Server) plain(fn handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer s.latency.ObserveSince(time.Now())
		payload, err := fn(r)
		s.respond(w, payload, err)
	}
}

// admitted wraps a query-class endpoint: latency metrics, the admission
// semaphore (non-blocking — full means 429 + Retry-After), and the
// per-request deadline.
func (s *Server) admitted(fn handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer s.latency.ObserveSince(time.Now())
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

// serveExecute is the one query route. ?explain=1 only plans, which costs
// at most a pass over an in-memory sample, so an EXPLAIN is never shed,
// like a catalog read; every executed query is admitted.
func (s *Server) serveExecute() http.HandlerFunc {
	run, explain := s.admitted(s.handleExecute(false)), s.plain(s.handleExecute(true))
	return func(w http.ResponseWriter, r *http.Request) {
		raw := r.URL.Query().Get("explain")
		switch on, err := strconv.ParseBool(cmp.Or(raw, "0")); {
		case err != nil:
			s.respond(w, nil, badRequest("bad explain=%q: want 1 or 0", raw))
		case on:
			explain(w, r)
		default:
			run(w, r)
		}
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
	s.writeJSON(w, http.StatusOK, payload)
}

// writeJSON writes payload under status. It marshals before touching the
// ResponseWriter: an encode failure this way becomes a clean 500
// envelope, never a truncated body.
func (s *Server) writeJSON(w http.ResponseWriter, status int, payload any) {
	body, err := json.Marshal(payload)
	if err != nil {
		s.errors5x.Inc()
		writeError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
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
