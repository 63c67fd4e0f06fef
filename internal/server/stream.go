package server

// Streaming ingest. Ingest batches pass two admission layers: the global
// query semaphore (shared with every query-class request) and a per-tenant
// quota — an in-flight bound plus a rows/sec token bucket keyed on the
// X-Mistique-Tenant header — so one chatty producer cannot starve other
// tenants' ingest or the query path's fsync budget.

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"mistique/client"
)

// tenantName extracts the request's tenant bucket key.
func tenantName(r *http.Request) string {
	if t := r.Header.Get("X-Mistique-Tenant"); t != "" {
		return t
	}
	return "default"
}

// admitTenant charges one ingest batch of n rows to the tenant's quota.
// It returns a release func on success, or a non-nil *apiError carrying
// 429 and a Retry-After hint on rejection.
func (s *Server) admitTenant(tenant string, n int) (release func(), err error) {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	ts, ok := s.tenants[tenant]
	if !ok {
		ts = &tenantState{tokens: float64(s.cfg.TenantRowsPerSec), last: time.Now()}
		s.tenants[tenant] = ts
	}
	if ts.inFlight >= s.cfg.TenantMaxInFlight {
		s.tenantShed.Inc()
		return nil, &apiError{status: http.StatusTooManyRequests, retryAfter: retryAfterHint,
			msg: fmt.Sprintf("tenant %q over capacity: %d ingests in flight", tenant, ts.inFlight)}
	}
	if rate := float64(s.cfg.TenantRowsPerSec); rate > 0 {
		now := time.Now()
		ts.tokens = math.Min(rate, ts.tokens+now.Sub(ts.last).Seconds()*rate)
		ts.last = now
		if float64(n) > ts.tokens {
			s.tenantShed.Inc()
			return nil, &apiError{status: http.StatusTooManyRequests, retryAfter: s.tenantRetryAfter(n),
				msg: fmt.Sprintf("tenant %q over rate: %d rows asked, %.0f available at %d rows/sec", tenant, n, ts.tokens, s.cfg.TenantRowsPerSec)}
		}
		ts.tokens -= float64(n)
	}
	ts.inFlight++
	return func() {
		s.tenantMu.Lock()
		ts.inFlight--
		s.tenantMu.Unlock()
	}, nil
}

// tenantRetryAfter estimates how long the tenant should wait before the
// bucket (TenantRowsPerSec > 0) can admit n rows again.
func (s *Server) tenantRetryAfter(n int) time.Duration {
	d := time.Duration(float64(n) / float64(s.cfg.TenantRowsPerSec) * float64(time.Second))
	return max(d, retryAfterHint)
}

func (s *Server) handleIngest(r *http.Request) (any, error) {
	model, interm := r.PathValue("model"), r.PathValue("interm")
	var req client.IngestRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if len(req.Columns) == 0 || len(req.Rows) == 0 {
		return nil, badRequest("ingest %s.%s needs columns and rows", model, interm)
	}
	release, err := s.admitTenant(tenantName(r), len(req.Rows))
	if err != nil {
		return nil, err
	}
	defer release()

	rows := make([][]float32, len(req.Rows))
	for i, wr := range req.Rows {
		rows[i] = client.Floats(wr)
	}
	res, err := s.sys.IngestRows(model, interm, req.Columns, rows)
	if err != nil {
		return nil, err
	}
	return client.IngestResponse{
		Model:        res.Model,
		Intermediate: res.Intermediate,
		Rows:         res.Rows,
		FlushedRows:  res.FlushedRows,
		WALBytes:     res.WALBytes,
	}, nil
}
