package server

// Streaming ingest and approximate-query endpoints. Ingest batches pass
// two admission layers: the global query semaphore (shared with every
// query-class request) and a per-tenant quota — an in-flight bound plus a
// rows/sec token bucket keyed on the X-Mistique-Tenant header — so one
// chatty producer cannot starve other tenants' ingest or the query path's
// fsync budget. The approx endpoints surface the engine's sampled query
// variants; the requested max_error travels through and the engine
// decides sample-vs-exact, so the handlers stay thin.

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"mistique"
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

func (s *Server) handleColDist(r *http.Request) (any, error) {
	var req client.ColDistRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	a, err := s.sys.Execute(r.Context(), mistique.Query{Op: mistique.OpColDist, Model: req.Model, Intermediate: req.Intermediate,
		Columns: []string{req.Column}, MaxError: req.MaxError})
	if err != nil {
		return nil, err
	}
	d := a.ColDist
	return client.ColDistResponse{
		Model: d.Model, Intermediate: d.Intermediate, Column: d.Column,
		Rows: d.Rows, Finite: d.Finite, NaN: d.NaN, PosInf: d.PosInf, NegInf: d.NegInf,
		Min: client.F32(d.Min), Max: client.F32(d.Max),
		Mean: d.Mean, MeanBound: d.MeanBound, Std: d.Std,
		P50: client.F32(d.P50), P50RankBound: d.P50RankBound,
		SampleRows: d.SampleRows, Strategy: d.Strategy.String(), FetchSeconds: d.FetchSeconds,
	}, nil
}

func (s *Server) handleApproxTopK(r *http.Request) (any, error) {
	var req client.ApproxTopKRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	ans, err := s.sys.Execute(r.Context(), mistique.Query{Op: mistique.OpApproxTopK, Model: req.Model, Intermediate: req.Intermediate,
		Columns: []string{req.Column}, K: req.K, MaxError: req.MaxError})
	if err != nil {
		return nil, err
	}
	a := ans.ApproxTopK
	entries := make([]client.ApproxTopKEntry, len(a.Entries))
	for i, e := range a.Entries {
		entries[i] = client.ApproxTopKEntry{Row: e.Row, Value: client.F32(e.Value)}
	}
	return client.ApproxTopKResponse{
		Model: a.Model, Intermediate: a.Intermediate, Column: a.Column,
		Entries: entries, RankBound: a.RankBound,
		Rows: a.Rows, SampleRows: a.SampleRows,
		Strategy: a.Strategy.String(), FetchSeconds: a.FetchSeconds,
	}, nil
}

func (s *Server) handleConfusion(r *http.Request) (any, error) {
	var req client.ConfusionRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	a, err := s.sys.Execute(r.Context(), mistique.Query{Op: mistique.OpConfusion, Model: req.Model, Intermediate: req.Intermediate,
		Columns: []string{req.LabelCol, req.PredCol}, MaxError: req.MaxError})
	if err != nil {
		return nil, err
	}
	cm := a.Confusion
	cells := make([]client.ConfusionCell, len(cm.Cells))
	for i, c := range cm.Cells {
		cells[i] = client.ConfusionCell{Label: client.F32(c.Label), Pred: client.F32(c.Pred), Count: c.Count, Bound: c.Bound}
	}
	return client.ConfusionResponse{
		Model: cm.Model, Intermediate: cm.Intermediate,
		LabelCol: cm.LabelCol, PredCol: cm.PredCol,
		Cells: cells, Rows: cm.Rows,
		MaxBound: cm.MaxBound, SampleRows: cm.SampleRows,
		Strategy: cm.Strategy.String(), FetchSeconds: cm.FetchSeconds,
	}, nil
}

func (s *Server) handleSampleRows(r *http.Request) (any, error) {
	var req client.SampleRowsRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	a, err := s.sys.Execute(r.Context(), mistique.Query{Op: mistique.OpSampleRows, Model: req.Model, Intermediate: req.Intermediate,
		Columns: req.Cols, To: max(req.MaxRows, 0)})
	if err != nil {
		return nil, err
	}
	return client.SampleRowsResponse{
		Model: a.Model, Intermediate: a.Intermediate,
		Cols: a.Columns, RowIDs: a.RowIDs, Data: matrixRows(a.Data),
		Rows: a.Population, Strategy: a.Strategy.String(), FetchSeconds: a.Seconds,
	}, nil
}
