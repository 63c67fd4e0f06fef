package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"mistique"
	"mistique/client"
	"mistique/internal/colstore"
	"mistique/internal/metadata"
	"mistique/internal/tensor"
)

// maxBodyBytes bounds request bodies; query descriptions are tiny, so a
// megabyte of headroom is generous and keeps a hostile body from growing
// the heap.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes the JSON request body into dst: unknown
// fields, trailing garbage and oversized bodies are all 400s.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("bad request body: %v", err)
	}
	if dec.More() {
		return badRequest("bad request body: trailing data after JSON value")
	}
	return nil
}

// modelInfo converts a catalog model to its wire form.
func modelInfo(m *metadata.Model, interms []metadata.Interm) client.ModelInfo {
	info := client.ModelInfo{
		Name:          m.Name,
		Kind:          string(m.Kind),
		TotalExamples: m.TotalExamples,
		ModelLoadSecs: m.ModelLoadSecs,
	}
	for _, st := range m.Stages {
		info.Stages = append(info.Stages, client.StageInfo{Name: st.Name, Index: st.Index, ExecSeconds: st.ExecSeconds})
	}
	for i := range interms {
		info.Intermediates = append(info.Intermediates, intermInfo(&interms[i]))
	}
	return info
}

func intermInfo(it *metadata.Interm) client.IntermInfo {
	return client.IntermInfo{
		Name:         it.Name,
		StageIndex:   it.StageIndex,
		Columns:      it.Columns,
		Rows:         it.Rows,
		Materialized: it.Materialized,
		QuantScheme:  it.QuantScheme,
		StoredBytes:  it.StoredBytes,
		QueryCount:   it.QueryCount,
	}
}

// matrixRows converts a Dense matrix to the row-major wire form. The
// copy through client.F32 also keeps the encoder off the matrix's
// backing array.
func matrixRows(m *tensor.Dense) [][]client.F32 {
	rows := make([][]client.F32, m.Rows)
	for i := range rows {
		rows[i] = wireRow(m.Row(i))
	}
	return rows
}

func wireRow(src []float32) []client.F32 {
	row := make([]client.F32, len(src))
	for j, v := range src {
		row[j] = client.F32(v)
	}
	return row
}

func (s *Server) handleModels(r *http.Request) (any, error) {
	db := s.sys.Metadata()
	resp := client.ModelsResponse{Models: []client.ModelInfo{}}
	for _, name := range db.Models() {
		m := db.Model(name)
		if m == nil {
			continue
		}
		resp.Models = append(resp.Models, modelInfo(m, db.IntermSnapshots(name)))
	}
	return resp, nil
}

func (s *Server) handleModel(r *http.Request) (any, error) {
	name := r.PathValue("model")
	db := s.sys.Metadata()
	m := db.Model(name)
	if m == nil {
		return nil, notFound("unknown model %q", name)
	}
	return modelInfo(m, db.IntermSnapshots(name)), nil
}

func (s *Server) handleLineage(r *http.Request) (any, error) {
	name := r.PathValue("model")
	chain, err := s.sys.Lineage(name)
	if err != nil {
		return nil, err
	}
	resp := client.LineageResponse{Model: name, Versions: []client.LineageEntry{}}
	for _, e := range chain {
		resp.Versions = append(resp.Versions, client.LineageEntry{
			Model:         e.Model,
			Parent:        e.Parent,
			Kind:          e.Kind,
			Intermediates: e.Intermediates,
			StoredBytes:   e.StoredBytes,
			MaxDeltaDepth: e.MaxDeltaDepth,
		})
	}
	return resp, nil
}

func (s *Server) handleIntermediate(r *http.Request) (any, error) {
	model, interm := r.PathValue("model"), r.PathValue("interm")
	db := s.sys.Metadata()
	if db.Model(model) == nil {
		return nil, notFound("unknown model %q", model)
	}
	it, ok := db.IntermSnapshot(model, interm)
	if !ok {
		return nil, notFound("unknown intermediate %s.%s", model, interm)
	}
	return intermInfo(&it), nil
}

func (s *Server) handleQuery(r *http.Request) (any, error) {
	var req client.QueryRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	a, err := s.sys.Execute(r.Context(), mistique.Query{Op: mistique.OpGet, Model: req.Model, Intermediate: req.Intermediate,
		Columns: req.Cols, To: max(req.NEx, 0), Force: req.Strategy})
	if err != nil {
		return nil, err
	}
	return client.QueryResponse{
		Model:           a.Model,
		Intermediate:    a.Intermediate,
		Cols:            a.Columns,
		Rows:            a.Data.Rows,
		Data:            matrixRows(a.Data),
		Strategy:        a.Strategy.String(),
		EstReadSecs:     a.EstReadSecs,
		EstRerunSecs:    a.EstRerunSecs,
		FetchSeconds:    a.Seconds,
		Recovered:       a.Recovered,
		MaterializedNow: a.MaterializedNow,
	}, nil
}

func (s *Server) handleColumn(r *http.Request) (any, error) {
	model, interm, col := r.PathValue("model"), r.PathValue("interm"), r.PathValue("col")
	nEx, err := intParam(r, "n", 0)
	if err != nil {
		return nil, err
	}
	a, err := s.sys.Execute(r.Context(), mistique.Query{Op: mistique.OpGet, Model: model, Intermediate: interm,
		Columns: []string{col}, To: max(nEx, 0)})
	if err != nil {
		return nil, err
	}
	return client.ColumnResponse{Model: model, Intermediate: interm, Column: col, Values: wireRow(a.Data.Col(0))}, nil
}

func (s *Server) handleEstimate(r *http.Request) (any, error) {
	q := r.URL.Query()
	nEx, err := intParam(r, "n", 0)
	if err != nil {
		return nil, err
	}
	// The plan is the engine's actual choice, tie-break and
	// materialization gate included: /api/v1/query would run exactly this.
	p, err := s.sys.Plan(mistique.Query{Op: mistique.OpGet, Model: q.Get("model"), Intermediate: q.Get("interm"), To: max(nEx, 0)})
	if err != nil {
		return nil, err
	}
	return client.EstimateResponse{
		Model:        p.Model,
		Intermediate: p.Intermediate,
		NEx:          nEx,
		EstReadSecs:  p.EstReadSecs,
		EstRerunSecs: p.EstRerunSecs,
		Chosen:       p.Strategy.String(),
	}, nil
}

func (s *Server) handleFilter(r *http.Request) (any, error) {
	var req client.FilterRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	op, err := parseOp(req.Op)
	if err != nil {
		return nil, err
	}
	a, err := s.sys.Execute(r.Context(), mistique.Query{Op: mistique.OpFilter, Model: req.Model, Intermediate: req.Intermediate,
		Columns: []string{req.Column}, Pred: op, Bound: float32(req.Bound), From: req.From, To: req.To})
	if err != nil {
		return nil, err
	}
	return client.FilterResponse{Rows: a.Rows, Count: len(a.Rows)}, nil
}

func (s *Server) handleTopK(r *http.Request) (any, error) {
	var req client.TopKRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	a, err := s.sys.Execute(r.Context(), mistique.Query{Op: mistique.OpTopK, Model: req.Model, Intermediate: req.Intermediate,
		Columns: []string{req.Column}, K: req.K, From: req.From, To: req.To})
	if err != nil {
		return nil, err
	}
	out := make([]client.TopKEntry, len(a.TopK))
	for i, e := range a.TopK {
		out[i] = client.TopKEntry{Row: e.Row, Value: client.F32(e.Value)}
	}
	return client.TopKResponse{
		Model:        req.Model,
		Intermediate: req.Intermediate,
		Column:       req.Column,
		Entries:      out,
	}, nil
}

func parseOp(op string) (colstore.Op, error) {
	switch op {
	case "gt":
		return colstore.Gt, nil
	case "ge":
		return colstore.Ge, nil
	case "lt":
		return colstore.Lt, nil
	case "le":
		return colstore.Le, nil
	}
	return 0, badRequest("unknown op %q (want gt, ge, lt or le)", op)
}

func (s *Server) handleRows(r *http.Request) (any, error) {
	var req client.RowsRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	a, err := s.sys.Execute(r.Context(), mistique.Query{Op: mistique.OpRows, Model: req.Model, Intermediate: req.Intermediate,
		Columns: req.Cols, From: req.From, To: req.To})
	if err != nil {
		return nil, err
	}
	return client.RowsResponse{
		Model:        req.Model,
		Intermediate: req.Intermediate,
		Cols:         a.Columns,
		From:         a.From,
		To:           a.To,
		Data:         matrixRows(a.Data),
	}, nil
}

func (s *Server) handleStats(r *http.Request) (any, error) {
	snap := s.sys.Metrics()
	if disk, err := s.sys.DiskBytes(); err == nil {
		snap.Gauges["mistique_disk_bytes"] = disk
		snap.Help["mistique_disk_bytes"] = "on-disk footprint of stored intermediates"
	}
	return snap, nil
}

// handleMetrics is the one non-JSON endpoint: Prometheus text exposition
// of the same snapshot /api/v1/stats serves.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	defer s.recoverPanic(w)
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "%s needs GET, got %s", r.URL.Path, r.Method)
		return
	}
	snap := s.sys.Metrics()
	if disk, err := s.sys.DiskBytes(); err == nil {
		snap.Gauges["mistique_disk_bytes"] = disk
		snap.Help["mistique_disk_bytes"] = "on-disk footprint of stored intermediates"
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.WritePrometheus(w)
}

func (s *Server) handleHealth(r *http.Request) (any, error) {
	return client.HealthResponse{Status: "ok", Models: len(s.sys.Metadata().Models())}, nil
}

// readiness assembles the /readyz body: degraded when the last recovery
// sweep quarantined data or the admission semaphore is saturated.
func (s *Server) readiness() client.ReadyResponse {
	resp := client.ReadyResponse{
		Status:      "ok",
		Shard:       s.cfg.ShardName,
		Models:      len(s.sys.Metadata().Models()),
		InFlight:    len(s.sem),
		MaxInFlight: s.cfg.MaxInFlight,
	}
	var reasons []string
	if rep := s.sys.RecoveryReport(); rep != nil {
		resp.QuarantinedPartitions = len(rep.ExtraFilesQuarantined) + len(rep.CorruptPartitions)
		resp.ManifestQuarantined = rep.ManifestQuarantined
		if rep.ManifestQuarantined {
			reasons = append(reasons, "manifest quarantined on last open (store restarted empty)")
		}
		if resp.QuarantinedPartitions > 0 {
			reasons = append(reasons, fmt.Sprintf("%d partition(s) quarantined by recovery", resp.QuarantinedPartitions))
		}
		if n := len(rep.LostChunks); n > 0 {
			reasons = append(reasons, fmt.Sprintf("%d chunk(s) lost, serving via rerun recovery", n))
		}
	}
	if resp.InFlight >= resp.MaxInFlight {
		resp.Saturated = true
		reasons = append(reasons, "admission semaphore saturated, shedding queries")
	}
	if len(reasons) > 0 {
		resp.Status = "degraded"
		resp.Reasons = reasons
	}
	return resp
}

// handleReady is raw (not wrapped in plain) because a degraded node must
// answer 503 with the ReadyResponse body, not the error envelope: the
// body is the answer, the status code is for load balancers.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	defer s.recoverPanic(w)
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "%s needs GET, got %s", r.URL.Path, r.Method)
		return
	}
	resp := s.readiness()
	body, err := json.Marshal(resp)
	if err != nil {
		s.errors5x.Inc()
		writeError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	status := http.StatusOK
	if resp.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}

func (s *Server) handleCompact(r *http.Request) (any, error) {
	reclaimed, err := s.sys.CompactStore()
	if err != nil {
		return nil, err
	}
	return client.CompactResponse{ReclaimedBytes: reclaimed}, nil
}

// intParam parses an optional integer query parameter.
func intParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("bad %s=%q: want an integer", name, raw)
	}
	return v, nil
}
