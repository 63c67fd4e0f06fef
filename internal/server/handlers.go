package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"mistique"
	"mistique/client"
	"mistique/internal/metadata"
	"mistique/internal/nindex"
	"mistique/internal/tensor"
)

// maxBodyBytes bounds request bodies; query descriptions are tiny, so a
// megabyte of headroom is generous and keeps a hostile body from growing
// the heap.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes the JSON request body into dst: unknown
// fields and trailing data are 400s. The body is read to its end, so one
// past maxBodyBytes is a 413 even when a valid value fits under the cap.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		var rest []byte
		if rest, err = io.ReadAll(io.MultiReader(dec.Buffered(), r.Body)); err == nil && len(bytes.TrimSpace(rest)) > 0 {
			err = errors.New("trailing data after JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return &apiError{status: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("request body over the %d-byte limit", tooBig.Limit)}
	case err != nil:
		return badRequest("bad request body: %v", err)
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

// handleExecute is the one query route's body. It decodes a wire Query,
// converts it field for field to the engine's and runs it through
// System.Execute, encoding the Answer in its op's wire type. Under
// explain it returns the engine's Plan instead, without running the query
// or moving a query counter; the plan's query is the normalized one and
// executes as it is (Columns resolved, To the row limit for the ops that
// take one).
func (s *Server) handleExecute(explain bool) handlerFunc {
	return func(r *http.Request) (any, error) {
		var wq client.Query
		if err := decodeBody(r, &wq); err != nil {
			return nil, err
		}
		q := mistique.Query{Op: mistique.Op(wq.Op), Model: wq.Model, Intermediate: wq.Intermediate, Columns: wq.Columns,
			From: wq.From, To: wq.To, Bound: float32(wq.Bound), K: wq.K, Row: wq.Row, MaxError: wq.MaxError, Force: wq.Force}
		if wq.Pred != "" || q.Op == mistique.OpFilter {
			var err error
			if q.Pred, err = nindex.ParseOp(wq.Pred); err != nil {
				return nil, badRequest("%v", err)
			}
		}
		if !explain {
			a, err := s.sys.Execute(r.Context(), q)
			if err != nil {
				return nil, err
			}
			return wireAnswer[q.Op](a), nil
		}
		// Plan takes no context, so the deadline is checked after it: an
		// expired request gets the 504 an executed one would.
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		p, err := s.sys.Plan(q)
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			return nil, err
		}
		wq.Columns = p.Columns
		if q.Op.TakesTo() {
			wq.To = p.To
		}
		return client.PlanResponse{Query: wq, Strategy: p.Strategy.String(),
			EstReadSecs: p.EstReadSecs, EstRerunSecs: p.EstRerunSecs, EstSampleSecs: p.EstSampleSecs}, nil
	}
}

// wireAnswer encodes each op's Answer in that op's wire type.
var wireAnswer = map[mistique.Op]func(a *mistique.Answer) any{
	mistique.OpGet: func(a *mistique.Answer) any {
		return client.QueryResponse{
			Model: a.Model, Intermediate: a.Intermediate, Cols: a.Columns,
			Rows: a.Data.Rows, Data: matrixRows(a.Data),
			Strategy: a.Strategy.String(), EstReadSecs: a.EstReadSecs, EstRerunSecs: a.EstRerunSecs,
			FetchSeconds: a.Seconds, Recovered: a.Recovered, MaterializedNow: a.MaterializedNow,
		}
	},
	mistique.OpRows: func(a *mistique.Answer) any {
		return client.RowsResponse{Model: a.Model, Intermediate: a.Intermediate, Cols: a.Columns,
			From: a.From, To: a.To, Data: matrixRows(a.Data)}
	},
	mistique.OpFilter: func(a *mistique.Answer) any {
		return client.FilterResponse{Rows: a.Rows, Count: len(a.Rows)}
	},
	mistique.OpTopK: func(a *mistique.Answer) any {
		out := make([]client.TopKEntry, len(a.TopK))
		for i, e := range a.TopK {
			out[i] = client.TopKEntry{Row: e.Row, Value: client.F32(e.Value)}
		}
		return client.TopKResponse{Model: a.Model, Intermediate: a.Intermediate, Column: a.Columns[0], Entries: out}
	},
	mistique.OpKNN: func(a *mistique.Answer) any {
		out := make([]client.Neighbor, len(a.Neighbors))
		for i, n := range a.Neighbors {
			out[i] = client.Neighbor{Row: n.Row, Dist: client.F32(n.Dist)}
		}
		return client.NeighborsResponse{Model: a.Model, Intermediate: a.Intermediate, Row: a.Row, Neighbors: out}
	},
	mistique.OpColDist: func(a *mistique.Answer) any {
		d := a.ColDist
		return client.ColDistResponse{
			Model: d.Model, Intermediate: d.Intermediate, Column: d.Column,
			Rows: d.Rows, Finite: d.Finite, NaN: d.NaN, PosInf: d.PosInf, NegInf: d.NegInf,
			Min: client.F32(d.Min), Max: client.F32(d.Max),
			Mean: d.Mean, MeanBound: d.MeanBound, Std: d.Std,
			P50: client.F32(d.P50), P50RankBound: d.P50RankBound,
			SampleRows: d.SampleRows, Strategy: d.Strategy.String(), FetchSeconds: d.FetchSeconds,
		}
	},
	mistique.OpApproxTopK: func(a *mistique.Answer) any {
		t := a.ApproxTopK
		out := make([]client.ApproxTopKEntry, len(t.Entries))
		for i, e := range t.Entries {
			out[i] = client.ApproxTopKEntry{Row: e.Row, Value: client.F32(e.Value)}
		}
		return client.ApproxTopKResponse{
			Model: t.Model, Intermediate: t.Intermediate, Column: t.Column,
			Entries: out, RankBound: t.RankBound, Rows: t.Rows, SampleRows: t.SampleRows,
			Strategy: t.Strategy.String(), FetchSeconds: t.FetchSeconds,
		}
	},
	mistique.OpConfusion: func(a *mistique.Answer) any {
		cm := a.Confusion
		cells := make([]client.ConfusionCell, len(cm.Cells))
		for i, c := range cm.Cells {
			cells[i] = client.ConfusionCell{Label: client.F32(c.Label), Pred: client.F32(c.Pred), Count: c.Count, Bound: c.Bound}
		}
		return client.ConfusionResponse{
			Model: cm.Model, Intermediate: cm.Intermediate, LabelCol: cm.LabelCol, PredCol: cm.PredCol,
			Cells: cells, Rows: cm.Rows, MaxBound: cm.MaxBound, SampleRows: cm.SampleRows,
			Strategy: cm.Strategy.String(), FetchSeconds: cm.FetchSeconds,
		}
	},
	mistique.OpSampleRows: func(a *mistique.Answer) any {
		return client.SampleRowsResponse{
			Model: a.Model, Intermediate: a.Intermediate, Cols: a.Columns, RowIDs: a.RowIDs, Data: matrixRows(a.Data),
			Rows: a.Population, Strategy: a.Strategy.String(), FetchSeconds: a.Seconds,
		}
	},
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
	resp := s.readiness()
	status := http.StatusOK
	if resp.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, resp)
}

func (s *Server) handleCompact(r *http.Request) (any, error) {
	reclaimed, err := s.sys.CompactStore()
	if err != nil {
		return nil, err
	}
	return client.CompactResponse{ReclaimedBytes: reclaimed}, nil
}
