// Package client is the typed Go client for the MISTIQUE query service
// (internal/server). Every diagnostic query class of Sec. 5 travels as one
// Query on POST /api/v1/execute, which also EXPLAINs it; catalog
// listing, streaming ingest, stats and compaction have routes of their
// own.
//
// This file defines the wire types. The server imports them too, so the
// two sides can never drift: what the server encodes is exactly what the
// client decodes. The package depends only on the standard library.
package client

import (
	"encoding/json"
	"fmt"
	"math"
)

// F32 is a float32 that survives JSON: encoding/json rejects non-finite
// values outright, but intermediates upstream of a fillna stage carry
// NaNs by design. NaN encodes as null and ±Inf as the strings "+Inf" /
// "-Inf"; both decode back to the originals.
type F32 float32

// MarshalJSON implements json.Marshaler.
func (f F32) MarshalJSON() ([]byte, error) {
	v := float64(float32(f))
	switch {
	case math.IsNaN(v):
		return []byte("null"), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *F32) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case "null":
		*f = F32(math.NaN())
		return nil
	case `"+Inf"`, `"Inf"`:
		*f = F32(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = F32(math.Inf(-1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("F32: want a number, null or \"±Inf\": %w", err)
	}
	*f = F32(v)
	return nil
}

// Floats converts a decoded wire slice back to raw float32s.
func Floats(vs []F32) []float32 {
	out := make([]float32, len(vs))
	for i, v := range vs {
		out[i] = float32(v)
	}
	return out
}

// ErrorBody is the payload of every non-2xx response.
type ErrorBody struct {
	// Status echoes the HTTP status code.
	Status int `json:"status"`
	// Message is a human-readable description of the failure.
	Message string `json:"message"`
}

// ErrorEnvelope is the JSON error envelope: every error response, from a
// 400 on a malformed body to a 429 under backpressure to a 500 from a
// recovered panic, has exactly this shape.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// StageInfo describes one pipeline stage or network layer.
type StageInfo struct {
	Name        string  `json:"name"`
	Index       int     `json:"index"`
	ExecSeconds float64 `json:"exec_seconds"`
}

// IntermInfo is the catalog entry for one intermediate.
type IntermInfo struct {
	Name         string   `json:"name"`
	StageIndex   int      `json:"stage_index"`
	Columns      []string `json:"columns"`
	Rows         int      `json:"rows"`
	Materialized bool     `json:"materialized"`
	QuantScheme  string   `json:"quant_scheme"`
	StoredBytes  int64    `json:"stored_bytes"`
	QueryCount   int64    `json:"query_count"`
}

// ModelInfo is the catalog entry for one logged model.
type ModelInfo struct {
	Name          string       `json:"name"`
	Kind          string       `json:"kind"`
	TotalExamples int          `json:"total_examples"`
	ModelLoadSecs float64      `json:"model_load_secs"`
	Stages        []StageInfo  `json:"stages,omitempty"`
	Intermediates []IntermInfo `json:"intermediates,omitempty"`
}

// ModelsResponse lists the logged models (GET /api/v1/models).
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

// LineageEntry is one model version in a training-run lineage chain
// (GET /api/v1/models/{model}/lineage), newest first.
type LineageEntry struct {
	Model string `json:"model"`
	// Parent is the version this one was logged as a delta against; ""
	// marks the root of the chain.
	Parent        string `json:"parent,omitempty"`
	Kind          string `json:"kind"`
	Intermediates int    `json:"intermediates"`
	StoredBytes   int64  `json:"stored_bytes"`
	// MaxDeltaDepth is the deepest delta chain any of this version's
	// columns sits on; cold reads page in depth+1 generations.
	MaxDeltaDepth int `json:"max_delta_depth"`
}

// LineageResponse is the version chain of one model, newest first: the
// queried version, its parent, the parent's parent, up to the root (or
// the first version no longer in the catalog).
type LineageResponse struct {
	Model    string         `json:"model"`
	Versions []LineageEntry `json:"versions"`
}

// Query is one engine query on the wire (POST /api/v1/execute). It mirrors
// mistique.Query field for field: Op is one of the Op* names, Pred is
// "gt", "ge", "lt" or "le", Force is "READ", "RERUN" or empty, and To == 0
// means the last row. The answer decodes into the op's response type:
// QueryResponse (OpGet), RowsResponse (OpRows), FilterResponse (OpFilter),
// TopKResponse (OpTopK), NeighborsResponse (OpKNN), ColDistResponse
// (OpColDist), ApproxTopKResponse (OpApproxTopK), ConfusionResponse
// (OpConfusion) or SampleRowsResponse (OpSampleRows). With ?explain=1 it
// decodes into a PlanResponse instead and the query does not run.
type Query struct {
	Op           string   `json:"op"`
	Model        string   `json:"model"`
	Intermediate string   `json:"intermediate"`
	Columns      []string `json:"columns,omitempty"`
	From         int      `json:"from,omitempty"`
	To           int      `json:"to,omitempty"`
	Pred         string   `json:"pred,omitempty"`
	Bound        float64  `json:"bound,omitempty"`
	K            int      `json:"k,omitempty"`
	Row          int      `json:"row,omitempty"`
	MaxError     float64  `json:"max_error,omitempty"`
	Force        string   `json:"force,omitempty"`
}

// The values of Query.Op, spelled as mistique.Op spells them.
const (
	OpGet        = "get_intermediate"
	OpRows       = "get_rows"
	OpFilter     = "filter_rows"
	OpTopK       = "topk"
	OpKNN        = "knn"
	OpColDist    = "col_dist"
	OpApproxTopK = "approx_topk"
	OpConfusion  = "confusion"
	OpSampleRows = "sample_rows"
)

// PlanResponse is a query's EXPLAIN (POST /api/v1/execute?explain=1): the
// query as the engine normalized it (Columns resolved, To the row limit
// for the ops that take one), which executes as it is, the strategy it
// would answer with and the cost model's estimates, with the query not
// run and no query counter moved. Strategy is the engine's
// own choice: the paper's tie-break reads when t_rerun >= t_read, and an
// unmaterialized intermediate forces RERUN.
type PlanResponse struct {
	Query
	Strategy      string  `json:"strategy"`
	EstReadSecs   float64 `json:"est_read_secs"`
	EstRerunSecs  float64 `json:"est_rerun_secs"`
	EstSampleSecs float64 `json:"est_sample_secs,omitempty"`
}

// QueryRequest, FilterRequest, TopKRequest, RowsRequest, ColDistRequest
// and ApproxTopKRequest are the per-op request bodies that Query replaced.
// Only the benchmark's wire-encode probe still builds them; they go with
// ROADMAP item 9.
type QueryRequest struct {
	Model        string   `json:"model"`
	Intermediate string   `json:"intermediate"`
	Cols         []string `json:"cols,omitempty"`
	NEx          int      `json:"n_ex,omitempty"`
	Strategy     string   `json:"strategy,omitempty"`
}

// QueryResponse is the OpGet answer: the matrix plus everything
// mistique.Result exposes about how it was produced.
type QueryResponse struct {
	Model           string   `json:"model"`
	Intermediate    string   `json:"intermediate"`
	Cols            []string `json:"cols"`
	Rows            int      `json:"rows"`
	Data            [][]F32  `json:"data"`
	Strategy        string   `json:"strategy"`
	EstReadSecs     float64  `json:"est_read_secs"`
	EstRerunSecs    float64  `json:"est_rerun_secs"`
	FetchSeconds    float64  `json:"fetch_seconds"`
	Recovered       bool     `json:"recovered,omitempty"`
	MaterializedNow bool     `json:"materialized_now,omitempty"`
}

// FilterRequest goes with ROADMAP item 9 (see QueryRequest).
type FilterRequest struct {
	Model        string  `json:"model"`
	Intermediate string  `json:"intermediate"`
	Column       string  `json:"column"`
	Op           string  `json:"op"`
	Bound        float64 `json:"bound"`
	From         int     `json:"from,omitempty"`
	To           int     `json:"to,omitempty"`
}

// FilterResponse is the OpFilter answer: the matching global row offsets
// in order.
type FilterResponse struct {
	Rows  []int `json:"rows"`
	Count int   `json:"count"`
}

// TopKRequest goes with ROADMAP item 9 (see QueryRequest).
type TopKRequest struct {
	Model        string `json:"model"`
	Intermediate string `json:"intermediate"`
	Column       string `json:"column"`
	K            int    `json:"k"`
	From         int    `json:"from,omitempty"`
	To           int    `json:"to,omitempty"`
}

// TopKEntry is one ranked row of a TOPK answer.
type TopKEntry struct {
	Row   int `json:"row"`
	Value F32 `json:"value"`
}

// TopKResponse is the OpTopK answer: the top-k rows in rank order (value
// descending, NaN last, ascending row id on ties).
type TopKResponse struct {
	Model        string      `json:"model"`
	Intermediate string      `json:"intermediate"`
	Column       string      `json:"column"`
	Entries      []TopKEntry `json:"entries"`
}

// Neighbor is one row of a KNN answer and its L2 distance to the query
// row.
type Neighbor struct {
	Row  int `json:"row"`
	Dist F32 `json:"dist"`
}

// NeighborsResponse is the OpKNN answer: the K rows nearest to Row,
// nearest first.
type NeighborsResponse struct {
	Model        string     `json:"model"`
	Intermediate string     `json:"intermediate"`
	Row          int        `json:"row"`
	Neighbors    []Neighbor `json:"neighbors"`
}

// RowsRequest goes with ROADMAP item 9 (see QueryRequest).
type RowsRequest struct {
	Model        string   `json:"model"`
	Intermediate string   `json:"intermediate"`
	Cols         []string `json:"cols,omitempty"`
	From         int      `json:"from"`
	To           int      `json:"to"`
}

// RowsResponse is the OpRows answer matrix. To reflects clamping to the
// intermediate's row count.
type RowsResponse struct {
	Model        string   `json:"model"`
	Intermediate string   `json:"intermediate"`
	Cols         []string `json:"cols"`
	From         int      `json:"from"`
	To           int      `json:"to"`
	Data         [][]F32  `json:"data"`
}

// HistogramInfo mirrors the JSON surface of an obs histogram snapshot.
type HistogramInfo struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// StatsResponse is the full metrics snapshot (GET /api/v1/stats): every
// counter, gauge and histogram in the system's registry, including the
// HTTP service's own series.
type StatsResponse struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]int64         `json:"gauges"`
	Histograms map[string]HistogramInfo `json:"histograms"`
}

// CompactResponse reports a compaction (POST /api/v1/compact).
type CompactResponse struct {
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
}

// HealthResponse is the liveness probe (GET /healthz): "is the process
// up". Readiness ("should this node take traffic") is /readyz.
type HealthResponse struct {
	Status string `json:"status"`
	Models int    `json:"models"`
}

// ReadyResponse is the readiness probe (GET /readyz). The server answers
// 200 with Status "ok" when the node should take traffic and 503 with
// Status "degraded" — same JSON shape — when it should be shed: load
// balancers key off the status code alone, while the cluster health
// checker reads the body to distinguish "shed me" (suspect) from "dead"
// (down).
type ReadyResponse struct {
	Status string `json:"status"` // "ok" or "degraded"
	// Shard is the node's configured shard name (serve -shard), if any.
	Shard  string `json:"shard,omitempty"`
	Models int    `json:"models"`
	// QuarantinedPartitions counts partition files the last recovery
	// sweep moved aside; ManifestQuarantined reports a corrupt manifest
	// (the store restarted from empty logical state).
	QuarantinedPartitions int  `json:"quarantined_partitions"`
	ManifestQuarantined   bool `json:"manifest_quarantined,omitempty"`
	// InFlight/MaxInFlight expose the admission semaphore; Saturated is
	// true when every slot is taken and new queries are being shed.
	InFlight    int  `json:"in_flight"`
	MaxInFlight int  `json:"max_in_flight"`
	Saturated   bool `json:"saturated,omitempty"`
	// Reasons lists, in prose, why Status is "degraded".
	Reasons []string `json:"reasons,omitempty"`
}

// IngestRequest carries one streaming-ingest batch
// (POST /api/v1/ingest/{model}/{interm}). Every row must have
// len(Columns) values, and Columns must match the stream's columns on
// every batch.
type IngestRequest struct {
	Columns []string `json:"columns"`
	Rows    [][]F32  `json:"rows"`
}

// IngestResponse acknowledges a batch: when it arrives, the rows are
// durable (fsynced WAL or flushed partitions) and survive any crash.
type IngestResponse struct {
	Model        string `json:"model"`
	Intermediate string `json:"intermediate"`
	Rows         int64  `json:"rows"`
	FlushedRows  int64  `json:"flushed_rows"`
	WALBytes     int64  `json:"wal_bytes"`
}

// ColDistRequest goes with ROADMAP item 9 (see QueryRequest).
type ColDistRequest struct {
	Model        string  `json:"model"`
	Intermediate string  `json:"intermediate"`
	Column       string  `json:"column"`
	MaxError     float64 `json:"max_error,omitempty"`
}

// ColDistResponse mirrors mistique.ColDist: exact counts and extrema,
// estimated moments with their error bounds, and the strategy that
// answered (SAMPLE or an exact READ/RERUN fallback).
type ColDistResponse struct {
	Model        string `json:"model"`
	Intermediate string `json:"intermediate"`
	Column       string `json:"column"`

	Rows   int64 `json:"rows"`
	Finite int64 `json:"finite"`
	NaN    int64 `json:"nan"`
	PosInf int64 `json:"pos_inf"`
	NegInf int64 `json:"neg_inf"`

	Min F32 `json:"min"`
	Max F32 `json:"max"`

	Mean         float64 `json:"mean"`
	MeanBound    float64 `json:"mean_bound"`
	Std          float64 `json:"std"`
	P50          F32     `json:"p50"`
	P50RankBound float64 `json:"p50_rank_bound"`

	SampleRows   int64   `json:"sample_rows"`
	Strategy     string  `json:"strategy"`
	FetchSeconds float64 `json:"fetch_seconds"`
}

// ApproxTopKRequest goes with ROADMAP item 9 (see QueryRequest).
type ApproxTopKRequest struct {
	Model        string  `json:"model"`
	Intermediate string  `json:"intermediate"`
	Column       string  `json:"column"`
	K            int     `json:"k"`
	MaxError     float64 `json:"max_error,omitempty"`
}

// ApproxTopKEntry is one ranked row with its real population row id.
type ApproxTopKEntry struct {
	Row   int64 `json:"row"`
	Value F32   `json:"value"`
}

// ApproxTopKResponse lists the ranked rows plus the rank-fraction bound
// (0 when the answer is exact).
type ApproxTopKResponse struct {
	Model        string            `json:"model"`
	Intermediate string            `json:"intermediate"`
	Column       string            `json:"column"`
	Entries      []ApproxTopKEntry `json:"entries"`
	RankBound    float64           `json:"rank_bound"`
	Rows         int64             `json:"rows"`
	SampleRows   int64             `json:"sample_rows"`
	Strategy     string            `json:"strategy"`
	FetchSeconds float64           `json:"fetch_seconds"`
}

// ConfusionCell is one (label, predicted) cell with its estimated row
// count and count bound (both exact when Strategy is not SAMPLE).
type ConfusionCell struct {
	Label F32     `json:"label"`
	Pred  F32     `json:"pred"`
	Count float64 `json:"count"`
	Bound float64 `json:"bound"`
}

// ConfusionResponse is the (sparse) confusion matrix, populated cells
// only, labels ascending then predictions ascending.
type ConfusionResponse struct {
	Model        string          `json:"model"`
	Intermediate string          `json:"intermediate"`
	LabelCol     string          `json:"label_col"`
	PredCol      string          `json:"pred_col"`
	Cells        []ConfusionCell `json:"cells"`
	Rows         int64           `json:"rows"`
	MaxBound     float64         `json:"max_bound"`
	SampleRows   int64           `json:"sample_rows"`
	Strategy     string          `json:"strategy"`
	FetchSeconds float64         `json:"fetch_seconds"`
}

// SampleRowsResponse carries the sampled rows with their real population
// row ids, ascending.
type SampleRowsResponse struct {
	Model        string   `json:"model"`
	Intermediate string   `json:"intermediate"`
	Cols         []string `json:"cols"`
	RowIDs       []int64  `json:"row_ids"`
	Data         [][]F32  `json:"data"`
	Rows         int64    `json:"rows"`
	Strategy     string   `json:"strategy"`
	FetchSeconds float64  `json:"fetch_seconds"`
}
