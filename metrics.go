package mistique

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"mistique/internal/cost"
	"mistique/internal/obs"
)

// The observability layer (see DESIGN.md "Observability"). One obs.Registry
// per System carries every engine-level instrument; the column store and
// the catalog register their own instruments in the same registry, so a
// single snapshot covers ingest, flush/compaction, query and recovery.
//
// The cost model (Sec. 5.1, Eq. 5) is the system's central quantitative
// claim, so the query path additionally tracks estimate-vs-actual error
// per strategy: every non-recovered query observes
// |estimate − actual| / actual into a per-strategy histogram.

// systemMetrics holds the engine's instruments. Everything lives in reg;
// the typed fields are cached handles so hot paths skip the registry map.
type systemMetrics struct {
	reg *obs.Registry

	// Ingest.
	modelsLogged          *obs.Counter
	ingestSeconds         *obs.Histogram
	ingestQuantizeSeconds *obs.Histogram
	ingestForwardSeconds  *obs.Histogram

	// Query.
	queries           *obs.Counter
	queryReadSeconds  *obs.Histogram
	queryRerunSeconds *obs.Histogram
	// storedOpSeconds holds the latency histogram of each op bound to
	// stored chunks (OpApproxTopK's exact path shares OpTopK's).
	storedOpSeconds  map[Op]*obs.Histogram
	costReadRelErr   *obs.Histogram
	costRerunRelErr  *obs.Histogram
	materializations *obs.Counter
	slowQueries      *obs.Counter

	// Approximate (SAMPLE) query path.
	sampleBuilds       *obs.Counter
	sampleQueries      *obs.Counter
	sampleFallbacks    *obs.Counter
	querySampleSeconds *obs.Histogram
	costSampleRelErr   *obs.Histogram

	// Streaming ingest / WAL.
	streamBatches      *obs.Counter
	streamRows         *obs.Counter
	walAppendBytes     *obs.Counter
	walReplays         *obs.Counter
	walReplayedRecords *obs.Counter
	walRewrites        *obs.Counter
	walTruncatedTails  *obs.Counter

	// Recovery.
	rerunFallbacks *obs.Counter
	heals          *obs.Counter
	healSeconds    *obs.Histogram
}

func newSystemMetrics() *systemMetrics {
	reg := obs.New()
	topK := reg.Histogram("mistique_query_topk_seconds", "TopK (neuron top-k probe) wall time")
	return &systemMetrics{
		reg: reg,

		modelsLogged:          reg.Counter("mistique_models_logged_total", "successful LogPipeline/LogDNN calls"),
		ingestSeconds:         reg.Histogram("mistique_ingest_seconds", "wall time of one LogPipeline/LogDNN call"),
		ingestQuantizeSeconds: reg.Histogram("mistique_ingest_quantize_seconds", "per-column quantizer fit time (KBIT/THRESHOLD calibration included)"),
		ingestForwardSeconds:  reg.Histogram("mistique_ingest_forward_seconds", "DNN per-layer forward time for one logging batch"),

		queries:           reg.Counter("mistique_queries_total", "matrix fetches (GetIntermediate, Fetch and the exact fallbacks of the approximate ops) answered by READ or RERUN"),
		queryReadSeconds:  reg.Histogram("mistique_query_read_seconds", "fetch wall time of queries answered by READ"),
		queryRerunSeconds: reg.Histogram("mistique_query_rerun_seconds", "fetch wall time of queries answered by RERUN"),
		storedOpSeconds: map[Op]*obs.Histogram{
			OpFilter:     reg.Histogram("mistique_query_filter_rows_seconds", "FilterRows (index probe or predicate scan) wall time"),
			OpRows:       reg.Histogram("mistique_query_get_rows_seconds", "GetRows (row-range read) wall time"),
			OpTopK:       topK,
			OpApproxTopK: topK,
			OpKNN:        reg.Histogram("mistique_query_knn_seconds", "KNN (full-scan nearest neighbors) wall time"),
		},
		costReadRelErr:   reg.Histogram("mistique_cost_read_rel_error", "cost-model relative error |est-actual|/actual for READ queries"),
		costRerunRelErr:  reg.Histogram("mistique_cost_rerun_rel_error", "cost-model relative error |est-actual|/actual for RERUN queries"),
		materializations: reg.Counter("mistique_adaptive_materializations_total", "intermediates materialized by a query crossing the gamma threshold"),
		slowQueries:      reg.Counter("mistique_slow_queries_total", "queries recorded in the slow-query log"),

		sampleBuilds:       reg.Counter("mistique_sample_builds_total", "reservoir samples built at ingest"),
		sampleQueries:      reg.Counter("mistique_sample_queries_total", "approximate queries answered from a sample"),
		sampleFallbacks:    reg.Counter("mistique_sample_fallbacks_total", "approximate queries that fell back to the exact path (no sample, missing column, or bound wider than requested)"),
		querySampleSeconds: reg.Histogram("mistique_query_sample_seconds", "fetch wall time of queries answered by SAMPLE"),
		costSampleRelErr:   reg.Histogram("mistique_cost_sample_rel_error", "cost-model relative error |est-actual|/actual for SAMPLE queries"),

		streamBatches:      reg.Counter("mistique_stream_batches_total", "streaming ingest batches acknowledged"),
		streamRows:         reg.Counter("mistique_stream_rows_total", "streaming ingest rows acknowledged"),
		walAppendBytes:     reg.Counter("mistique_wal_append_bytes_total", "bytes appended to stream WALs (frames included)"),
		walReplays:         reg.Counter("mistique_wal_replays_total", "stream WALs replayed at Open"),
		walReplayedRecords: reg.Counter("mistique_wal_replayed_records_total", "batch records re-offered during WAL replay"),
		walRewrites:        reg.Counter("mistique_wal_rewrites_total", "WAL checkpoints (rewrites back to the header) at Flush"),
		walTruncatedTails:  reg.Counter("mistique_wal_truncated_tails_total", "torn WAL tails truncated at Open"),

		rerunFallbacks: reg.Counter("mistique_query_rerun_fallbacks_total", "READ queries transparently recovered by re-running the model"),
		heals:          reg.Counter("mistique_heals_total", "heal-and-retry re-materializations on scan/row-range paths"),
		healSeconds:    reg.Histogram("mistique_heal_seconds", "re-materialization time of one healed intermediate"),
	}
}

// observe records one executed query: an op bound to stored chunks feeds
// its own latency histogram; every other answer feeds the latency
// histogram of the strategy that produced it and, when the cost model's
// estimate for that strategy is what the fetch was measured against, the
// estimate-vs-actual relative error.
func (m *systemMetrics) observe(a *Answer) {
	tr := ops[a.Op]
	if a.Strategy != cost.Sample {
		if tr.sample {
			m.sampleFallbacks.Inc()
		}
		if tr.stored {
			m.storedOpSeconds[a.Op].Observe(a.Seconds)
			return
		}
		m.queries.Inc()
	}
	var latency, relErr *obs.Histogram
	var est float64
	switch a.Strategy {
	case cost.Sample:
		m.sampleQueries.Inc()
		latency, relErr, est = m.querySampleSeconds, m.costSampleRelErr, a.EstSampleSecs
	case cost.Read:
		latency, relErr, est = m.queryReadSeconds, m.costReadRelErr, a.EstReadSecs
	default:
		latency, relErr, est = m.queryRerunSeconds, m.costRerunRelErr, a.EstRerunSecs
	}
	latency.Observe(a.Seconds)
	// A recovered fetch was planned on the READ estimate but degenerated
	// into a rerun; the error is not the model's to learn from.
	if !a.Recovered && est > 0 && a.Seconds > 0 {
		relErr.Observe(math.Abs(est-a.Seconds) / a.Seconds)
	}
}

// Metrics returns a structured snapshot of every engine, store and catalog
// metric, folding in the column store's Stats counters under canonical
// mistique_store_* names — the one-call view that subsumes the previously
// scattered Stats fields. The snapshot marshals directly to JSON and
// writes itself in Prometheus text format via WritePrometheus.
func (s *System) Metrics() *obs.Snapshot {
	snap := s.metrics.reg.Snapshot()
	st := s.store.Stats()
	fold := func(name, help string, v int64) {
		snap.Counters[name] = v
		snap.Help[name] = help
	}
	fold("mistique_store_chunks_put_total", "PutColumn calls", st.ChunksPut)
	fold("mistique_store_chunks_deduped_total", "puts answered by an existing identical chunk", st.ChunksDeduped)
	fold("mistique_store_chunks_stored_total", "chunks physically stored", st.ChunksStored)
	fold("mistique_store_evictions_total", "partitions evicted from the buffer pool", st.Evictions)
	fold("mistique_store_disk_reads_total", "partition files read from disk", st.DiskReads)
	fold("mistique_store_disk_writes_total", "partition files written to disk", st.DiskWrites)
	fold("mistique_store_disk_read_bytes_total", "compressed bytes read from disk", st.DiskReadBytes)
	fold("mistique_store_disk_write_bytes_total", "compressed bytes written to disk", st.DiskWriteBytes)
	fold("mistique_store_recovered_reads_total", "queries answered by rerun after hitting unavailable chunks", st.RecoveredReads)
	fold("mistique_store_corrupt_partitions_total", "partitions quarantined after checksum failure or loss", st.CorruptPartitions)
	fold("mistique_store_fsyncs_total", "fsyncs issued for durability", st.FsyncCount)
	g := func(name, help string, v int64) {
		snap.Gauges[name] = v
		snap.Help[name] = help
	}
	g("mistique_store_partitions", "partitions known to the store", st.Partitions)
	g("mistique_store_logical_bytes", "encoded bytes before dedup (STORE_ALL footprint)", st.LogicalBytes)
	g("mistique_store_stored_bytes", "encoded bytes actually kept (pre-compression)", st.StoredBytes)
	appends, syncs, walBytes, nStreams := s.streamWALStats()
	fold("mistique_wal_appends_total", "records appended across live stream WALs", appends)
	fold("mistique_wal_fsyncs_total", "fsyncs issued by live stream WALs", syncs)
	g("mistique_wal_bytes", "current total size of live stream WAL files", walBytes)
	g("mistique_streams", "live streaming-ingest states", int64(nStreams))
	return snap
}

// WritePrometheus writes the full metrics snapshot in Prometheus text
// exposition format.
func (s *System) WritePrometheus(w io.Writer) error {
	return s.Metrics().WritePrometheus(w)
}

// Obs returns the System's observability registry so co-located components
// (the HTTP query service in internal/server) can register their
// instruments in the same namespace and surface through the same
// /metrics and /api/v1/stats expositions. Never nil.
func (s *System) Obs() *obs.Registry { return s.metrics.reg }

// slowQueryRecord is one line of the slow-query log: everything needed to
// replay the plan offline (op, target, strategy, every estimate Plan
// computed, the measured wall time, what recovery it took).
type slowQueryRecord struct {
	Time          string  `json:"time"`
	Op            Op      `json:"op"`
	Model         string  `json:"model"`
	Intermediate  string  `json:"intermediate"`
	Strategy      string  `json:"strategy"`
	Forced        bool    `json:"forced,omitempty"`
	Cols          int     `json:"cols"`
	NEx           int     `json:"n_ex"`
	EstReadSecs   float64 `json:"est_read_secs"`
	EstRerunSecs  float64 `json:"est_rerun_secs"`
	EstSampleSecs float64 `json:"est_sample_secs,omitempty"`
	Seconds       float64 `json:"seconds"`
	Recovered     bool    `json:"recovered,omitempty"`
	Healed        bool    `json:"healed,omitempty"`
	Materialized  bool    `json:"materialized_now,omitempty"`
}

// slowQueryLogName is the JSON-lines slow-query log, rooted next to the
// store directory.
const slowQueryLogName = "slow_queries.jsonl"

// noteSlowQuery appends a record to the slow-query log when the answer's
// wall time crossed Config.SlowQueryThreshold. Best effort: a failed
// append drops the record (the counter still moves), never the query.
// The log is size-bounded: past s.slowMax (4 MiB) it rotates to
// slow_queries.jsonl.1, replacing the previous generation, so the log's
// footprint stays under two generations no matter how long the server runs.
func (s *System) noteSlowQuery(a *Answer) {
	if s.cfg.SlowQueryThreshold <= 0 || a.Seconds < s.cfg.SlowQueryThreshold.Seconds() {
		return
	}
	s.metrics.slowQueries.Inc()
	line, err := json.Marshal(slowQueryRecord{
		Time: time.Now().UTC().Format(time.RFC3339Nano),
		Op:   a.Op, Model: a.Model, Intermediate: a.Intermediate,
		Strategy: a.Strategy.String(), Forced: a.Force != "",
		Cols: len(a.Columns), NEx: a.To - a.From,
		EstReadSecs: a.EstReadSecs, EstRerunSecs: a.EstRerunSecs, EstSampleSecs: a.EstSampleSecs,
		Seconds: a.Seconds, Recovered: a.Recovered, Healed: a.Healed, Materialized: a.MaterializedNow,
	})
	if err != nil {
		return
	}
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	path := filepath.Join(s.dir, slowQueryLogName)
	if s.slowLog == nil {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return
		}
		s.slowLog = f
		if fi, err := f.Stat(); err == nil {
			s.slowSize = fi.Size()
		}
	}
	if n, err := fmt.Fprintf(s.slowLog, "%s\n", line); err == nil {
		s.slowSize += int64(n)
	}
	if s.slowSize < s.slowMax {
		return
	}
	// Rotate: the current log becomes the single kept generation.
	s.slowLog.Close()
	s.slowLog = nil
	s.slowSize = 0
	os.Rename(path, path+".1")
}
