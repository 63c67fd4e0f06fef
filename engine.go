// Package mistique is a Go implementation of MISTIQUE (Model Intermediate
// STore and QUery Engine, SIGMOD 2018): a system that captures, stores and
// queries model intermediates — the datasets produced by every stage of a
// traditional ML pipeline and the hidden activations of every layer of a
// deep neural network — to accelerate model diagnosis.
//
// A System ties together the three architectural components of the paper:
// the PipelineExecutor (internal/pipeline and internal/nn run models and
// hand intermediates over for logging), the DataStore (internal/colstore,
// a column-chunked, partitioned, de-duplicating, compressed store), and
// the ChunkReader (the query path, which consults the cost model in
// internal/cost to decide between re-running the model and reading a
// materialized intermediate). The MetadataDB (internal/metadata) records
// models, stage timings, intermediate locations and query counts.
//
// A System is safe for concurrent use: Log*, GetIntermediate, Flush and
// DropModel may be called from multiple goroutines, and the
// hot paths (per-column quantize/encode/dedup on ingest, partition
// compression on flush, chunk reads on query) fan out across a worker pool
// bounded by GOMAXPROCS. See DESIGN.md for the concurrency model.
//
// Basic use:
//
//	sys, _ := mistique.Open(dir, mistique.Config{})
//	sys.LogPipeline(p, env)                  // log a TRAD pipeline
//	sys.LogDNN("vgg@e0", net, images, opts)  // log DNN activations
//	res, _ := sys.GetIntermediate("vgg@e0", "conv5_3", nil, 1000)
//	// res.Data is an examples x columns matrix; res.Strategy says whether
//	// the engine re-ran the model or read the stored intermediate.
package mistique

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/durable"
	"mistique/internal/faultfs"
	"mistique/internal/frame"
	"mistique/internal/metadata"
	"mistique/internal/nindex"
	"mistique/internal/nn"
	"mistique/internal/parallel"
	"mistique/internal/pipeline"
	"mistique/internal/quant"
	"mistique/internal/sample"
	"mistique/internal/tensor"
)

// Scheme selects the storage scheme for logged intermediates (Sec. 4.1).
type Scheme string

const (
	// SchemeFull stores raw float32 values.
	SchemeFull Scheme = "FULL"
	// SchemeLP stores float16 values (LP_QT).
	SchemeLP Scheme = "LP_QT"
	// Scheme8Bit stores 256-quantile bin indices (KBIT_QT, k=8).
	Scheme8Bit Scheme = "8BIT_QT"
	// SchemePool2 average-pools activation maps 2x2 before storing
	// (POOL_QT sigma=2, the paper's default for DNNs).
	SchemePool2 Scheme = "POOL2_QT"
	// SchemePool4 average-pools activation maps 4x4 before storing
	// (POOL_QT sigma=4, the middle point of the paper's overhead sweep).
	SchemePool4 Scheme = "POOL4_QT"
	// SchemePool32 collapses each activation map to one value
	// (POOL_QT sigma=S).
	SchemePool32 Scheme = "POOL32_QT"
	// SchemeThreshold stores 1-bit indicators against the 99.5th
	// percentile (THRESHOLD_QT).
	SchemeThreshold Scheme = "THRESHOLD_QT"
)

// Config controls a System. Zero values select paper defaults.
type Config struct {
	// Store configures the column store; Mode and dedup switches select
	// the STORE_ALL / DEDUP behaviours of the evaluation, and RowBlockRows
	// is the RowBlock height every model is chunked at (default 1024, the
	// paper's 1K).
	Store colstore.Config
	// Gamma is the adaptive-materialization threshold in seconds/byte
	// (Eq. 5). Negative disables adaptive mode and materializes
	// everything at logging time (the paper's DEDUP/STORE_ALL setups).
	// Zero also materializes everything.
	Gamma float64
	// Cost holds calibrated cost-model constants; zero uses defaults.
	Cost cost.Params
	// SlowQueryThreshold, when positive, enables the slow-query log:
	// queries whose fetch wall time meets or exceeds the threshold append
	// a JSON line (model, intermediate, strategy, cost estimates, measured
	// seconds) to <dir>/slow_queries.jsonl, which rotates to
	// slow_queries.jsonl.1 past 4 MiB. Zero disables logging.
	SlowQueryThreshold time.Duration
}

// System is a MISTIQUE instance rooted at a directory.
type System struct {
	// mu guards the resident-model maps (pipelines, networks, logging)
	// and the mutable cost constants in cfg.Cost. Everything else in cfg
	// is immutable after Open; store and meta synchronize internally.
	mu    sync.RWMutex
	cfg   Config
	dir   string
	store *colstore.Store
	meta  *metadata.DB
	// nidx caches the lazy per-column diagnostic indexes in memory. Tests
	// set it to nil to get the full-scan twin of every indexed path.
	nidx *nindex.Manager

	// metrics is the system-wide observability registry (never nil); the
	// store and catalog register their instruments in the same registry at
	// Open, so System.Metrics() sees every layer.
	metrics *systemMetrics
	// slowMu guards the lazily opened slow-query log file and its
	// rotation bookkeeping.
	slowMu   sync.Mutex
	slowLog  *os.File
	slowSize int64
	// slowMax is the size past which the slow-query log rotates to
	// slow_queries.jsonl.1 (one generation kept): 4 MiB, which tests lower
	// after Open.
	slowMax int64

	// samples holds the per-intermediate reservoir samples behind the
	// approximate query path, resident and persisted (data/sample).
	// Samples are built at ingest for intermediates with more rows than
	// sampleCap (a sample that would hold every row adds nothing over the
	// store) and always for streaming ingest, capped at sampleCap rows:
	// sample.DefaultCap, which tests lower after Open.
	samples   *sample.Manager
	sampleCap int
	// streamMu guards the map of live streaming-ingest states; each state
	// has its own mutex for the ingest hot path.
	streamMu sync.Mutex
	streams  map[string]*streamState

	pipelines map[string]*pipelineModel
	networks  map[string]*dnnModel
	// logging holds model names with a Log* call in flight, so concurrent
	// logs of the same name fail fast instead of racing.
	logging map[string]struct{}
}

// pipelineModel is a logged pipeline. Its transformers were fitted when
// it was logged and re-runs write nothing, so any number of re-runs may
// execute at once.
type pipelineModel struct {
	p   *pipeline.Pipeline
	env map[string]*frame.Frame
	// stageOf maps intermediate name -> stage index.
	stageOf map[string]int
	// colsOf maps intermediate name -> numeric column names.
	colsOf map[string][]string
}

// dnnModel is a logged network: a private copy of the caller's weights,
// so training the caller's network afterwards cannot change what a
// re-run computes. Inference writes nothing, so re-runs need no lock.
type dnnModel struct {
	net   *nn.Network
	input *tensor.T4
	opts  DNNLogOptions
	// layerOf maps intermediate (layer) name -> layer index.
	layerOf map[string]int
}

// Open creates or reopens a System rooted at dir. Reopening a previously
// flushed directory restores the catalog and the stored chunks, so
// materialized intermediates are immediately readable; model re-runs
// (and thus the RERUN strategy and adaptive materialization) become
// available again once the corresponding pipelines/networks are re-logged
// — their fitted transformer state lives in memory, as in the paper.
func Open(dir string, cfg Config) (*System, error) {
	// Open owns this store setting; refuse a value it would replace.
	if cfg.Store.Obs != nil {
		return nil, errors.New("mistique: Config.Store.Obs must be nil: the store reports into System.Obs")
	}
	// Every artifact (partitions, catalog, samples, WALs) writes through
	// one fault-injectable FS.
	if cfg.Store.FS == nil {
		cfg.Store.FS = faultfs.OS()
	}
	if cfg.Cost == (cost.Params{}) {
		cfg.Cost = cost.DefaultParams()
	}
	metrics := newSystemMetrics()
	cfg.Store.Obs = metrics.reg
	st, err := colstore.Open(filepath.Join(dir, "data"), cfg.Store)
	if err != nil {
		return nil, fmt.Errorf("mistique: %w", err)
	}
	durable.SweepTemps(cfg.Store.FS, dir) // a crashed catalog save's metadata.json.tmp*
	meta := metadata.NewDB()
	metaPath := filepath.Join(dir, "metadata.json")
	if _, statErr := os.Stat(metaPath); statErr == nil {
		meta, err = metadata.Load(metaPath)
		if errors.Is(err, durable.ErrCorrupt) {
			// Fail soft, like the store does for its manifest: quarantine
			// the corrupt catalog and start fresh. Stored chunks survive in
			// the column store and become queryable again as models are
			// re-logged. A catalog that cannot be moved aside would be
			// re-read (and overwritten) later, so that fails the open.
			if err = durable.Quarantine(cfg.Store.FS, metaPath); err == nil {
				meta = metadata.NewDB()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("mistique: reopen catalog: %w", err)
		}
	}
	meta.SetFS(cfg.Store.FS)
	meta.SetObs(metrics.reg)
	// NewManager cannot fail: the index cache holds no files.
	nidx, _ := nindex.NewManager(nindex.ManagerConfig{Obs: metrics.reg})
	// Reservoir samples live next to the partitions (a subdirectory, so
	// the colstore recovery sweep skips them).
	samples, err := sample.NewManager(sample.ManagerConfig{
		Dir: filepath.Join(dir, "data", "sample"),
		FS:  cfg.Store.FS,
		Obs: metrics.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("mistique: open sample store: %w", err)
	}
	sys := &System{
		cfg:       cfg,
		dir:       dir,
		store:     st,
		meta:      meta,
		nidx:      nidx,
		metrics:   metrics,
		slowMax:   4 << 20,
		samples:   samples,
		sampleCap: sample.DefaultCap,
		streams:   make(map[string]*streamState),
		pipelines: make(map[string]*pipelineModel),
		networks:  make(map[string]*dnnModel),
		logging:   make(map[string]struct{}),
	}
	// Replay streaming-ingest WALs (data/wal): every batch acknowledged
	// before a crash is re-offered to the store and the sampler.
	if err := sys.replayStreams(); err != nil {
		return nil, fmt.Errorf("mistique: %w", err)
	}
	return sys, nil
}

// Metadata exposes the catalog (read-mostly; used by tools and tests).
func (s *System) Metadata() *metadata.DB { return s.meta }

// RecoveryReport returns what the store's Open-time recovery sweep had to
// repair (nil only before Open completes; Clean() reports a healthy start).
func (s *System) RecoveryReport() *colstore.RecoveryReport { return s.store.LastRecovery() }

// Store exposes the column store for stats and flushing.
func (s *System) Store() *colstore.Store { return s.store }

// Flush writes all dirty partitions to disk (concurrently, bounded by
// GOMAXPROCS) and persists the catalog. Streaming-ingest states drain
// first (their partial tail block goes to the store, so the catalog row
// counts saved below only ever cover durable rows), and their WALs shrink
// to the header afterwards — strictly after the partitions and the catalog
// are durable, so a crash at any point in between replays from the WAL
// instead of losing acknowledged rows.
func (s *System) Flush() error {
	sts := s.lockAllStreams()
	defer unlockStreams(sts)
	for _, st := range sts {
		if err := st.drainTailLocked(s); err != nil {
			return err
		}
	}
	if err := s.store.Flush(); err != nil {
		return err
	}
	if err := s.meta.Save(filepath.Join(s.dir, "metadata.json")); err != nil {
		return err
	}
	for _, st := range sts {
		if err := st.checkpointLocked(s); err != nil {
			return err
		}
	}
	return nil
}

// Close drains the System to disk: it flushes all dirty partitions,
// persists the catalog, and releases the slow-query log handle. It is a
// drain point, not a teardown — the System stays usable afterwards — so a
// server can Close on SIGTERM (guaranteeing no logged intermediates are
// lost) while in-process callers keep reading.
func (s *System) Close() error {
	err := s.Flush()
	s.slowMu.Lock()
	if s.slowLog != nil {
		if cerr := s.slowLog.Close(); err == nil {
			err = cerr
		}
		s.slowLog = nil
	}
	s.slowMu.Unlock()
	return err
}

// DiskBytes reports the on-disk footprint of stored intermediates.
func (s *System) DiskBytes() (int64, error) { return s.store.DiskBytes() }

// adaptiveOn reports whether adaptive materialization gates storage.
func (s *System) adaptiveOn() bool { return s.cfg.Gamma > 0 }

// beginLogging reserves a model name for an in-flight Log* call. It fails
// if the name is already resident or being logged.
func (s *System) beginLogging(name string, kind string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.pipelines[name]; dup {
		return fmt.Errorf("mistique: pipeline %q already logged", name)
	}
	if _, dup := s.networks[name]; dup {
		return fmt.Errorf("mistique: %s %q already logged", kind, name)
	}
	if _, dup := s.logging[name]; dup {
		return fmt.Errorf("mistique: %s %q is being logged concurrently", kind, name)
	}
	s.logging[name] = struct{}{}
	return nil
}

// endLogging releases the reservation, installing the finished model when
// pm or dm is non-nil.
func (s *System) endLogging(name string, pm *pipelineModel, dm *dnnModel) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.logging, name)
	if pm != nil {
		s.pipelines[name] = pm
	}
	if dm != nil {
		s.networks[name] = dm
	}
}

func (s *System) pipelineModelFor(name string) (*pipelineModel, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pm, ok := s.pipelines[name]
	return pm, ok
}

func (s *System) dnnModelFor(name string) (*dnnModel, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	dm, ok := s.networks[name]
	return dm, ok
}

// LogReport summarizes one logging run.
type LogReport struct {
	Model         string
	Seconds       float64
	Intermediates int
	ColumnsStored int64
	ColumnsDedup  int64
	// ColumnsDelta counts column chunks stored as delta generations
	// against the parent version (LogDNN's Parent option).
	ColumnsDelta int64
	StoredBytes  int64
	LogicalBytes int64
	// Skipped counts intermediates deferred by adaptive materialization.
	Skipped int
}

// colBufPool recycles the per-column float32 scratch of the ingest and
// read fan-out paths (at most one buffer per in-flight worker task; a
// pooled buffer is held only for the duration of one task).
var colBufPool sync.Pool

func grabColBuf() []float32 {
	if p, ok := colBufPool.Get().(*[]float32); ok {
		return (*p)[:0]
	}
	return nil
}

func releaseColBuf(b []float32) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	colBufPool.Put(&b)
}

// storeMatrix splits a matrix into RowBlock-sized column chunks and stores
// them under (model, interm). mkQuant supplies the value codec for each
// column (nil, or returning nil, means raw float32). Columns are fitted,
// encoded and dedup-hashed concurrently across the worker pool. Returns
// encoded bytes actually stored (after de-duplication).
//
// When the matrix has more rows than the reservoir cap, a sample is built
// alongside — over the *reconstructed* values (the codec
// applied and inverted), so approximate answers agree with what an exact
// READ of the stored chunks would return — and persisted for the
// approximate query path.
func (s *System) storeMatrix(model, interm string, m *tensor.Dense, cols []string, mkQuant func(col []float32) (*quant.Quantizer, error)) (int64, error) {
	blockRows := s.store.RowBlockRows()
	var mb *sample.MatrixBuilder
	if m.Rows > s.sampleCap {
		mb = sample.NewMatrixBuilder(cols, m.Rows, sample.Config{Cap: s.sampleCap})
	}
	var stored int64
	err := parallel.ForEach(len(cols), func(j int) error {
		col := m.ColInto(grabColBuf(), j)
		defer releaseColBuf(col)
		var q *quant.Quantizer
		if mkQuant != nil {
			t0 := time.Now()
			var err error
			q, err = mkQuant(col)
			if err != nil {
				return err
			}
			s.metrics.ingestQuantizeSeconds.ObserveSince(t0)
		}
		if mb != nil {
			rec := col
			if q != nil {
				rec = q.Apply(col)
			}
			mb.SetColumn(j, rec)
		}
		for b := 0; b*blockRows < len(col); b++ {
			lo := b * blockRows
			hi := min(lo+blockRows, len(col))
			key := colstore.ColumnKey{Model: model, Intermediate: interm, Column: cols[j], Block: b}
			res, err := s.store.PutColumn(key, col[lo:hi], q)
			if err != nil {
				return fmt.Errorf("mistique: store %s: %w", key, err)
			}
			atomic.AddInt64(&stored, res.EncodedBytes)
		}
		return nil
	})
	if err == nil && mb != nil {
		smp := mb.Finish()
		s.metrics.sampleBuilds.Inc()
		// Best effort: a failed persist only costs later sessions the
		// sample (they fall back to exact reads); this one keeps it resident.
		s.samples.Save(model, interm, smp)
	}
	return atomic.LoadInt64(&stored), err
}

// DropModel removes a model from the system: its catalog entries, its
// resident executor (pipeline or network), and its column mappings in the
// store. Chunks shared with other models survive; space held only by this
// model is reclaimed by CompactStore.
func (s *System) DropModel(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	interms := s.meta.IntermSnapshots(name)
	if !s.meta.DeleteModel(name) {
		return fmt.Errorf("mistique: %w %q", ErrUnknownModel, name)
	}
	delete(s.pipelines, name)
	delete(s.networks, name)
	s.store.DeleteModel(name)
	if s.nidx != nil {
		s.nidx.InvalidateModel(name)
	}
	for _, it := range interms {
		s.samples.Remove(name, it.Name)
	}
	s.dropStreams(name)
	return nil
}

// CompactStore rewrites partitions to drop chunks no longer referenced by
// any model and collapses over-deep delta chains, returning the reclaimed
// encoded bytes.
func (s *System) CompactStore() (int64, error) {
	_, reclaimed, err := s.store.Compact()
	return reclaimed, err
}

// CostParams returns the cost-model constants currently in effect.
func (s *System) CostParams() cost.Params {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cfg.Cost
}
