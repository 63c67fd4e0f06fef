// Package metadata implements MISTIQUE's MetadataDB: the central catalog
// that ties the PipelineExecutor, DataStore and ChunkReader together. It
// records every logged model, the intermediates each produced, where their
// columns live, per-stage execution timings used by the cost model, and the
// per-intermediate query counters that drive adaptive materialization.
package metadata

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"

	"mistique/internal/durable"
	"mistique/internal/faultfs"
	"mistique/internal/obs"
)

// ModelKind distinguishes the two model classes the paper supports.
type ModelKind string

const (
	// TRAD is a traditional ML pipeline with explicit stages.
	TRAD ModelKind = "trad"
	// DNN is a deep neural network whose layers produce intermediates.
	DNN ModelKind = "dnn"
	// Stream is a live ingest source: a training job pushing batches over
	// the HTTP API. Stream models have no stages and cannot be re-run —
	// the cost model's RERUN strategy is unavailable for them.
	Stream ModelKind = "stream"
)

// Stage describes one pipeline stage or network layer, including the
// measurements the query cost model needs (Sec. 5.1).
type Stage struct {
	Name  string `json:"name"`
	Index int    `json:"index"`
	// ExecSeconds is the measured wall time to execute this stage (one
	// full pass over TotalExamples; for DNNs this is per-layer forward
	// time at the calibration batch size).
	ExecSeconds float64 `json:"exec_seconds"`
	// OutputColumns is the width of the produced intermediate.
	OutputColumns int `json:"output_columns"`
	// OutputBytesPerRow is the materialized size of one example of this
	// stage's output under the configured storage scheme.
	OutputBytesPerRow int64 `json:"output_bytes_per_row"`
}

// Model is one logged model (pipeline or network).
type Model struct {
	Name string    `json:"name"`
	Kind ModelKind `json:"kind"`
	// Parent names the model version this one was logged as a delta
	// against (LogDNN's Parent option): the previous checkpoint of the
	// same training run. Empty for root versions. The catalog's lineage
	// view walks this chain.
	Parent        string    `json:"parent,omitempty"`
	TotalExamples int       `json:"total_examples"`
	ModelLoadSecs float64   `json:"model_load_secs"`
	Stages        []Stage   `json:"stages"`
	Intermediates []*Interm `json:"intermediates"`
	byName        map[string]*Interm
}

// Interm is the catalog entry for one intermediate.
type Interm struct {
	Name       string   `json:"name"`
	StageIndex int      `json:"stage_index"`
	Columns    []string `json:"columns"`
	Rows       int      `json:"rows"`
	Blocks     int      `json:"blocks"`
	// Materialized is true once the intermediate's chunks are in the
	// DataStore.
	Materialized bool `json:"materialized"`
	// QuantScheme names the storage scheme used (FULL, LP_QT, ...).
	QuantScheme string `json:"quant_scheme"`
	// StoredBytes is the encoded (pre-compression) footprint.
	StoredBytes int64 `json:"stored_bytes"`
	// QueryCount is n_query(i) in the storage cost model.
	QueryCount int64 `json:"query_count"`
}

// DB is the metadata database. Safe for concurrent use.
type DB struct {
	mu     sync.RWMutex
	models map[string]*Model
	fs     faultfs.FS
	// Catalog instruments (nil-safe no-ops until SetObs is called).
	obsQueries     *obs.Counter
	obsSaveSeconds *obs.Histogram
}

// NewDB creates an empty catalog.
func NewDB() *DB { return &DB{models: make(map[string]*Model), fs: faultfs.OS()} }

// SetFS overrides the filesystem Save writes through (fault-injection
// tests substitute a faultfs.Injector). Call before sharing the DB.
func (db *DB) SetFS(fs faultfs.FS) {
	if fs != nil {
		db.fs = fs
	}
}

// SetObs registers the catalog's instruments (query counter, Save
// latency) with the given registry. Call before sharing the DB; a nil
// registry leaves instrumentation disabled.
func (db *DB) SetObs(reg *obs.Registry) {
	db.obsQueries = reg.Counter("mistique_catalog_queries_total", "RecordQuery calls (n_query bumps) across all intermediates")
	db.obsSaveSeconds = reg.Histogram("mistique_catalog_save_seconds", "catalog Save (marshal+write+fsync+rename) time")
}

// RegisterModel adds a model; replacing an existing name is an error.
func (db *DB) RegisterModel(m *Model) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.models[m.Name]; dup {
		return fmt.Errorf("metadata: model %q already registered", m.Name)
	}
	if m.byName == nil {
		m.byName = make(map[string]*Interm, len(m.Intermediates))
		for _, it := range m.Intermediates {
			m.byName[it.Name] = it
		}
	}
	db.models[m.Name] = m
	return nil
}

// Model returns the named model or nil.
func (db *DB) Model(name string) *Model {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.models[name]
}

// Models returns all model names, sorted.
func (db *DB) Models() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.models))
	for n := range db.models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AddIntermediate registers an intermediate under a model.
func (db *DB) AddIntermediate(model string, it *Interm) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	m, ok := db.models[model]
	if !ok {
		return fmt.Errorf("metadata: unknown model %q", model)
	}
	if _, dup := m.byName[it.Name]; dup {
		return fmt.Errorf("metadata: intermediate %s.%s already registered", model, it.Name)
	}
	m.Intermediates = append(m.Intermediates, it)
	m.byName[it.Name] = it
	return nil
}

// Intermediate returns the catalog entry or nil. The returned pointer is
// shared with the catalog; prefer IntermSnapshot when reading fields that
// concurrent RecordQuery/SetMaterialized calls may update.
func (db *DB) Intermediate(model, name string) *Interm {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if m := db.models[model]; m != nil {
		return m.byName[name]
	}
	return nil
}

// IntermSnapshot returns a copy of the catalog entry, safe to read without
// holding the DB lock. The Columns slice is shared but never mutated in
// place after registration.
func (db *DB) IntermSnapshot(model, name string) (Interm, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if m := db.models[model]; m != nil {
		if it := m.byName[name]; it != nil {
			return *it, true
		}
	}
	return Interm{}, false
}

// IntermSnapshots returns copies of every catalog entry of a model (nil if
// the model is unknown), safe to iterate without holding the DB lock.
func (db *DB) IntermSnapshots(model string) []Interm {
	db.mu.RLock()
	defer db.mu.RUnlock()
	m := db.models[model]
	if m == nil {
		return nil
	}
	out := make([]Interm, len(m.Intermediates))
	for i, it := range m.Intermediates {
		out[i] = *it
	}
	return out
}

// RecordQuery bumps the query counter for an intermediate and returns the
// new count. Unknown intermediates are counted too (the storage cost model
// needs n_query for not-yet-materialized intermediates), so the entry is
// created lazily with Materialized=false.
func (db *DB) RecordQuery(model, name string) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	m, ok := db.models[model]
	if !ok {
		return 0, fmt.Errorf("metadata: unknown model %q", model)
	}
	it, ok := m.byName[name]
	if !ok {
		it = &Interm{Name: name}
		m.Intermediates = append(m.Intermediates, it)
		m.byName[name] = it
	}
	it.QueryCount++
	db.obsQueries.Inc()
	return it.QueryCount, nil
}

// AddStreamRows advances a streaming intermediate's catalog shape after
// the flush pipeline drains WAL rows into partitions: rows/blocks move
// forward monotonically (replay may re-offer already-counted rows) and
// the stored footprint grows by deltaBytes. The entry is marked
// materialized on first growth.
func (db *DB) AddStreamRows(model, name string, rows, blocks int, deltaBytes int64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	m, ok := db.models[model]
	if !ok {
		return fmt.Errorf("metadata: unknown model %q", model)
	}
	it, ok := m.byName[name]
	if !ok {
		return fmt.Errorf("metadata: unknown intermediate %s.%s", model, name)
	}
	if rows > it.Rows {
		it.Rows = rows
	}
	if blocks > it.Blocks {
		it.Blocks = blocks
	}
	if deltaBytes > 0 {
		it.StoredBytes += deltaBytes
	}
	it.Materialized = it.Rows > 0
	return nil
}

// SetMaterialized updates materialization state and footprint.
func (db *DB) SetMaterialized(model, name string, bytes int64, scheme string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	m, ok := db.models[model]
	if !ok {
		return fmt.Errorf("metadata: unknown model %q", model)
	}
	it, ok := m.byName[name]
	if !ok {
		return fmt.Errorf("metadata: unknown intermediate %s.%s", model, name)
	}
	it.Materialized = true
	it.StoredBytes = bytes
	it.QuantScheme = scheme
	return nil
}

// SetUnmaterialized reverts an intermediate to the not-stored state. The
// engine's recovery path uses it when re-materialization after a
// quarantine fails, so the cost model stops choosing READ for chunks that
// are no longer there.
func (db *DB) SetUnmaterialized(model, name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	m, ok := db.models[model]
	if !ok {
		return fmt.Errorf("metadata: unknown model %q", model)
	}
	it, ok := m.byName[name]
	if !ok {
		return fmt.Errorf("metadata: unknown intermediate %s.%s", model, name)
	}
	it.Materialized = false
	it.StoredBytes = 0
	return nil
}

// envelope is the on-disk frame of the catalog: the models payload plus a
// CRC32-C over its exact bytes, validated on load so a torn or bit-rotted
// file is detected instead of silently mis-parsed into a wrong catalog.
// Format 0 (absent) is the pre-checksum layout, accepted for migration.
type envelope struct {
	Format int             `json:"format,omitempty"`
	CRC32C uint32          `json:"crc32c,omitempty"`
	Models json.RawMessage `json:"models"`
}

const envelopeFormat = 1

// Save writes the catalog to a JSON file, atomically and durably
// (durable.Publish), with a CRC32-C checksum over the models payload in
// the envelope. Marshaling happens under the read lock: concurrent
// RecordQuery/SetMaterialized calls mutate Interm fields in place, and
// serializing unlocked would race with them.
func (db *DB) Save(path string) error {
	defer db.obsSaveSeconds.Time()()
	db.mu.RLock()
	models := make([]*Model, 0, len(db.models))
	for _, m := range db.models {
		models = append(models, m)
	}
	sort.Slice(models, func(i, j int) bool { return models[i].Name < models[j].Name })
	payload, err := json.Marshal(models)
	db.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("metadata: marshal: %w", err)
	}
	env := envelope{Format: envelopeFormat, CRC32C: crc32.Checksum(payload, durable.Castagnoli), Models: payload}
	blob, err := json.Marshal(&env)
	if err != nil {
		return fmt.Errorf("metadata: marshal envelope: %w", err)
	}
	_, err = durable.Publish(db.fs, path, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
	if err != nil {
		return fmt.Errorf("metadata: save %s: %w", path, err)
	}
	return nil
}

// Load reads a catalog previously written by Save, validating the
// envelope checksum. Decode and checksum failures wrap durable.ErrCorrupt
// (the file exists but cannot be trusted, as distinct from an IO error
// reading it, which is returned as-is); an envelope format newer than this
// binary writes is durable.ErrUnsupported.
func Load(path string) (*DB, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("metadata: read %s: %w", path, err)
	}
	var env envelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return nil, fmt.Errorf("%w: parse %s: %v", durable.ErrCorrupt, path, err)
	}
	if env.Format > envelopeFormat {
		return nil, fmt.Errorf("metadata: %s: %w: envelope format %d, newest known %d", path, durable.ErrUnsupported, env.Format, envelopeFormat)
	}
	if env.Format == envelopeFormat {
		// json.RawMessage preserves the value bytes as written, modulo
		// surrounding whitespace; compact to the canonical form Save
		// checksummed.
		var compact bytes.Buffer
		if err := json.Compact(&compact, env.Models); err != nil {
			return nil, fmt.Errorf("%w: payload %s: %v", durable.ErrCorrupt, path, err)
		}
		if got := crc32.Checksum(compact.Bytes(), durable.Castagnoli); got != env.CRC32C {
			return nil, fmt.Errorf("%w: %s checksum mismatch (envelope %08x, payload %08x)", durable.ErrCorrupt, path, env.CRC32C, got)
		}
	}
	var models []*Model
	if err := json.Unmarshal(env.Models, &models); err != nil {
		return nil, fmt.Errorf("%w: parse models %s: %v", durable.ErrCorrupt, path, err)
	}
	db := NewDB()
	for _, m := range models {
		if err := db.RegisterModel(m); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// DeleteModel removes a model and its intermediates from the catalog.
// Returns false if the model was not registered.
func (db *DB) DeleteModel(name string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.models[name]; !ok {
		return false
	}
	delete(db.models, name)
	return true
}
