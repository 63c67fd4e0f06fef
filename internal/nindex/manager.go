package nindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"

	"mistique/internal/durable"
	"mistique/internal/faultfs"
	"mistique/internal/obs"
)

// Key names one indexed column.
type Key struct {
	Model        string
	Intermediate string
	Column       string
}

// fileKey is the unambiguous identity stamped into the persisted file
// (NUL-separated so "a/b"+"c" and "a"+"b/c" cannot collide).
func (k Key) fileKey() string {
	return k.Model + "\x00" + k.Intermediate + "\x00" + k.Column
}

func (k Key) String() string {
	return k.Model + "/" + k.Intermediate + "/" + k.Column
}

// Fetch loads a column's full values (and the RowBlock height) for an
// index build. It runs outside the manager's locks, so it may do store
// reads, heals, and retries.
type Fetch func() (values []float32, blockRows int, err error)

// ManagerConfig configures a Manager.
type ManagerConfig struct {
	// Dir is where index files live (created on demand).
	Dir string
	// FS is the write-side filesystem (faultfs.OS() when nil); reads use
	// plain os calls, mirroring the column store.
	FS faultfs.FS
	// MemBudgetBytes caps resident index bytes; least-recently-used
	// indexes are dropped from memory (their files remain, so the next
	// probe reloads instead of rebuilding). Default 64 MiB.
	MemBudgetBytes int64
	// Index holds the per-index build knobs.
	Index Config
	// Obs receives the manager's instruments (nil disables metrics).
	Obs *obs.Registry
}

// Manager owns the lazily-built per-column indexes: an in-memory LRU cache
// over persisted MQNI files. Every cached or loaded index is verified
// against the column's current physical signature — a mismatch (heal,
// re-log, compaction) triggers a rebuild; a corrupt file is quarantined
// and rebuilt. Publish failures are absorbed: the index still serves from
// memory and persists on a later build.
type Manager struct {
	cfg ManagerConfig
	fs  faultfs.FS

	mu      sync.Mutex
	entries map[Key]*entry
	bytes   int64
	clock   uint64

	builds      *obs.Counter
	hits        *obs.Counter
	partial     *obs.Counter
	rebuilds    *obs.Counter
	evictions   *obs.Counter
	quarantines *obs.Counter
	publishErrs *obs.Counter
	bytesGauge  *obs.Gauge
	buildHist   *obs.Histogram
	probeHist   *obs.Histogram
}

// entry is the cache slot of one column. buildMu serializes expensive
// work (disk load, fetch+build) per key; idx and lastUse are guarded by
// Manager.mu so probes and eviction never race.
type entry struct {
	buildMu sync.Mutex
	idx     *Index
	lastUse uint64
}

// NewManager creates the index directory, sweeps the temp files a crashed
// publish left in it, and wires the instruments.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.MemBudgetBytes <= 0 {
		cfg.MemBudgetBytes = 64 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("nindex: %w", err)
	}
	fs := cfg.FS
	if fs == nil {
		fs = faultfs.OS()
	}
	durable.SweepTemps(fs, cfg.Dir)
	r := cfg.Obs
	return &Manager{
		cfg:         cfg,
		fs:          fs,
		entries:     make(map[Key]*entry),
		builds:      r.Counter("mistique_index_builds_total", "Neuron index builds from column data."),
		hits:        r.Counter("mistique_index_hits_total", "Probes answered by a cached or loaded index."),
		partial:     r.Counter("mistique_index_partial_scans_total", "Probes that decoded only a subset of index segments."),
		rebuilds:    r.Counter("mistique_index_rebuilds_total", "Indexes rebuilt after a failed probe."),
		evictions:   r.Counter("mistique_index_evictions_total", "Indexes dropped from memory by the LRU budget."),
		quarantines: r.Counter("mistique_index_quarantined_total", "Corrupt index files quarantined."),
		publishErrs: r.Counter("mistique_index_publish_errors_total", "Best-effort index persists that failed."),
		bytesGauge:  r.Gauge("mistique_index_bytes", "Resident bytes across cached neuron indexes."),
		buildHist:   r.Histogram("mistique_index_build_seconds", "Neuron index build latency (fetch + construct)."),
		probeHist:   r.Histogram("mistique_index_probe_seconds", "Neuron index probe latency."),
	}, nil
}

// path returns the index file for a key: hash-named (keys hold arbitrary
// column strings, unfit for filenames), with the real key stored — and
// verified — inside the file.
func (m *Manager) path(key Key) string {
	h := fnv.New64a()
	h.Write([]byte(key.fileKey()))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], h.Sum64())
	return filepath.Join(m.cfg.Dir, fmt.Sprintf("nidx_%016x.mqni", b))
}

// Get returns the index for key at signature sig, from (in preference
// order) memory, disk, or a fresh build via fetch. Stale copies are
// discarded, corrupt files quarantined.
func (m *Manager) Get(key Key, sig uint32, fetch Fetch) (*Index, error) {
	e, idx := m.lookup(key, sig)
	if idx != nil {
		m.hits.Inc()
		return idx, nil
	}

	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	// A concurrent probe may have built while this one waited.
	if _, idx = m.lookup(key, sig); idx != nil {
		m.hits.Inc()
		return idx, nil
	}
	idx, foreign := m.loadFromDisk(key, sig)
	if idx != nil {
		m.hits.Inc()
		m.install(key, e, idx)
		return idx, nil
	}

	stop := m.buildHist.Time()
	values, blockRows, err := fetch()
	if err != nil {
		stop()
		return nil, err
	}
	idx = Build(values, blockRows, sig, m.cfg.Index)
	stop()
	m.builds.Inc()
	if !foreign {
		m.publish(key, idx)
	}
	m.install(key, e, idx)
	return idx, nil
}

// lookup get-or-creates the cache slot and returns the cached index when
// it matches sig (touching the LRU stamp). A cached index built against a
// different signature is dropped on the spot.
func (m *Manager) lookup(key Key, sig uint32) (*entry, *Index) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		e = &entry{}
		m.entries[key] = e
	}
	if e.idx != nil && e.idx.Sig() != sig {
		m.bytes -= e.idx.Bytes()
		e.idx = nil
		m.bytesGauge.Set(m.bytes)
	}
	if e.idx != nil {
		m.clock++
		e.lastUse = m.clock
		return e, e.idx
	}
	return e, nil
}

// install caches idx under key and enforces the memory budget by evicting
// the least-recently-used other entries (files remain on disk).
func (m *Manager) install(key Key, e *entry, idx *Index) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[key] != e {
		// An Invalidate raced this build and detached the slot (a heal
		// re-materialized the column mid-fetch, say). The caller still gets
		// idx for this probe, but caching it would leak its bytes out of
		// the eviction loop's reach — let the next probe rebuild cleanly.
		return
	}
	if e.idx != nil {
		m.bytes -= e.idx.Bytes()
	}
	e.idx = idx
	m.clock++
	e.lastUse = m.clock
	m.bytes += idx.Bytes()
	for m.bytes > m.cfg.MemBudgetBytes {
		var victim *entry
		for _, cand := range m.entries {
			if cand == e || cand.idx == nil {
				continue
			}
			if victim == nil || cand.lastUse < victim.lastUse {
				victim = cand
			}
		}
		if victim == nil {
			break // only the just-installed index is resident
		}
		m.bytes -= victim.idx.Bytes()
		victim.idx = nil
		m.evictions.Inc()
	}
	m.bytesGauge.Set(m.bytes)
}

// loadFromDisk reads and verifies the persisted index. Missing file or
// stale signature return nil (rebuild); a file that fails validation or
// names a different column is quarantined. foreign reports a file written
// by a newer binary: it stays in place, so the rebuild must not publish
// over it.
func (m *Manager) loadFromDisk(key Key, sig uint32) (idx *Index, foreign bool) {
	p := m.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	storedKey, idx, err := Decode(data)
	if errors.Is(err, durable.ErrUnsupported) {
		return nil, true
	}
	if err != nil || storedKey != key.fileKey() {
		m.quarantine(p)
		return nil, false
	}
	if idx.Sig() != sig {
		return nil, false
	}
	return idx, false
}

// quarantine moves a corrupt index file aside (removing it when even the
// rename fails) so it is never re-read, while keeping the evidence.
func (m *Manager) quarantine(p string) {
	m.quarantines.Inc()
	if err := durable.Quarantine(m.fs, p); err != nil {
		m.fs.Remove(p)
	}
}

// publish persists idx through durable.Publish. Failures are absorbed
// (counted): the in-memory index is authoritative and a later build
// retries the persist.
func (m *Manager) publish(key Key, idx *Index) {
	img := Encode(key.fileKey(), idx)
	_, err := durable.Publish(m.fs, m.path(key), func(w io.Writer) error {
		_, err := w.Write(img)
		return err
	})
	if err != nil {
		m.publishErrs.Inc()
	}
}

// Invalidate drops a column's index from memory and disk. Call after any
// operation that re-materializes the column (heal, re-log); even without
// it the signature check would reject the stale copy.
func (m *Manager) Invalidate(key Key) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		if e.idx != nil {
			m.bytes -= e.idx.Bytes()
			e.idx = nil
			m.bytesGauge.Set(m.bytes)
		}
		delete(m.entries, key)
	}
	m.mu.Unlock()
	m.fs.Remove(m.path(key))
}

// InvalidateModel drops every index of a model from memory, and sweeps the
// index directory for the model's files (best-effort hygiene — any file
// missed here is rejected later by its stale signature).
func (m *Manager) InvalidateModel(model string) {
	m.mu.Lock()
	for key, e := range m.entries {
		if key.Model != model {
			continue
		}
		if e.idx != nil {
			m.bytes -= e.idx.Bytes()
			e.idx = nil
		}
		delete(m.entries, key)
	}
	m.bytesGauge.Set(m.bytes)
	m.mu.Unlock()

	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return
	}
	prefix := model + "\x00"
	for _, de := range entries {
		if de.IsDir() || filepath.Ext(de.Name()) != ".mqni" {
			continue
		}
		p := filepath.Join(m.cfg.Dir, de.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		if storedKey, _, err := Decode(data); err == nil && len(storedKey) >= len(prefix) && storedKey[:len(prefix)] == prefix {
			m.fs.Remove(p)
		}
	}
}

// ResidentBytes reports the bytes of in-memory indexes (for tests).
func (m *Manager) ResidentBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// TopK probes the column's index for its k highest-activation rows,
// building the index on first use. A probe error (a corrupted index that
// slipped past the checksum) invalidates and rebuilds once.
func (m *Manager) TopK(key Key, sig uint32, k int, fetch Fetch) ([]Entry, error) {
	var out []Entry
	err := m.probe(key, sig, fetch, func(x *Index) (int, error) {
		entries, decoded, err := x.TopK(k)
		if err == nil {
			out = entries
		}
		if decoded < x.Segments() {
			m.partial.Inc()
		}
		return decoded, err
	})
	return out, err
}

// FilterRows probes the column's index for the rows matching `op bound`.
func (m *Manager) FilterRows(key Key, sig uint32, op Op, bound float32, fetch Fetch) ([]int, error) {
	var out []int
	err := m.probe(key, sig, fetch, func(x *Index) (int, error) {
		rows, decoded, err := x.FilterRows(op, bound)
		if err == nil {
			out = rows
		}
		if decoded < x.Segments() {
			m.partial.Inc()
		}
		return decoded, err
	})
	return out, err
}

func (m *Manager) probe(key Key, sig uint32, fetch Fetch, run func(*Index) (int, error)) error {
	defer m.probeHist.Time()()
	x, err := m.Get(key, sig, fetch)
	if err != nil {
		return err
	}
	if _, err = run(x); err == nil {
		return nil
	}
	// The index lied structurally: throw it away and rebuild from data.
	m.rebuilds.Inc()
	m.Invalidate(key)
	x, gerr := m.Get(key, sig, fetch)
	if gerr != nil {
		return gerr
	}
	if _, rerr := run(x); rerr != nil {
		return rerr
	}
	return nil
}
