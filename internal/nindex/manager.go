package nindex

import (
	"sync"

	"mistique/internal/obs"
)

// Key names one indexed column.
type Key struct {
	Model        string
	Intermediate string
	Column       string
}

func (k Key) String() string {
	return k.Model + "/" + k.Intermediate + "/" + k.Column
}

// Fetch loads a column's full values for an index build. It runs outside
// the manager's locks, so it may do store reads, heals, and retries. The
// blockRows result (the RowBlock height) is not used.
type Fetch func() (values []float32, blockRows int, err error)

// ManagerConfig configures a Manager.
type ManagerConfig struct {
	// Dir is ignored: indexes live in memory only. The field stays because
	// the benchmark harness (bench/surface.go) still sets it.
	Dir string
	// MemBudgetBytes caps resident index bytes; least-recently-used
	// indexes are dropped and rebuilt on their next probe. Default 64 MiB.
	MemBudgetBytes int64
	// Index holds the per-index build knobs.
	Index Config
	// Obs receives the manager's instruments (nil disables metrics).
	Obs *obs.Registry
}

// Manager owns the lazily built per-column indexes: a memory-only LRU
// cache. Every cached index is verified against the column's current
// physical signature — a mismatch (heal, re-log, compaction) triggers a
// rebuild. An evicted index loses its slot too, so the slot map holds the
// resident indexes and the builds in flight, not every column ever probed.
type Manager struct {
	cfg ManagerConfig

	mu      sync.Mutex
	entries map[Key]*entry
	bytes   int64
	clock   uint64

	builds     *obs.Counter
	hits       *obs.Counter
	partial    *obs.Counter
	evictions  *obs.Counter
	bytesGauge *obs.Gauge
	buildHist  *obs.Histogram
	probeHist  *obs.Histogram
}

// entry is the cache slot of one column. buildMu serializes the expensive
// fetch+build per key; idx and lastUse are guarded by Manager.mu so probes
// and eviction never race.
type entry struct {
	buildMu sync.Mutex
	idx     *Index
	lastUse uint64
}

// NewManager wires the instruments. It never fails; the error result is
// kept for its callers.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.MemBudgetBytes <= 0 {
		cfg.MemBudgetBytes = 64 << 20
	}
	r := cfg.Obs
	return &Manager{
		cfg:        cfg,
		entries:    make(map[Key]*entry),
		builds:     r.Counter("mistique_index_builds_total", "Neuron index builds from column data."),
		hits:       r.Counter("mistique_index_hits_total", "Probes answered by a cached index."),
		partial:    r.Counter("mistique_index_partial_scans_total", "Probes that decoded only a subset of index segments."),
		evictions:  r.Counter("mistique_index_evictions_total", "Indexes dropped from memory by the LRU budget."),
		bytesGauge: r.Gauge("mistique_index_bytes", "Resident bytes across cached neuron indexes."),
		buildHist:  r.Histogram("mistique_index_build_seconds", "Neuron index build latency (fetch + construct)."),
		probeHist:  r.Histogram("mistique_index_probe_seconds", "Neuron index probe latency."),
	}, nil
}

// Get returns the index for key at signature sig, from memory or a fresh
// build via fetch. A stale cached copy is discarded.
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

	stop := m.buildHist.Time()
	values, _, err := fetch()
	if err != nil {
		stop()
		return nil, err
	}
	idx = Build(values, sig, m.cfg.Index)
	stop()
	m.builds.Inc()
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
// the least-recently-used other indexes, slot and all.
func (m *Manager) install(key Key, e *entry, idx *Index) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[key] != e {
		// An Invalidate or an eviction raced this build and detached the
		// slot (a heal re-materialized the column mid-fetch, say). The
		// caller still gets idx for this probe, but caching it would leak
		// its bytes out of the eviction loop's reach — let the next probe
		// rebuild cleanly.
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
		var victimKey Key
		var victim *entry
		for k, cand := range m.entries {
			if cand == e || cand.idx == nil {
				continue
			}
			if victim == nil || cand.lastUse < victim.lastUse {
				victimKey, victim = k, cand
			}
		}
		if victim == nil {
			break // only the just-installed index is resident
		}
		m.dropLocked(victimKey, victim)
		m.evictions.Inc()
	}
	m.bytesGauge.Set(m.bytes)
}

// dropLocked forgets key's slot and its resident bytes; m.mu must be held.
func (m *Manager) dropLocked(key Key, e *entry) {
	if e.idx != nil {
		m.bytes -= e.idx.Bytes()
	}
	delete(m.entries, key)
}

// Invalidate drops a column's index. Call after any operation that
// re-materializes the column (heal, re-log); even without it the signature
// check would reject the stale copy.
func (m *Manager) Invalidate(key Key) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key]; ok {
		m.dropLocked(key, e)
		m.bytesGauge.Set(m.bytes)
	}
}

// InvalidateModel drops every index of a model.
func (m *Manager) InvalidateModel(model string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key, e := range m.entries {
		if key.Model == model {
			m.dropLocked(key, e)
		}
	}
	m.bytesGauge.Set(m.bytes)
}

// ResidentBytes reports the bytes of in-memory indexes (for tests).
func (m *Manager) ResidentBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// TopK probes the column's index for its k highest-activation rows,
// building the index on first use.
func (m *Manager) TopK(key Key, sig uint32, k int, fetch Fetch) ([]Entry, error) {
	var out []Entry
	err := m.probe(key, sig, fetch, func(x *Index) error {
		entries, decoded, err := x.TopK(k)
		out = entries
		if decoded < x.Segments() {
			m.partial.Inc()
		}
		return err
	})
	return out, err
}

// FilterRows probes the column's index for the rows matching `op bound`.
func (m *Manager) FilterRows(key Key, sig uint32, op Op, bound float32, fetch Fetch) ([]int, error) {
	var out []int
	err := m.probe(key, sig, fetch, func(x *Index) error {
		rows, decoded, err := x.FilterRows(op, bound)
		out = rows
		if decoded < x.Segments() {
			m.partial.Inc()
		}
		return err
	})
	return out, err
}

// probe runs one probe against the column's index. A probe error is
// returned as is: the caller's full scan is the recovery.
func (m *Manager) probe(key Key, sig uint32, fetch Fetch, run func(*Index) error) error {
	defer m.probeHist.Time()()
	x, err := m.Get(key, sig, fetch)
	if err != nil {
		return err
	}
	return run(x)
}
