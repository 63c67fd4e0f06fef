package sample

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

// ManagerConfig wires a Manager.
type ManagerConfig struct {
	// Dir holds the MQSM files (created if absent).
	Dir string
	// FS is the write-side filesystem (OS() when nil); reads stay plain.
	FS faultfs.FS
	// Obs receives the manager's instruments (nil disables metrics).
	Obs *obs.Registry
}

// Manager owns the sample snapshots of every (model, intermediate): the
// resident copy queries read, and its checksummed MQSM file
// (durable.Publish), hash-named with the real identity stored — and
// verified — inside the file. A live stream keeps its reservoir itself
// and uses only the file half (Read, Publish).
type Manager struct {
	dir string
	fs  faultfs.FS
	// mu serializes file writes and the misses that read a file in, so a
	// Remove cannot race a Load into re-installing what it dropped.
	mu sync.Mutex
	// memMu guards resident, the snapshots in memory keyed model "\x00"
	// interm; a hit takes only this lock.
	memMu    sync.Mutex
	resident map[string]*Sample

	saves       *obs.Counter
	loads       *obs.Counter
	quarantines *obs.Counter
	publishErrs *obs.Counter
}

// NewManager creates the sample directory, sweeps the temp files a crashed
// Save left in it, and wires the instruments.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("sample: %w", err)
	}
	fs := cfg.FS
	if fs == nil {
		fs = faultfs.OS()
	}
	durable.SweepTemps(fs, cfg.Dir)
	r := cfg.Obs
	return &Manager{
		dir:         cfg.Dir,
		fs:          fs,
		resident:    make(map[string]*Sample),
		saves:       r.Counter("mistique_sample_saves_total", "Sample snapshots persisted to disk."),
		loads:       r.Counter("mistique_sample_loads_total", "Sample snapshots loaded from disk."),
		quarantines: r.Counter("mistique_sample_quarantined_total", "Corrupt sample files quarantined."),
		publishErrs: r.Counter("mistique_sample_publish_errors_total", "Sample persists that failed."),
	}, nil
}

func (m *Manager) path(model, interm string) string {
	h := fnv.New64a()
	h.Write([]byte(model))
	h.Write([]byte{0})
	h.Write([]byte(interm))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], h.Sum64())
	return filepath.Join(m.dir, fmt.Sprintf("smpl_%016x.mqsm", b))
}

func (m *Manager) install(model, interm string, s *Sample) {
	m.memMu.Lock()
	m.resident[model+"\x00"+interm] = s
	m.memMu.Unlock()
}

// Save persists a sample snapshot and installs it as the resident one.
// The snapshot is installed even when the publish fails: this process
// keeps answering from it, and an error means the previous on-disk
// snapshot (if any) is still intact — the publish is atomic.
func (m *Manager) Save(model, interm string, s *Sample) error {
	img := Encode(model, interm, s)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.install(model, interm, s)
	return m.publishLocked(model, interm, img)
}

// Publish persists a sample whose caller keeps the one in-memory copy
// itself (a live stream's reservoir), leaving none resident here.
func (m *Manager) Publish(model, interm string, s *Sample) error {
	img := Encode(model, interm, s)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.memMu.Lock()
	delete(m.resident, model+"\x00"+interm)
	m.memMu.Unlock()
	return m.publishLocked(model, interm, img)
}

func (m *Manager) publishLocked(model, interm string, img []byte) error {
	_, err := durable.Publish(m.fs, m.path(model, interm), func(w io.Writer) error {
		_, err := w.Write(img)
		return err
	})
	if err != nil {
		m.publishErrs.Inc()
		return fmt.Errorf("sample: persist %s/%s: %w", model, interm, err)
	}
	m.saves.Inc()
	return nil
}

// Load returns the resident sample for (model, interm), reading and
// installing the persisted one on a miss, or (nil, nil) when none exists.
// Callers must treat the returned sample as read-only.
func (m *Manager) Load(model, interm string) (*Sample, error) {
	key := model + "\x00" + interm
	m.memMu.Lock()
	s := m.resident[key]
	m.memMu.Unlock()
	if s != nil {
		return s, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.memMu.Lock()
	s = m.resident[key]
	m.memMu.Unlock()
	if s != nil {
		return s, nil
	}
	s, err := m.readLocked(model, interm)
	if s != nil {
		m.install(model, interm, s)
	}
	return s, err
}

// Read returns the persisted sample for (model, interm) without keeping
// it resident — the caller (a stream resuming its reservoir) holds the
// one copy — or (nil, nil) when none exists.
func (m *Manager) Read(model, interm string) (*Sample, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.readLocked(model, interm)
}

// readLocked decodes the persisted sample. A corrupt or mismatched file
// is quarantined and one from a newer binary is left in place; both read
// as absent: the sample is an accelerator, not a source of truth, and the
// caller falls back to exact reads. Caller holds m.mu.
func (m *Manager) readLocked(model, interm string) (*Sample, error) {
	path := m.path(model, interm)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sample: read %s: %w", path, err)
	}
	gotModel, gotInterm, s, err := Decode(data)
	if errors.Is(err, durable.ErrUnsupported) {
		return nil, nil
	}
	if err != nil || gotModel != model || gotInterm != interm {
		m.quarantines.Inc()
		if durable.Quarantine(m.fs, path) != nil {
			m.fs.Remove(path)
		}
		return nil, nil
	}
	m.loads.Inc()
	return s, nil
}

// Remove drops the sample for (model, interm), resident and persisted, if
// any.
func (m *Manager) Remove(model, interm string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.memMu.Lock()
	delete(m.resident, model+"\x00"+interm)
	m.memMu.Unlock()
	m.fs.Remove(m.path(model, interm))
}
