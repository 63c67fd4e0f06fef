package cas

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"mistique/internal/durable"
	"mistique/internal/faultfs"
)

// Key is the SHA-256 of a chunk's payload: the chunk's identity and
// its address in the table.
type Key [32]byte

// KeyOf hashes a payload into its content address.
func KeyOf(data []byte) Key { return sha256.Sum256(data) }

func (k Key) String() string { return hex.EncodeToString(k[:8]) }

// ErrNotFound is returned for keys the table has never stored or has
// garbage-collected. Structural damage — a CRC mismatch, a truncated
// index, an offset pointing past a segment — is durable.ErrCorrupt:
// callers must treat the payload as unavailable, never as approximately
// right. An index or object file from a future format version is
// durable.ErrUnsupported and is left in place.
var ErrNotFound = errors.New("cas: chunk not found")

const (
	idxMagic   = "MQCI"
	idxVersion = 1
	indexName  = "INDEX.bin"

	maxChunkSize = 1 << 30
)

// entry is one chunk's row in the table. Until the first Flush the
// payload lives in data; afterwards it lives at (seg, off, size) in an
// immutable segment file, guarded by crc.
type entry struct {
	seg  int // -1 while pending in memory
	off  int64
	size int
	crc  uint32
	refs int
	data []byte
}

// TableStats is a point-in-time snapshot of table counters.
type TableStats struct {
	Chunks        int   // live entries, pending included
	PendingChunks int   // entries not yet flushed to a segment
	LiveBytes     int64 // logical bytes across live entries
	DiskBytes     int64 // bytes across published segment files
	Segments      int
	DedupHits     int64 // Put calls answered by an existing entry
	DedupBytes    int64 // payload bytes those hits avoided storing
	Flushes       int64
	GCChunks      int64 // entries dropped by GC over the table lifetime
	GCBytes       int64
}

// Table is a refcounted content-addressed chunk store backed by
// immutable segment files plus a CRC-enveloped index. Refcounts are
// in-memory only: the object layer re-derives them on open from its
// own manifest, which keeps the two files crash-consistent without a
// cross-file transaction.
type Table struct {
	dir string
	fs  faultfs.FS

	mu      sync.Mutex
	entries map[Key]*entry
	segs    map[int]int64 // segment id -> file size
	nextSeg int
	pending []Key // insertion order of unflushed entries
	dirty   bool  // membership changed since the last index publish
	stats   TableStats
}

// OpenTable opens (or creates) a chunk table in dir. A missing index
// means an empty table; a corrupt index fails with durable.ErrCorrupt rather
// than silently dropping chunks. Orphan temp files and segments the
// index does not reference — both produced only by crashes between
// publishes — are swept.
func OpenTable(dir string, fs faultfs.FS) (*Table, error) {
	if fs == nil {
		fs = faultfs.OS()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &Table{
		dir:     dir,
		fs:      fs,
		entries: map[Key]*entry{},
		segs:    map[int]int64{},
	}
	raw, err := os.ReadFile(filepath.Join(dir, indexName))
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return nil, err
	default:
		next, segs, entries, perr := parseIndex(raw)
		if perr != nil {
			return nil, fmt.Errorf("cas: index %s: %w", indexName, perr)
		}
		t.nextSeg, t.segs, t.entries = next, segs, entries
	}
	t.sweep()
	return t, nil
}

// sweep removes crash leftovers: temp files and segment files the
// index does not know about.
func (t *Table) sweep() {
	durable.SweepTemps(t.fs, t.dir)
	names, err := os.ReadDir(t.dir)
	if err != nil {
		return
	}
	for _, de := range names {
		var id int
		if n, _ := fmt.Sscanf(de.Name(), "seg_%08d.dat", &id); n == 1 {
			if _, ok := t.segs[id]; !ok {
				t.fs.Remove(filepath.Join(t.dir, de.Name()))
			}
		}
	}
}

func segName(id int) string { return fmt.Sprintf("seg_%08d.dat", id) }

// Put stores the payload (or bumps the refcount of the identical chunk
// already present) and returns its key. The payload is buffered in
// memory until Flush publishes a segment.
func (t *Table) Put(data []byte) Key {
	k := KeyOf(data)
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[k]; ok {
		e.refs++
		t.stats.DedupHits++
		t.stats.DedupBytes += int64(e.size)
		return k
	}
	t.entries[k] = &entry{seg: -1, size: len(data), crc: crc32.Checksum(data, durable.Castagnoli), refs: 1, data: append([]byte(nil), data...)}
	t.pending = append(t.pending, k)
	t.dirty = true
	return k
}

// Has reports whether the key is present (pending or flushed).
func (t *Table) Has(k Key) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.entries[k]
	return ok
}

// Refs returns the current reference count of the key (0 if absent).
func (t *Table) Refs(k Key) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[k]; ok {
		return e.refs
	}
	return 0
}

// AddRef bumps the refcount of an existing chunk; the object layer
// uses it to re-derive counts from its manifest on open.
func (t *Table) AddRef(k Key) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[k]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	e.refs++
	return nil
}

// Release drops one reference. Entries at zero references stay
// readable until the next GC pass reclaims them.
func (t *Table) Release(k Key) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[k]; ok && e.refs > 0 {
		e.refs--
	}
}

// Get returns the chunk payload. Flushed chunks are read back from
// their segment and CRC-verified: a bit flip yields durable.ErrCorrupt, never
// wrong bytes.
func (t *Table) Get(k Key) ([]byte, error) {
	t.mu.Lock()
	e, ok := t.entries[k]
	if !ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	if e.data != nil {
		out := append([]byte(nil), e.data...)
		t.mu.Unlock()
		return out, nil
	}
	seg, off, size, crc := e.seg, e.off, e.size, e.crc
	t.mu.Unlock()

	f, err := os.Open(filepath.Join(t.dir, segName(seg)))
	if err != nil {
		return nil, fmt.Errorf("%w: chunk %s: %v", durable.ErrCorrupt, k, err)
	}
	defer f.Close()
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("%w: chunk %s: %v", durable.ErrCorrupt, k, err)
	}
	if crc32.Checksum(buf, durable.Castagnoli) != crc {
		return nil, fmt.Errorf("%w: chunk %s: crc mismatch", durable.ErrCorrupt, k)
	}
	return buf, nil
}

// Flush publishes pending chunks into a new immutable segment and then
// rewrites the index, each through durable.Publish. A crash at any
// syscall leaves either the previous durable state or the new one.
func (t *Table) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

func (t *Table) flushLocked() error {
	if len(t.pending) > 0 {
		id := t.nextSeg
		var segSize int64
		offs := make(map[Key]int64, len(t.pending))
		_, err := durable.Publish(t.fs, filepath.Join(t.dir, segName(id)), func(w io.Writer) error {
			for _, k := range t.pending {
				e := t.entries[k]
				offs[k] = segSize
				if _, err := w.Write(e.data); err != nil {
					return err
				}
				segSize += int64(e.size)
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, k := range t.pending {
			e := t.entries[k]
			e.seg, e.off, e.data = id, offs[k], nil
		}
		t.pending = t.pending[:0]
		t.segs[id] = segSize
		t.nextSeg = id + 1
		t.stats.Flushes++
	}
	if !t.dirty {
		return nil
	}
	if err := t.writeIndexLocked(); err != nil {
		return err
	}
	t.dirty = false
	return nil
}

func (t *Table) writeIndexLocked() error {
	_, err := durable.Publish(t.fs, filepath.Join(t.dir, indexName), func(w io.Writer) error {
		_, err := w.Write(t.marshalIndexLocked())
		return err
	})
	return err
}

func (t *Table) marshalIndexLocked() []byte {
	var flushed []Key
	for k, e := range t.entries {
		if e.seg >= 0 {
			flushed = append(flushed, k)
		}
	}
	sort.Slice(flushed, func(i, j int) bool {
		a, b := t.entries[flushed[i]], t.entries[flushed[j]]
		if a.seg != b.seg {
			return a.seg < b.seg
		}
		return a.off < b.off
	})
	segIDs := make([]int, 0, len(t.segs))
	for id := range t.segs {
		segIDs = append(segIDs, id)
	}
	sort.Ints(segIDs)

	buf := make([]byte, 0, 16+12*len(segIDs)+52*len(flushed))
	buf = append(buf, idxMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, idxVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.nextSeg))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(segIDs)))
	for _, id := range segIDs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.segs[id]))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(flushed)))
	for _, k := range flushed {
		e := t.entries[k]
		buf = append(buf, k[:]...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.seg))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.off))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.size))
		buf = binary.LittleEndian.AppendUint32(buf, e.crc)
	}
	return durable.Seal(buf)
}

// parseIndex decodes an index image. It is a pure function so hostile
// inputs can be fuzzed directly; every malformation returns
// durable.ErrCorrupt (or durable.ErrUnsupported for future versions),
// never a panic and never a partially-believed table.
func parseIndex(raw []byte) (nextSeg int, segs map[int]int64, entries map[Key]*entry, err error) {
	_, r, err := durable.Open(raw, idxMagic, 2, idxVersion)
	if err != nil {
		return 0, nil, nil, err
	}
	nextSeg = int(r.U32())
	nSegs := r.Fit(uint64(r.U32()), 12)
	segs = make(map[int]int64, nSegs)
	for i := 0; i < nSegs; i++ {
		id := int(r.U32())
		size := int64(r.U64())
		if id >= nextSeg || size < 0 {
			r.Failf("segment %d out of range", id)
		}
		if _, dup := segs[id]; dup {
			r.Failf("duplicate segment %d", id)
		}
		segs[id] = size
	}
	nChunks := r.Fit(uint64(r.U32()), 52)
	entries = make(map[Key]*entry, nChunks)
	for i := 0; i < nChunks; i++ {
		var k Key
		copy(k[:], r.Bytes(32))
		e := &entry{seg: int(r.U32()), off: int64(r.U64()), size: int(r.U32()), crc: r.U32()}
		segSize, ok := segs[e.seg]
		if !ok || e.off < 0 || e.size > maxChunkSize || e.off+int64(e.size) > segSize {
			r.Failf("chunk %s outside its segment", k)
		}
		if _, dup := entries[k]; dup {
			r.Failf("duplicate chunk key %s", k)
		}
		entries[k] = e
	}
	if err := r.End(); err != nil {
		return 0, nil, nil, err
	}
	return nextSeg, segs, entries, nil
}

// GC reclaims zero-reference entries and compacts segments whose live
// fraction fell below half: live chunks are rewritten into a fresh
// segment, the index is republished, and only then are dead segment
// files removed — a crash mid-GC leaves every referenced chunk intact.
func (t *Table) GC() (droppedChunks int, reclaimedBytes int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()

	for k, e := range t.entries {
		if e.refs == 0 {
			droppedChunks++
			reclaimedBytes += int64(e.size)
			if e.seg < 0 {
				// Still pending: drop it from the unflushed queue too.
				for i, pk := range t.pending {
					if pk == k {
						t.pending = append(t.pending[:i], t.pending[i+1:]...)
						break
					}
				}
			}
			delete(t.entries, k)
			t.dirty = true
		}
	}
	t.stats.GCChunks += int64(droppedChunks)
	t.stats.GCBytes += reclaimedBytes

	live := map[int]int64{}
	for _, e := range t.entries {
		if e.seg >= 0 {
			live[e.seg] += int64(e.size)
		}
	}
	var dead []int
	for id, size := range t.segs {
		switch {
		case live[id] == 0:
			dead = append(dead, id)
		case live[id]*2 < size:
			// Mostly-dead segment: migrate its live chunks back to the
			// pending queue so the flush below rewrites them compactly.
			for k, e := range t.entries {
				if e.seg != id {
					continue
				}
				data, gerr := t.getPayloadLocked(e)
				if gerr != nil {
					return droppedChunks, reclaimedBytes, gerr
				}
				e.seg, e.off, e.data = -1, 0, data
				t.pending = append(t.pending, k)
			}
			dead = append(dead, id)
		}
	}
	if len(dead) == 0 && !t.dirty {
		return droppedChunks, reclaimedBytes, nil
	}
	for _, id := range dead {
		delete(t.segs, id)
	}
	t.dirty = true
	if err := t.flushLocked(); err != nil {
		return droppedChunks, reclaimedBytes, err
	}
	for _, id := range dead {
		t.fs.Remove(filepath.Join(t.dir, segName(id)))
	}
	return droppedChunks, reclaimedBytes, nil
}

func (t *Table) getPayloadLocked(e *entry) ([]byte, error) {
	if e.data != nil {
		return append([]byte(nil), e.data...), nil
	}
	f, err := os.Open(filepath.Join(t.dir, segName(e.seg)))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", durable.ErrCorrupt, err)
	}
	defer f.Close()
	buf := make([]byte, e.size)
	if _, err := f.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("%w: %v", durable.ErrCorrupt, err)
	}
	if crc32.Checksum(buf, durable.Castagnoli) != e.crc {
		return nil, fmt.Errorf("%w: crc mismatch", durable.ErrCorrupt)
	}
	return buf, nil
}

// Stats returns a snapshot of the table counters.
func (t *Table) Stats() TableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	s.Chunks = len(t.entries)
	s.PendingChunks = len(t.pending)
	s.Segments = len(t.segs)
	for _, e := range t.entries {
		s.LiveBytes += int64(e.size)
	}
	for _, size := range t.segs {
		s.DiskBytes += size
	}
	return s
}
