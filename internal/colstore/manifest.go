package colstore

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"mistique/internal/codec"
	"mistique/internal/durable"
)

// The manifest persists the store's logical state — the column→chunk map
// and per-partition bookkeeping — so a store directory can be reopened and
// served without re-logging. Partition payloads stay in their own files;
// the manifest is small and rewritten atomically and durably
// (durable.Publish) on every Flush. A monotonically
// increasing generation number stamps each write, so recovery and tests
// can tell which logical state survived a crash.

const (
	manifestName    = "MANIFEST.json.gz"
	manifestVersion = 2
)

// manifestBufPool recycles the scratch buffer the manifest is compressed
// into before the atomic file write.
var manifestBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

type manifestColumn struct {
	Key   ColumnKey `json:"key"`
	Chunk ChunkID   `json:"chunk"`
}

type manifestPartition struct {
	ID     int64 `json:"id"`
	Chunks int   `json:"chunks"`
	Bytes  int64 `json:"bytes"`
	Sealed bool  `json:"sealed"`
	// Raw is the uncompressed partition-image size, used to presize the
	// decode arena on page-in (omitted by older manifests; 0 = unknown).
	Raw int64 `json:"raw,omitempty"`
	// Gen is the partition's file generation (compaction bumps it).
	Gen int `json:"gen,omitempty"`
	// Lost records a quarantined partition so reopening keeps answering
	// ErrUnavailable (and the rerun fallback) for its chunks.
	Lost bool `json:"lost,omitempty"`
}

// manifestDelta records one delta-generation chunk's chain link. Persisted
// so a reopened store knows every chain's shape without paging partitions
// in: recovery propagates lost bases to their dependents, and the cost
// model charges chain reads their amplification, both from this registry.
type manifestDelta struct {
	Chunk ChunkID `json:"chunk"`
	Base  ChunkID `json:"base"`
	Depth int     `json:"depth"`
}

type manifest struct {
	Version    int                 `json:"version"`
	Generation int64               `json:"generation,omitempty"`
	NextPart   int64               `json:"next_partition"`
	Columns    []manifestColumn    `json:"columns"`
	Partitions []manifestPartition `json:"partitions"`
	Deltas     []manifestDelta     `json:"deltas,omitempty"`
	Stats      Stats               `json:"stats"`
}

// writeManifestLocked persists the logical state through durable.Publish,
// so concurrent stores or a crash can never interleave or tear the
// published file. Caller holds s.mu.
func (s *Store) writeManifestLocked() error {
	s.generation++
	m := manifest{Version: manifestVersion, Generation: s.generation, NextPart: s.nextPart, Stats: s.stats}
	for k, id := range s.columns {
		m.Columns = append(m.Columns, manifestColumn{Key: k, Chunk: id})
	}
	for id, d := range s.deltas {
		m.Deltas = append(m.Deltas, manifestDelta{Chunk: id, Base: d.Base, Depth: d.Depth})
	}
	for _, p := range s.parts {
		m.Partitions = append(m.Partitions, manifestPartition{
			ID:     p.id,
			Chunks: len(p.chunks),
			Bytes:  p.bytes,
			Sealed: p.sealed,
			Raw:    p.raw,
			Gen:    p.gen,
			Lost:   p.lost,
		})
	}
	blob, err := json.Marshal(&m)
	if err != nil {
		return fmt.Errorf("colstore: marshal manifest: %w", err)
	}
	buf := manifestBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer manifestBufPool.Put(buf)
	// The manifest is small and rewritten on every flush: compress it at
	// BestSpeed through the shared pooled writers (the level only affects
	// the file on disk, readers are level-agnostic).
	zw, err := codec.GrabGzipWriter(buf, gzip.BestSpeed)
	if err != nil {
		return fmt.Errorf("colstore: compress manifest: %w", err)
	}
	_, werr := zw.Write(blob)
	cerr := zw.Close()
	codec.ReleaseGzipWriter(zw, gzip.BestSpeed)
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("colstore: compress manifest: %w", werr)
	}
	n, err := durable.Publish(s.fs, filepath.Join(s.dir, manifestName), func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	})
	s.stats.FsyncCount += int64(n)
	if err != nil {
		return fmt.Errorf("colstore: write manifest: %w", err)
	}
	return nil
}

// loadManifest restores logical state from a previous session, if present.
// Partitions come back payload-free (sealed, on disk) and are paged in on
// first read. Dedup hash tables and LSH signatures are not persisted: new
// chunks simply will not dedup against pre-restart data, a deliberately
// conservative trade-off (correctness is unaffected).
//
// A manifest that exists but cannot be decoded returns durable.ErrCorrupt
// (wrapped): Open quarantines it and starts from an empty logical state
// instead of aborting; the partition files it referenced are quarantined
// by the recovery sweep and the data is rebuilt by re-logging or
// re-running. One a newer binary wrote is durable.ErrUnsupported and, like
// a real IO error, fails the open with every file left where it is.
func (s *Store) loadManifest() error {
	raw, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("colstore: read manifest: %w", err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("colstore: manifest: %w: gunzip: %v", durable.ErrCorrupt, err)
	}
	blob, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("colstore: manifest: %w: gunzip: %v", durable.ErrCorrupt, err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return fmt.Errorf("colstore: manifest: %w: parse: %v", durable.ErrCorrupt, err)
	}
	if m.Version > manifestVersion {
		return fmt.Errorf("colstore: manifest: %w: version %d, newest known %d", durable.ErrUnsupported, m.Version, manifestVersion)
	}
	if m.Version < 1 {
		return fmt.Errorf("colstore: manifest: %w: version %d", durable.ErrCorrupt, m.Version)
	}
	s.generation = m.Generation
	s.nextPart = m.NextPart
	s.stats = m.Stats
	for _, mc := range m.Columns {
		s.columns[mc.Key] = mc.Chunk
	}
	for _, md := range m.Deltas {
		s.deltas[md.Chunk] = deltaRef{Base: md.Base, Depth: md.Depth}
	}
	for _, mp := range m.Partitions {
		s.parts[mp.ID] = &partition{
			id:         mp.ID,
			bytes:      mp.Bytes,
			sealed:     true, // restored partitions never grow
			onDisk:     !mp.Lost,
			raw:        mp.Raw,
			gen:        mp.Gen,
			lost:       mp.Lost,
			chunks:     nil, // paged in on demand
			diskChunks: -1,  // unknown until the recovery sweep verifies
			wantChunks: mp.Chunks,
		}
	}
	return nil
}
