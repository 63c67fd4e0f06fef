// Package colstore implements MISTIQUE's DataStore (Sec. 3-4): a
// column-oriented store for model intermediates.
//
// Every intermediate is a dataframe; its rows are split into RowBlocks
// (default 1K rows) and each column of each RowBlock becomes a ColumnChunk —
// the unit of storage, de-duplication and compression. ColumnChunks are
// clustered into Partitions. A Partition lives uncompressed in the
// InMemoryStore (a byte-budgeted buffer pool) until it is evicted or
// flushed, at which point it is gzip-compressed and written to disk as one
// file. Reading any chunk of an on-disk Partition loads (and caches) the
// whole Partition — exactly the co-location trade-off the paper describes.
//
// De-duplication (Sec. 4.2):
//   - exact: a content hash over the encoded chunk; an identical chunk is
//     never stored twice, the new column simply references the old chunk.
//   - approximate: a MinHash signature per chunk exact dedup did not drop
//     and an LSH index over partitions; a new chunk joins the partition
//     holding its most similar existing chunk (Jaccard >= tau), so the
//     partition compressor can exploit cross-chunk redundancy.
//
// Concurrency model. The store is safe for fully concurrent PutColumn,
// GetColumn, Flush, Compact, DeleteModel and scan calls. Three locks with a
// strict acquisition order keep it so:
//
//   - flushMu serializes the writers that walk every partition (Flush,
//     Compact, DropCache) against each other. It is always taken first and
//     never while holding any other lock.
//   - partition.loadMu serializes cold page-ins of one partition. It is
//     taken only when mu is NOT held (mu may be taken underneath it).
//   - mu is the index lock guarding every map, the LRU, stats, and all
//     partition metadata (chunks slice header, dirty/sealed/onDisk/flushing
//     flags). It is always the innermost lock.
//
// The expensive work — chunk encoding, content hashing, MinHash signing,
// gzip (de)compression and value decoding — happens outside mu. That is
// sound because chunk payloads are immutable once created and a partition's
// chunks slice is append-only (elements [0, len) never change); writers
// snapshot the slice header under mu and serialize the snapshot without the
// lock. Partition files are written to a unique temp file and renamed, so a
// concurrent file reader always sees a complete old or new file; the
// per-partition flushing flag keeps the evictor from writing (or dropping)
// a partition whose file a Flush/Compact worker currently owns.
package colstore

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"mistique/internal/codec"
	"mistique/internal/durable"
	"mistique/internal/faultfs"
	"mistique/internal/minhash"
	"mistique/internal/obs"
	"mistique/internal/parallel"
	"mistique/internal/quant"
)

// ErrUnavailable marks a chunk whose backing partition is missing,
// corrupt, or quarantined. The data is not gone — MISTIQUE can always
// re-run the model (the paper's RERUN strategy) — so callers holding a
// model treat this error as "recover via re-run", never as fatal.
var ErrUnavailable = errors.New("colstore: chunk unavailable (missing or quarantined partition)")

// ErrNotStored marks a lookup of a column the store has no mapping for.
// The engine treats it like ErrUnavailable when the catalog says the
// intermediate was materialized (a catalog/store mismatch after partial
// recovery), and as a caller bug otherwise.
var ErrNotStored = errors.New("colstore: column not stored")

// Mode selects how ColumnChunks are assigned to Partitions.
type Mode int

const (
	// ModeSimilarity co-locates chunks by MinHash/LSH similarity (the
	// paper's strategy for TRAD pipelines).
	ModeSimilarity Mode = iota
	// ModeArrival fills the current partition in arrival order (the
	// paper's DNN simplification: columns of one intermediate are written
	// consecutively and therefore co-located).
	ModeArrival
	// ModeScatter assigns chunks round-robin across partitions. Only used
	// by the Fig. 14 ablation to show what co-location buys.
	ModeScatter
)

// Config controls store behaviour. Zero values select defaults.
type Config struct {
	// RowBlockRows is the number of rows per RowBlock (default 1024; the
	// paper uses 1K). Exposed for tests and ablations; the store itself
	// only sees per-block chunks, callers do the splitting.
	RowBlockRows int
	// MemBudgetBytes bounds the InMemoryStore (default 256 MiB).
	MemBudgetBytes int64
	// PartitionTargetBytes seals a partition once its encoded payload
	// reaches this size (default 4 MiB).
	PartitionTargetBytes int64
	// Mode is the chunk-to-partition assignment policy.
	Mode Mode
	// SimilarityThreshold tau for approximate dedup's partition placement
	// (default 0.6). The delta gate does not read it.
	SimilarityThreshold float64
	// DisableExactDedup turns off content hashing (STORE_ALL baseline).
	DisableExactDedup bool
	// DisableApproxDedup turns off LSH co-location while keeping exact
	// dedup (the paper's DNN configuration).
	DisableApproxDedup bool
	// ScatterWays is the number of round-robin partitions for ModeScatter
	// (default 8).
	ScatterWays int
	// DeltaMaxDepth bounds the delta-generation chain length accepted by
	// PutColumnDelta: a chunk at this depth becomes the base of no further
	// deltas (the next generation restarts full), so a cold read never
	// chases more than DeltaMaxDepth bases. Default 4; negative disables
	// delta storage entirely (every versioned put stores full).
	DeltaMaxDepth int
	// Codec names the partition-file compressor: "gzip" (default; files
	// byte-compatible with pre-codec stores), "store" (raw bytes, for
	// incompressible data), or "actz" (the activation-tuned
	// shuffle+LZ+Huffman codec — see DESIGN.md "Performance"). The choice
	// only affects new writes: reads dispatch on each file's own header,
	// so a store written under one codec reopens cleanly under another.
	Codec string
	// FS overrides the filesystem used for durable writes (nil = real OS).
	// Fault-injection tests substitute a faultfs.Injector to tear writes,
	// fail fsyncs and simulate crashes at arbitrary points.
	FS faultfs.FS
	// Obs receives the store's operational metrics: per-phase put timings
	// (encode/hash/append), chunk-read and partition page-in latencies,
	// per-partition flush/compaction write timings, and quarantine counts.
	// Nil disables instrumentation (the instruments are nil-safe no-ops);
	// the engine passes its metrics registry here.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.RowBlockRows <= 0 {
		c.RowBlockRows = 1024
	}
	if c.MemBudgetBytes <= 0 {
		c.MemBudgetBytes = 256 << 20
	}
	if c.PartitionTargetBytes <= 0 {
		c.PartitionTargetBytes = 4 << 20
	}
	if c.SimilarityThreshold <= 0 {
		c.SimilarityThreshold = 0.6
	}
	if c.ScatterWays <= 0 {
		c.ScatterWays = 8
	}
	if c.DeltaMaxDepth == 0 {
		c.DeltaMaxDepth = 4
	}
	if c.DeltaMaxDepth < 0 {
		c.DeltaMaxDepth = 0 // disabled: PutColumnDelta always stores full
	}
	if c.Codec == "" {
		c.Codec = "gzip"
	}
	return c
}

// minHashBucket is the discretization width of similarity hashing.
const minHashBucket = 0.01

// ChunkID names a stored chunk: partition plus position within it.
type ChunkID struct {
	Partition int64
	Index     int
}

// ColumnKey identifies one ColumnChunk logically: a column of one RowBlock
// of one intermediate of one model.
type ColumnKey struct {
	Model        string
	Intermediate string
	Column       string
	Block        int
}

func (k ColumnKey) String() string {
	return fmt.Sprintf("%s.%s.%s[%d]", k.Model, k.Intermediate, k.Column, k.Block)
}

// chunk is the in-memory form of a ColumnChunk: encoded payload plus the
// codec needed to reconstruct values. Immutable once created, with one
// exception: Compact's chain-collapse (under flushMu+mu) clears the delta
// fields — never enc/count/q, which readers touch without locks.
type chunk struct {
	enc   []byte
	count int
	q     *quant.Quantizer
	// Delta-generation fields (zero for a full chunk). A delta chunk is
	// stored on disk as the XOR residual against an earlier generation's
	// chunk; in memory enc always holds the fully reconstructed payload, so
	// the read path is identical for both kinds. delta keeps the residual so
	// re-serialization (eviction, compaction rewrite) needs no base access.
	delta   []byte  // XOR residual, len(delta) == len(enc)
	base    ChunkID // the chunk the residual applies against
	depth   int     // chain length: base.depth + 1
	fullCRC uint32  // CRC32-C of the reconstructed enc, verified on page-in
}

// isDelta reports whether the chunk is stored as a delta generation.
func (c *chunk) isDelta() bool { return c.delta != nil }

// deltaRef is the resident registry entry for one delta chunk: enough to
// know chain shape (for cost estimates and lost-base propagation) without
// paging the partition in. Persisted in the manifest.
type deltaRef struct {
	Base  ChunkID
	Depth int
}

// partition is a cluster of chunks; the unit of compression and disk IO.
type partition struct {
	id     int64
	chunks []*chunk
	bytes  int64 // encoded payload bytes
	sealed bool
	dirty  bool // has content not yet on disk
	onDisk bool
	// gen is the file generation: compaction rewrites a partition under a
	// new generation and the manifest flips old→new atomically, so a crash
	// mid-compact can never leave the manifest pointing at remapped data.
	gen int
	// raw is the uncompressed size of the last written partition image,
	// persisted in the manifest so a page-in can size its decode arena
	// exactly (0 = unknown; the reader falls back to growing).
	raw int64
	// lost marks a partition whose file is missing or quarantined; every
	// chunk read returns ErrUnavailable and the engine recovers by re-run.
	lost bool
	// diskChunks is the number of chunks known to be in the on-disk file
	// (-1 = not yet verified). wantChunks is the count the manifest
	// promised; a shortfall marks the tail chunks unavailable.
	diskChunks int
	wantChunks int
	// flushing marks a partition whose file a Flush/Compact worker is
	// writing; the evictor leaves it alone (see package comment).
	flushing bool
	// loadMu serializes cold page-ins so concurrent readers decompress a
	// partition once. Taken only when Store.mu is not held.
	loadMu sync.Mutex
	// refs[i] counts the references to chunk i: column mappings plus delta
	// generations using it as their base. Maintained at every put, delete
	// and replace; Compact drops exactly the chunks it holds at zero.
	refs []int32
}

// PutResult reports what PutColumn did.
type PutResult struct {
	ID ChunkID
	// Deduped is true when an identical chunk already existed and no new
	// data was stored.
	Deduped bool
	// CoLocated is true when approximate dedup placed the chunk next to a
	// similar one.
	CoLocated bool
	// EncodedBytes is the encoded payload size (0 when Deduped).
	EncodedBytes int64
	// Delta is true when the chunk was stored as an XOR residual against a
	// parent generation; Depth is its chain depth (0 for full chunks).
	Delta bool
	Depth int
}

// Stats summarizes store contents and activity.
type Stats struct {
	ChunksPut      int64
	ChunksDeduped  int64
	ChunksStored   int64
	LogicalBytes   int64 // encoded bytes before dedup (what STORE_ALL would keep)
	StoredBytes    int64 // encoded bytes actually kept (before compression)
	Partitions     int64
	Evictions      int64
	DiskReads      int64
	DiskWrites     int64
	DiskReadBytes  int64
	DiskWriteBytes int64
	// ChunksSigned counts MinHash signatures the put path computed for
	// similarity placement; an exact duplicate is never signed.
	ChunksSigned int64
	// RecoveredReads counts queries that hit a missing/corrupt chunk and
	// were transparently answered by re-running the model.
	RecoveredReads int64
	// CorruptPartitions counts partitions quarantined after failing a
	// checksum or going missing (at Open or on a cold read).
	CorruptPartitions int64
	// FsyncCount counts fsyncs issued on partition/manifest files and
	// their directory — the price of the durability guarantees.
	FsyncCount int64
	// UnsupportedPartitions counts partitions whose file uses a format or
	// codec this binary cannot read (written by a newer version). Unlike
	// corrupt files they are NOT quarantined — the file stays in place for
	// a binary that understands it; its chunks answer ErrUnavailable.
	UnsupportedPartitions int64
	// DeltaChunks counts chunks currently stored as delta generations;
	// DeltaBytes is the residual bytes they hold in place of full payloads
	// (the cross-version dedup win, before compression). DeltaCollapsed
	// counts chunks Compact rewrote back to full form (depth bound exceeded
	// after a config change, or the base was lost).
	DeltaChunks    int64
	DeltaBytes     int64
	DeltaCollapsed int64
}

// storeObs holds the store's instruments. All fields are nil (no-op) when
// Config.Obs is nil, so the hot paths are instrumented unconditionally.
type storeObs struct {
	putEncodeSeconds  *obs.Histogram
	putHashSeconds    *obs.Histogram
	putAppendSeconds  *obs.Histogram
	chunkReadSeconds  *obs.Histogram
	pageInSeconds     *obs.Histogram
	flushWriteSeconds *obs.Histogram
	flushes           *obs.Counter
	compactions       *obs.Counter
	quarantines       *obs.Counter
	// codecRawBytes/codecFileBytes accumulate uncompressed-image and
	// on-disk bytes written under the configured codec; the ratio of the
	// two counters is the codec's achieved compression ratio. The codec
	// name is embedded in the metric name (the registry has no labels).
	codecRawBytes  *obs.Counter
	codecFileBytes *obs.Counter
}

func newStoreObs(reg *obs.Registry, codecName string) storeObs {
	return storeObs{
		putEncodeSeconds:  reg.Histogram("mistique_store_put_encode_seconds", "PutColumn value-codec encode time per chunk"),
		putHashSeconds:    reg.Histogram("mistique_store_put_hash_seconds", "PutColumn content-hash and MinHash signing time per chunk"),
		putAppendSeconds:  reg.Histogram("mistique_store_put_append_seconds", "PutColumn index/partition append time per chunk (under the index lock)"),
		chunkReadSeconds:  reg.Histogram("mistique_store_chunk_read_seconds", "chunk fetch+decode time per read"),
		pageInSeconds:     reg.Histogram("mistique_store_pagein_seconds", "cold partition page-in time (open+decompress+verify)"),
		flushWriteSeconds: reg.Histogram("mistique_flush_partition_write_seconds", "per-partition compress+write+fsync time during flush/compaction"),
		flushes:           reg.Counter("mistique_store_flushes_total", "Flush calls"),
		compactions:       reg.Counter("mistique_store_compactions_total", "Compact calls"),
		quarantines:       reg.Counter("mistique_store_quarantines_total", "partitions quarantined after a failed read or verification"),
		codecRawBytes: reg.Counter("mistique_store_codec_"+codecName+"_raw_bytes_total",
			"uncompressed partition-image bytes handed to the "+codecName+" codec"),
		codecFileBytes: reg.Counter("mistique_store_codec_"+codecName+"_file_bytes_total",
			"partition-file bytes written by the "+codecName+" codec (file/raw = compression ratio)"),
	}
}

// Store is the DataStore. It is safe for concurrent use.
type Store struct {
	// flushMu serializes Flush/Compact/DropCache; see package comment for
	// the full lock order.
	flushMu sync.Mutex
	// mu is the index lock (innermost).
	mu  sync.Mutex
	cfg Config
	dir string
	// codec is the resolved Config.Codec, used for every partition write
	// (reads dispatch on each file's own header).
	codec codec.Codec
	// fs is the injectable write-side filesystem (faultfs.OS in prod).
	fs faultfs.FS
	// generation is the manifest generation, bumped on every write; a
	// reopened store continues the sequence.
	generation int64
	// lostChunks records chunk ids the recovery sweep found unreachable
	// (partial files, vanished partitions); reads return ErrUnavailable.
	lostChunks map[ChunkID]struct{}
	// recovery is the report of the last Open's recovery sweep.
	recovery *RecoveryReport

	parts    map[int64]*partition
	nextPart int64
	// lru tracks resident partitions, least-recently-used first.
	lru      []int64
	memBytes int64

	// open partitions by assignment policy.
	current    int64   // ModeArrival current partition (-1 none)
	scatter    []int64 // ModeScatter round-robin ring
	scatterPos int

	// exact dedup: content hash -> chunk id. An entry answers a dedup hit
	// only while its chunk is referenced (liveHashLocked); Compact drops the
	// entries of the chunks it reclaims.
	hashes map[[32]byte]ChunkID
	// approximate dedup.
	hasher *minhash.Hasher
	lsh    *minhash.Index
	// chunk id -> partition of the chunk that owned the signature (LSH
	// stores int ids; we map them back).
	sigPart map[int]int64
	nextSig int

	// dirs maps logical keys to physical chunks: model -> intermediate ->
	// directory (directory.go), which also keeps its deepest delta depth.
	dirs map[string]map[string]*directory
	// deltas registers every delta-generation chunk (id -> base + depth).
	// Always resident — manifest-persisted — so chain depth is known for
	// cost estimates and lost-base propagation without paging anything in.
	deltas map[ChunkID]deltaRef

	stats Stats
	om    storeObs
}

// Open creates or reopens a store rooted at dir. If the directory holds a
// manifest from a previous Flush, the column directories and partition
// index are restored and all flushed chunks are readable; dedup state is
// rebuilt lazily (new chunks do not dedup against pre-restart data).
//
// Open is also the recovery point: orphan temp files from a crashed flush
// are swept, the manifest is reconciled against the directory, and
// missing or checksum-failing partition files are quarantined into a
// corrupt/ subdirectory instead of aborting — their chunks answer
// ErrUnavailable and the engine recovers them by re-running the model.
func Open(dir string, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	cdc, err := codec.ByName(cfg.Codec)
	if err != nil {
		return nil, fmt.Errorf("colstore: %w", err)
	}
	if err := mkdirAll(dir); err != nil {
		return nil, fmt.Errorf("colstore: open %s: %w", dir, err)
	}
	const sigBits = 64
	fs := cfg.FS
	if fs == nil {
		fs = faultfs.OS()
	}
	s := &Store{
		cfg:        cfg,
		dir:        dir,
		codec:      cdc,
		fs:         fs,
		parts:      make(map[int64]*partition),
		current:    -1,
		hashes:     make(map[[32]byte]ChunkID),
		hasher:     minhash.NewHasher(sigBits, 0x5155454e), // deterministic
		lsh:        minhash.NewIndex(16, 4),                // candidate threshold ~(1/16)^(1/4) = 0.5
		sigPart:    make(map[int]int64),
		dirs:       make(map[string]map[string]*directory),
		deltas:     make(map[ChunkID]deltaRef),
		lostChunks: make(map[ChunkID]struct{}),
		om:         newStoreObs(cfg.Obs, cfg.Codec),
	}
	manifestCorrupt := false
	if err := s.loadManifest(); err != nil {
		if !errors.Is(err, durable.ErrCorrupt) {
			return nil, err
		}
		// A corrupt manifest survives only literal disk corruption (the
		// write protocol is atomic); quarantine it and start from an empty
		// logical state — the sweep below quarantines the now-unreferenced
		// partition files, and re-logging/re-running rebuilds the data.
		manifestCorrupt = true
		s.moveToCorrupt(manifestName)
	}
	if err := s.recoverOnOpen(manifestCorrupt); err != nil {
		return nil, err
	}
	return s, nil
}

// RowBlockRows returns the configured RowBlock height.
func (s *Store) RowBlockRows() int { return s.cfg.RowBlockRows }

// PutColumn stores one ColumnChunk: vals encoded with q under key. If an
// identical chunk exists it is deduplicated; if a similar chunk exists (in
// ModeSimilarity) the new chunk joins its partition.
func (s *Store) PutColumn(key ColumnKey, vals []float32, q *quant.Quantizer) (PutResult, error) {
	return s.putColumn(key, vals, q, nil, false)
}

// PutColumnReplace stores vals under key even when the key already maps to
// a different payload: the old mapping is swapped for the new chunk inside
// the same critical section, so concurrent readers always resolve the key.
// The streaming engine grows an open row block this way — each drain cuts
// a longer prefix of the same block under the same key. The displaced
// chunk becomes unreferenced and is reclaimed by the next Compact.
func (s *Store) PutColumnReplace(key ColumnKey, vals []float32, q *quant.Quantizer) (PutResult, error) {
	return s.putColumn(key, vals, q, nil, true)
}

// PutColumnDelta stores one ColumnChunk of a new model version. An exact
// duplicate dedups before any other work. Otherwise it tries to encode the
// chunk as a delta generation against the parent version's chunk: if the
// parent column exists, its chain is shorter than DeltaMaxDepth, and the
// XOR residual of the two encoded payloads has at least len/4 more zero
// bytes than the payload, only the residual is kept (sparse for
// fine-tune-style updates, so the partition compressor collapses it).
// Every fallback condition — missing or lost parent, depth bound, a dense
// residual, a parent stored after this chunk's partition — degrades to a
// plain full store, never to an error: delta encoding is an optimization,
// not a correctness requirement.
func (s *Store) PutColumnDelta(key ColumnKey, vals []float32, q *quant.Quantizer, parent ColumnKey) (PutResult, error) {
	return s.putColumn(key, vals, q, &parent, false)
}

// deltaSpec carries a prepared (pre-lock) delta encoding into the put's
// critical section, where it is re-validated before use.
type deltaSpec struct {
	parent   ColumnKey
	base     ChunkID
	depth    int
	residual []byte
	fullCRC  uint32
}

func (s *Store) putColumn(key ColumnKey, vals []float32, q *quant.Quantizer, parent *ColumnKey, replace bool) (PutResult, error) {
	if key.Block < 0 {
		return PutResult{}, fmt.Errorf("colstore: column %s: negative block", key)
	}
	if q == nil {
		q = quant.NewFull()
	}
	// Encoding, content hashing and MinHash signing are the CPU-heavy part
	// of a put; all three happen before the index lock so concurrent puts
	// overlap them.
	t0 := time.Now()
	enc := q.Encode(nil, vals)
	s.om.putEncodeSeconds.ObserveSince(t0)
	t0 = time.Now()
	var h [32]byte
	stored := false
	if !s.cfg.DisableExactDedup {
		h = contentHash(enc, q)
		s.mu.Lock()
		_, stored = s.liveHashLocked(h)
		s.mu.Unlock()
	}
	// An exact duplicate needs no similarity work: no signature to place it
	// and no delta against its parent. The locked section below re-checks
	// the hash; if a racing Compact dropped it meanwhile, the put stores a
	// full chunk in the arrival partition.
	var sig []uint64
	if !stored && s.cfg.Mode == ModeSimilarity && !s.cfg.DisableApproxDedup {
		sig = s.hasher.SignFloats(vals, minHashBucket)
	}
	s.om.putHashSeconds.ObserveSince(t0)

	// Delta preparation — base page-in and residual XOR — also runs outside
	// mu; the spec is re-validated under the lock (a concurrent Compact may
	// have remapped the base chunk's id meanwhile).
	var spec *deltaSpec
	if !stored && parent != nil && *parent != key {
		spec = s.prepareDelta(*parent, enc)
	}

	appendDone := s.om.putAppendSeconds.Time()
	defer appendDone()
	s.mu.Lock()
	defer s.mu.Unlock()

	s.stats.ChunksPut++
	s.stats.LogicalBytes += int64(len(enc))
	if sig != nil {
		s.stats.ChunksSigned++
	}

	if existing, dup := s.idLocked(key); dup {
		// Idempotent re-put: logging the same model into a reopened store
		// re-presents identical chunks; accept them as dedup hits. A
		// different payload under an existing key is a caller bug.
		if id, ok := s.hashes[h]; ok && id == existing {
			s.stats.ChunksDeduped++
			return PutResult{ID: id, Deduped: true}, nil
		}
		same, err := s.chunkMatchesLocked(existing, enc)
		switch {
		case err == nil && same:
			s.stats.ChunksDeduped++
			return PutResult{ID: existing, Deduped: true}, nil
		case err != nil && errors.Is(err, ErrUnavailable):
			// The mapped chunk was lost to corruption. Re-logging the model
			// is the natural repair, so accept the re-put: drop the dead
			// mapping and fall through to store a fresh chunk.
			s.unmapLocked(key)
		case err != nil:
			return PutResult{}, err
		case replace:
			// Caller asked to supersede the old payload (a grown open
			// block): drop the mapping and store the new chunk below.
			s.unmapLocked(key)
		default:
			return PutResult{}, fmt.Errorf("colstore: column %s already stored with different content", key)
		}
	}
	if id, ok := s.liveHashLocked(h); ok {
		s.mapLocked(key, id)
		s.stats.ChunksDeduped++
		return PutResult{ID: id, Deduped: true}, nil
	}

	// Re-validate the prepared delta now that the index is locked: the
	// parent mapping must still name the same chunk (Compact remaps ids)
	// and the base must still be readable.
	if spec != nil {
		if id, ok := s.idLocked(spec.parent); !ok || id != spec.base || s.goneLocked(spec.base) {
			spec = nil
		}
	}

	p, coLocated := s.pickPartition(sig)
	// A delta chunk's base must live strictly earlier in partition order
	// (earlier partition, or earlier index of the same one — appends
	// guarantee the latter), so recursive page-in resolves bases by walking
	// ids downward and can never cycle or deadlock. A parent logged into a
	// later partition is rare; store full rather than reorder partitions.
	if spec != nil && p.id < spec.base.Partition {
		spec = nil
	}
	c := &chunk{enc: enc, count: len(vals), q: q}
	residentBytes := int64(len(enc))
	if spec != nil {
		c.delta = spec.residual
		c.base = spec.base
		c.depth = spec.depth
		c.fullCRC = spec.fullCRC
		residentBytes += int64(len(spec.residual))
	}
	p.chunks = append(p.chunks, c)
	p.bytes += residentBytes
	p.dirty = true
	s.memBytes += residentBytes
	if p.bytes >= s.cfg.PartitionTargetBytes {
		p.sealed = true
		if s.current == p.id {
			s.current = -1
		}
	}
	id := ChunkID{Partition: p.id, Index: len(p.chunks) - 1}
	if !s.cfg.DisableExactDedup {
		s.hashes[h] = id
	}
	if sig != nil {
		s.lsh.Insert(s.nextSig, sig)
		s.sigPart[s.nextSig] = p.id
		s.nextSig++
	}
	s.stats.ChunksStored++
	s.stats.StoredBytes += int64(len(enc))
	res := PutResult{ID: id, CoLocated: coLocated, EncodedBytes: int64(len(enc))}
	if spec != nil {
		s.addDeltaLocked(id, deltaRef{Base: spec.base, Depth: spec.depth})
		s.stats.DeltaChunks++
		s.stats.DeltaBytes += int64(len(spec.residual))
		res.Delta = true
		res.Depth = spec.depth
	}
	s.mapLocked(key, id)
	s.touchLocked(p.id)
	if err := s.evictIfNeededLocked(-1); err != nil {
		return PutResult{}, err
	}
	return res, nil
}

// prepareDelta builds a deltaSpec for storing key's chunk as a residual
// against the parent column's chunk, or nil when any precondition fails
// (the caller then stores full). Runs without locks held: the base chunk
// is paged in via the concurrent read path and XORed here so the index
// lock only pays for a map re-check.
func (s *Store) prepareDelta(parent ColumnKey, enc []byte) *deltaSpec {
	if s.cfg.DeltaMaxDepth <= 0 {
		return nil
	}
	bc, baseID, err := s.columnChunk(parent)
	if err != nil || len(bc.enc) == 0 {
		return nil
	}
	if bc.depth+1 > s.cfg.DeltaMaxDepth {
		return nil // chain bound: this generation restarts full
	}
	// Residual gate: keep the residual only when it is clearly sparser than
	// the payload — at least len/4 more zero bytes — otherwise it is as
	// large and as incompressible as the payload itself and the chain's
	// read amplification buys nothing. Its size depends on which positions
	// changed, so the gate reads the residual, not the value sets.
	residual := xorEnc(enc, bc.enc)
	if bytes.Count(residual, []byte{0}) < bytes.Count(enc, []byte{0})+len(enc)/4 {
		return nil
	}
	return &deltaSpec{
		parent:   parent,
		base:     baseID,
		depth:    bc.depth + 1,
		residual: residual,
		fullCRC:  crc32.Checksum(enc, durable.Castagnoli),
	}
}

// xorEnc XORs the common prefix of a and b and copies a's tail verbatim —
// the self-inverse residual transform: xorEnc(xorEnc(a, b), b) == a for
// any lengths. The result always has len(a).
func xorEnc(a, b []byte) []byte {
	out := make([]byte, len(a))
	n := min(len(a), len(b))
	for i := range n {
		out[i] = a[i] ^ b[i]
	}
	copy(out[n:], a[n:])
	return out
}

// resolveDeltaChunks reconstructs the full payload of every delta chunk in
// a freshly parsed partition. Same-partition bases are served from the
// already-resolved prefix (the put path guarantees base index < chunk
// index); cross-partition bases — always in a strictly earlier partition —
// go through lookup, which the two page-in paths bind to their respective
// locking discipline. Returns the reconstructed bytes added (for memory
// accounting) and whether any chunk stayed unresolved because its base is
// unavailable (lost-but-healable; the caller marks those chunks lost and
// installs the rest). Reconstruction is verified against the chunk's
// stored CRC32-C, so a wrong base version or corrupt residual surfaces as
// a hard error, never as silently wrong values.
func resolveDeltaChunks(pid int64, chunks []*chunk, lookup func(ChunkID) (*chunk, error)) (added int64, lost bool, err error) {
	for i, c := range chunks {
		if !c.isDelta() || c.enc != nil {
			continue
		}
		var bc *chunk
		switch {
		case c.base.Partition == pid:
			if c.base.Index < 0 || c.base.Index >= i {
				return added, lost, fmt.Errorf("chunk %d delta base %d/%d not earlier in partition", i, c.base.Partition, c.base.Index)
			}
			bc = chunks[c.base.Index]
			if bc.enc == nil {
				lost = true // base itself unresolved: the chain is down together
				continue
			}
		case c.base.Partition > pid:
			return added, lost, fmt.Errorf("chunk %d delta base %d/%d in later partition", i, c.base.Partition, c.base.Index)
		default:
			var lerr error
			bc, lerr = lookup(c.base)
			if errors.Is(lerr, ErrUnavailable) {
				lost = true
				continue
			}
			if lerr != nil {
				return added, lost, fmt.Errorf("chunk %d delta base %d/%d: %w", i, c.base.Partition, c.base.Index, lerr)
			}
			if bc.enc == nil {
				lost = true // base resident but itself unreconstructed
				continue
			}
		}
		enc := xorEnc(c.delta, bc.enc)
		if got := crc32.Checksum(enc, durable.Castagnoli); got != c.fullCRC {
			return added, lost, fmt.Errorf("chunk %d delta reconstruction checksum mismatch: want %08x, got %08x", i, c.fullCRC, got)
		}
		c.enc = enc
		added += int64(len(enc))
	}
	return added, lost, nil
}

// markUnresolvedLostLocked registers every still-unresolved delta chunk of
// a partition as lost (base missing or quarantined — lost-but-healable,
// not corrupt: the partition file itself is intact and its resolved chunks
// stay readable). Caller holds mu.
func (s *Store) markUnresolvedLostLocked(pid int64, chunks []*chunk) {
	for i, c := range chunks {
		if c.isDelta() && c.enc == nil {
			s.lostChunks[ChunkID{Partition: pid, Index: i}] = struct{}{}
		}
	}
}

// MaxDeltaDepth returns the deepest delta chain backing any column of one
// intermediate — the read-amplification factor the cost model charges a
// cold READ of it. Every query plan asks, so it is the directory's
// maintained depth: one field read, whatever the store holds.
func (s *Store) MaxDeltaDepth(model, interm string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d := s.dirs[model][interm]; d != nil {
		return d.depth
	}
	return 0
}

// chunkMatchesLocked reports whether the stored chunk's encoded payload
// equals enc (used for idempotent re-puts when exact dedup is disabled or
// the hash table was not restored after reopen).
func (s *Store) chunkMatchesLocked(id ChunkID, enc []byte) (bool, error) {
	if _, bad := s.lostChunks[id]; bad {
		return false, fmt.Errorf("colstore: chunk %d/%d: %w", id.Partition, id.Index, ErrUnavailable)
	}
	p, err := s.loadPartitionLocked(id.Partition)
	if err != nil {
		return false, err
	}
	if id.Index < 0 || id.Index >= len(p.chunks) {
		return false, fmt.Errorf("colstore: chunk %d/%d out of range", id.Partition, id.Index)
	}
	return bytes.Equal(p.chunks[id.Index].enc, enc), nil
}

func contentHash(enc []byte, q *quant.Quantizer) [32]byte {
	hsh := sha256.New()
	meta, _ := q.MarshalBinary()
	hsh.Write(meta)
	hsh.Write(enc)
	var out [32]byte
	copy(out[:], hsh.Sum(nil))
	return out
}

// pickPartition chooses (or creates) the partition a new chunk joins. sig
// is the chunk's MinHash signature, pre-computed outside the lock (nil when
// approximate dedup is off).
func (s *Store) pickPartition(sig []uint64) (p *partition, coLocated bool) {
	switch s.cfg.Mode {
	case ModeSimilarity:
		if sig != nil {
			if sigID, _, ok := s.lsh.QueryBest(sig, s.cfg.SimilarityThreshold); ok {
				pid := s.sigPart[sigID]
				if cand, resident := s.parts[pid]; resident && !cand.sealed && !cand.onDisk && cand.chunks != nil {
					return cand, true
				}
			}
		}
		return s.openArrivalPartition(), false
	case ModeScatter:
		if len(s.scatter) < s.cfg.ScatterWays {
			p := s.newPartition()
			s.scatter = append(s.scatter, p.id)
			return p, false
		}
		for range s.scatter {
			pid := s.scatter[s.scatterPos%len(s.scatter)]
			s.scatterPos++
			if cand, ok := s.parts[pid]; ok && !cand.sealed && !cand.onDisk {
				return cand, false
			}
			// Replace a sealed/evicted ring slot with a fresh partition.
			np := s.newPartition()
			s.scatter[(s.scatterPos-1)%len(s.scatter)] = np.id
			return np, false
		}
		return s.newPartition(), false
	default: // ModeArrival
		return s.openArrivalPartition(), false
	}
}

func (s *Store) openArrivalPartition() *partition {
	if s.current >= 0 {
		if p, ok := s.parts[s.current]; ok && !p.sealed && !p.onDisk {
			return p
		}
	}
	p := s.newPartition()
	s.current = p.id
	return p
}

func (s *Store) newPartition() *partition {
	p := &partition{id: s.nextPart, dirty: true}
	s.nextPart++
	s.parts[p.id] = p
	s.stats.Partitions++
	s.lru = append(s.lru, p.id)
	return p
}

// GetColumn reads back the reconstructed values of a stored column chunk.
func (s *Store) GetColumn(key ColumnKey) ([]float32, error) {
	return s.GetColumnInto(nil, key)
}

// GetColumnInto is GetColumn appending into dst — the allocation-free form
// for callers that reuse a decode buffer across chunks.
func (s *Store) GetColumnInto(dst []float32, key ColumnKey) ([]float32, error) {
	t0 := time.Now()
	c, id, err := s.columnChunk(key)
	if err != nil {
		return nil, err
	}
	return s.decodeChunk(dst, c, id, t0)
}

// Has reports whether the column chunk is stored.
func (s *Store) Has(key ColumnKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.idLocked(key)
	return ok
}

// Lookup returns the chunk id for a stored column.
func (s *Store) Lookup(key ColumnKey) (ChunkID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idLocked(key)
}

// decodeChunk decodes c into dst outside the index lock, so concurrent
// readers of different chunks decode in parallel. Decode presizes dst from
// the chunk's value count, so a fresh dst costs at most one allocation.
func (s *Store) decodeChunk(dst []float32, c *chunk, id ChunkID, t0 time.Time) ([]float32, error) {
	out, err := c.q.Decode(dst, c.enc, c.count)
	if err != nil {
		return nil, fmt.Errorf("colstore: decode chunk %d/%d: %w", id.Partition, id.Index, err)
	}
	s.om.chunkReadSeconds.ObserveSince(t0)
	return out, nil
}

// chunkRef resolves id to its in-memory chunk, loading the partition from
// disk if needed. The returned chunk is immutable. A Compact may remap ids,
// so only ids no Compact moves belong here (delta bases, whose partitions
// Compact pins); reads by column key go through columnChunk.
func (s *Store) chunkRef(id ChunkID) (*chunk, error) {
	c, _, err := s.lookupChunk(func() (ChunkID, error) { return id, nil })
	return c, err
}

// columnChunk resolves key to its chunk and current id. The key is looked
// up inside every critical section that reads a partition's chunk slice —
// again after a page-in — so no ChunkID crosses an unlock: a concurrent
// Compact that remaps chunk indices can never hand back another column's
// chunk.
func (s *Store) columnChunk(key ColumnKey) (*chunk, ChunkID, error) {
	return s.lookupChunk(func() (ChunkID, error) {
		if id, ok := s.idLocked(key); ok {
			return id, nil
		}
		return ChunkID{}, fmt.Errorf("colstore: column %s: %w", key, ErrNotStored)
	})
}

// lookupChunk returns the chunk resolve names, paging its partition in if
// needed. resolve runs with mu held, once per critical section.
func (s *Store) lookupChunk(resolve func() (ChunkID, error)) (*chunk, ChunkID, error) {
	for {
		s.mu.Lock()
		c, id, p, err := s.residentChunkLocked(resolve)
		s.mu.Unlock()
		if c != nil || err != nil {
			return c, id, err
		}
		if c, id, err = s.pageIn(p, resolve); c != nil || err != nil {
			return c, id, err
		}
		// What resolve names moved to another partition during the page-in.
	}
}

// residentChunkLocked resolves the chunk and returns it when its partition
// is resident. A nil chunk and nil error mean partition p must be paged in
// first. Caller holds mu.
func (s *Store) residentChunkLocked(resolve func() (ChunkID, error)) (*chunk, ChunkID, *partition, error) {
	id, err := resolve()
	if err != nil {
		return nil, id, nil, err
	}
	p, ok := s.parts[id.Partition]
	if !ok {
		return nil, id, nil, fmt.Errorf("colstore: unknown partition %d: %w", id.Partition, ErrUnavailable)
	}
	if p.lost {
		return nil, id, nil, fmt.Errorf("colstore: partition %d: %w", id.Partition, ErrUnavailable)
	}
	if _, bad := s.lostChunks[id]; bad {
		return nil, id, nil, fmt.Errorf("colstore: chunk %d/%d: %w", id.Partition, id.Index, ErrUnavailable)
	}
	if p.chunks == nil {
		return nil, id, p, nil
	}
	s.touchLocked(id.Partition)
	c, err := chunkAtLocked(p, id)
	return c, id, p, err
}

// pageIn loads cold partition p under its load lock, so N concurrent
// readers decompress it once, then resolves again under mu. mu is taken
// underneath loadMu (the allowed order) and the state is re-checked after
// each acquisition. A nil chunk and nil error mean resolve now names a
// chunk outside p.
func (s *Store) pageIn(p *partition, resolve func() (ChunkID, error)) (*chunk, ChunkID, error) {
	p.loadMu.Lock()
	defer p.loadMu.Unlock()
	s.mu.Lock()
	if c, id, cur, err := s.residentChunkLocked(resolve); c != nil || err != nil || cur != p {
		s.mu.Unlock()
		return c, id, err
	}
	path := s.partPathGen(p.id, p.gen)
	rawHint := p.raw
	s.mu.Unlock()

	tLoad := time.Now()
	chunks, payload, fileBytes, err := readPartitionFile(path, rawHint)
	s.om.pageInSeconds.ObserveSince(tLoad)
	// Reconstruct delta generations before the partition becomes visible.
	// Bases live strictly earlier in partition order, so the recursive
	// page-in acquires loadMu locks in strictly decreasing id order — no
	// deadlock, no cycle — while this partition's loadMu is held.
	var added int64
	var deltaLost bool
	if err == nil {
		added, deltaLost, err = resolveDeltaChunks(p.id, chunks, s.chunkRef)
	}
	if err != nil {
		// The file failed its checksum or vanished, or a reconstruction
		// failed (wrong base generation, corrupt residual — the same as file
		// corruption): quarantine it so no later read trusts it, and tell
		// the caller the chunk is recoverable-by-rerun, not fatally gone.
		s.mu.Lock()
		s.quarantineLocked(p, err)
		s.mu.Unlock()
		return nil, ChunkID{}, fmt.Errorf("colstore: read partition %d: %v: %w", p.id, err, ErrUnavailable)
	}
	payload += added

	s.mu.Lock()
	defer s.mu.Unlock()
	if deltaLost {
		// One or more bases are gone but this partition's file is intact:
		// keep it, install the resolved chunks, and mark the unresolved
		// ones lost-but-healable (re-logging the version repairs them).
		s.markUnresolvedLostLocked(p.id, chunks)
	}
	if p.chunks == nil && s.parts[p.id] == p {
		if err := s.installLocked(p, chunks, payload, fileBytes); err != nil {
			return nil, ChunkID{}, err
		}
	}
	c, id, _, err := s.residentChunkLocked(resolve)
	return c, id, err
}

func chunkAtLocked(p *partition, id ChunkID) (*chunk, error) {
	if id.Index < 0 || id.Index >= len(p.chunks) {
		return nil, fmt.Errorf("colstore: chunk %d/%d out of range", id.Partition, id.Index)
	}
	return p.chunks[id.Index], nil
}

// flushTask pairs a partition with the chunk snapshot to serialize and
// the destination path (resolved under mu, since compaction can bump
// the partition's file generation).
type flushTask struct {
	p      *partition
	chunks []*chunk
	path   string
}

// Flush writes every dirty partition to disk and persists the manifest
// (the store's durability point: a flushed store can be reopened and read
// without re-logging). Partitions are compressed and written concurrently
// (see writeSnapshots). Partitions stay resident until evicted by memory
// pressure. Puts racing a Flush are safe: the flush serializes a
// snapshot, and a partition that grew meanwhile simply stays dirty for the
// next Flush.
func (s *Store) Flush() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.om.flushes.Inc()
	return s.flushDirty()
}

// flushDirty does the Flush work; the caller holds flushMu.
func (s *Store) flushDirty() error {
	s.mu.Lock()
	var tasks []flushTask
	for _, p := range s.parts {
		if p.dirty && len(p.chunks) > 0 && !p.lost {
			p.flushing = true
			tasks = append(tasks, flushTask{p: p, chunks: p.chunks, path: s.partPathGen(p.id, p.gen)})
		}
	}
	s.mu.Unlock()

	werr := s.writeSnapshots(tasks)

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range tasks {
		t.p.flushing = false
	}
	if werr != nil {
		return werr
	}
	return s.writeManifestLocked()
}

// writeSnapshots writes the snapshots of Flush and Compact. Each image is
// serialized in order on this goroutine (cheap memory writes) and its
// compress+publish runs on a GOMAXPROCS-bounded group, so compressing
// partition N overlaps serializing partition N+1; the group's slot bound
// caps the serialized images in flight. The caller must have set
// p.flushing under mu for every task.
func (s *Store) writeSnapshots(tasks []flushTask) error {
	g := parallel.NewGroup(0)
	for _, t := range tasks {
		if g.Err() != nil {
			break
		}
		img := serializePartition(grabBuf(), t.chunks)
		g.Go(func() error {
			defer releaseBuf(img)
			return s.writeSnapshotImage(t, img)
		})
	}
	return g.Wait()
}

// writeSnapshotImage compresses and writes one pre-serialized partition
// image, then updates the partition's state under mu.
func (s *Store) writeSnapshotImage(t flushTask, img []byte) error {
	t0 := time.Now()
	size, fsyncs, err := writeImageFileAt(s.fs, t.path, img, s.codec)
	s.om.flushWriteSeconds.ObserveSince(t0)
	s.om.codecRawBytes.Add(int64(len(img)))
	s.om.codecFileBytes.Add(size)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.FsyncCount += fsyncs
	if err != nil {
		return err
	}
	t.p.onDisk = true
	t.p.diskChunks = len(t.chunks)
	t.p.raw = int64(len(img))
	// Only mark clean if no chunks were appended since the snapshot;
	// otherwise the file is a prefix and the next flush rewrites it.
	if len(t.p.chunks) == len(t.chunks) {
		t.p.dirty = false
	}
	s.stats.DiskWrites++
	s.stats.DiskWriteBytes += size
	return nil
}

// DropCache flushes and then releases all in-memory partition payloads,
// forcing subsequent reads to hit disk. Used by read benchmarks.
func (s *Store) DropCache() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	if err := s.flushDirty(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.parts {
		if p.dirty && len(p.chunks) > 0 {
			// A put raced the flush above; write the straggler serially.
			if err := s.writePartitionLocked(p); err != nil {
				return err
			}
		}
		if p.onDisk && p.chunks != nil {
			s.memBytes -= p.bytes
			p.chunks = nil
		}
	}
	s.lru = s.lru[:0]
	return nil
}

// Stats returns a snapshot of activity counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// NoteRecoveredRead records that a query hit an unavailable chunk and was
// transparently answered by re-running the model (the engine calls this
// from its rerun-fallback path).
func (s *Store) NoteRecoveredRead() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.RecoveredReads++
}

// DiskBytes returns the total size of partition files on disk. Call Flush
// first for a complete figure.
func (s *Store) DiskBytes() (int64, error) {
	return dirSize(s.dir)
}

// touchLocked moves pid to the most-recently-used end of the LRU list.
func (s *Store) touchLocked(pid int64) {
	for i, id := range s.lru {
		if id == pid {
			copy(s.lru[i:], s.lru[i+1:])
			s.lru[len(s.lru)-1] = pid
			return
		}
	}
	s.lru = append(s.lru, pid)
}

// installLocked makes a partition just read from disk resident and brings
// the pool back under budget around it: a pool smaller than one partition
// still serves this read, and the partition stays on the LRU, so the next
// page-in is what evicts it. Caller holds mu.
func (s *Store) installLocked(p *partition, chunks []*chunk, payload, fileBytes int64) error {
	p.chunks = chunks
	p.bytes = payload
	p.dirty = false
	s.memBytes += payload
	s.stats.DiskReads++
	s.stats.DiskReadBytes += fileBytes
	s.touchLocked(p.id)
	return s.evictIfNeededLocked(p.id)
}

// evictIfNeededLocked writes out and drops LRU partitions until the memory
// budget is met. The partition currently being filled is never evicted,
// and neither is keep (the one being installed; -1 for none) or one whose
// file a Flush/Compact worker owns (flushing).
func (s *Store) evictIfNeededLocked(keep int64) error {
	skipped := 0
	for s.memBytes > s.cfg.MemBudgetBytes && len(s.lru) > 1 && skipped < len(s.lru) {
		pid := s.lru[0]
		s.lru = s.lru[1:]
		p, ok := s.parts[pid]
		if !ok || p.chunks == nil {
			continue
		}
		if pid == s.current || pid == keep || p.flushing {
			// Keep the open / installing / being-flushed partition
			// resident; re-queue.
			s.lru = append(s.lru, pid)
			skipped++
			if len(s.lru) == 1 {
				break
			}
			continue
		}
		if p.dirty {
			if err := s.writePartitionLocked(p); err != nil {
				return err
			}
		}
		p.sealed = true // evicted partitions never grow again
		s.memBytes -= p.bytes
		p.chunks = nil
		s.stats.Evictions++
	}
	return nil
}
