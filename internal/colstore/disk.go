package colstore

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mistique/internal/codec"
	"mistique/internal/durable"
	"mistique/internal/faultfs"
	"mistique/internal/quant"
)

// Partition image layout (inside the compressed payload):
//
//	magic   [4]byte "MQPT"
//	version uint16
//	nchunks uint32
//	per chunk:
//	  flags   byte (v3 only: 0 = full, 1 = delta generation)
//	  count   uint32 (number of values)
//	  qlen    uint32, quantizer blob
//	  elen    uint32, payload (encoded values; the XOR residual for deltas)
//	  delta extras (v3, flags==1 only):
//	    basePart int64, baseIdx uint32, depth uint16, fullCRC uint32
//	  crc32c  uint32 over the chunk's flags+meta+quantizer+payload (v2+)
//	crc32c  uint32 over every preceding byte (v2+ whole-file footer)
//
// Version 2 adds the CRC32-C checksums; v1 files (no checksums) remain
// readable. Every read verifies both levels: a bit flip, truncation or
// torn write yields an error — never silently wrong values — and the
// store quarantines the file and falls back to re-running the model.
//
// Version 3 adds delta-generation chunks: the payload is the XOR residual
// against an earlier chunk (named by basePart/baseIdx, always strictly
// earlier in partition order) and fullCRC checks the reconstruction. A
// partition containing no delta chunks is still written as v2, byte-
// identical to pre-delta stores; v3 appears only when needed, so old
// binaries reject exactly the files they cannot read
// (durable.ErrUnsupported leaves them in place for a newer binary).
//
// On disk the image is wrapped by a codec. Two framings exist:
//
//	v1/v2: a bare gzip stream (no extra header). The gzip codec still
//	       writes this, so its files are byte-identical to pre-codec
//	       stores and readable by old binaries.
//	v3:    "MQPC" | version uint16 (=3) | codec ID byte | codec payload.
//	       Written for every non-gzip codec; the reader dispatches on the
//	       ID. The codec ID must sit OUTSIDE the compressed image —
//	       it is what tells the reader how to decompress.
//
// The reader sniffs the first bytes: gzip magic -> legacy framing, MQPC
// -> v3 container. A v3 container with an unknown codec ID or a future
// version fails with durable.ErrUnsupported — a forward-compatibility
// rejection, not corruption: the partition's chunks answer ErrUnavailable,
// but recovery keeps the (perfectly intact) file for a newer binary
// instead of quarantining it as corrupt.
const (
	partMagic = "MQPT"
	// partVersion is the format written for all-full partitions;
	// partVersionDelta is written only when a partition holds at least one
	// delta-generation chunk.
	partVersion      = 2
	partVersionDelta = 3

	contMagic   = "MQPC"
	contVersion = 3
	contHdrLen  = 7 // magic + version uint16 + codec ID byte
)

// Scratch pools for the flush and page-in hot paths. Ownership rule: a
// pooled object may be held only for the duration of one call; nothing
// returned to a caller may alias pooled memory. Partition images violate
// that deliberately in ONE place — parsePartition subslices its input
// arena into chunk payloads — so read-side arenas are never pooled (they
// become the partition's resident memory and die with it).
var (
	// imgBufPool recycles the uncompressed partition images the flush
	// pipeline serializes (capacity converges on PartitionTargetBytes),
	// the compressed images produced by the codecs, and the
	// compressed-file read buffers. The gzip writer/reader pools — per
	// compression level, since Reset keeps a writer's level — live in
	// internal/codec, shared with the manifest writer.
	imgBufPool sync.Pool
)

func grabBuf() []byte {
	if p, ok := imgBufPool.Get().(*[]byte); ok {
		return (*p)[:0]
	}
	return nil
}

func releaseBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	imgBufPool.Put(&b)
}

// partFileName is the on-disk name of one partition generation. Gen 0
// keeps the legacy name so pre-upgrade directories reopen unchanged;
// compaction bumps the generation and writes a new file, which makes the
// rewrite crash-safe (the manifest flips old→new atomically, and
// whichever file the surviving manifest names is intact).
func partFileName(pid int64, gen int) string {
	if gen == 0 {
		return fmt.Sprintf("partition_%08d.bin.gz", pid)
	}
	return fmt.Sprintf("partition_%08d.g%04d.bin.gz", pid, gen)
}

func (s *Store) partPathGen(pid int64, gen int) string {
	return filepath.Join(s.dir, partFileName(pid, gen))
}

// serializePartition appends the uncompressed partition image of chunks to
// dst in one pass: each chunk's meta+quantizer+payload lands contiguously,
// so its v2 CRC32-C is a single Checksum over that region, and the
// whole-file footer is one Checksum over the finished image. Cannot fail —
// every input is in memory.
func serializePartition(dst []byte, chunks []*chunk) []byte {
	version := uint16(partVersion)
	need := 14 // header + file footer
	for _, c := range chunks {
		need += 16 + c.q.MarshaledSize() + len(c.enc)
		if c.isDelta() {
			version = partVersionDelta
			need += 1 + 18 // flags byte + delta extras (every chunk pays the flags byte)
		}
	}
	if version == partVersionDelta {
		need += len(chunks) // flags byte on full chunks too
	}
	if cap(dst)-len(dst) < need {
		// Grow with +25% headroom, not to the exact size: the flush path
		// feeds pooled buffers here, and partitions grow monotonically
		// until sealed — an exact-size grow would reallocate on every
		// flush of a slightly larger partition and the pool would never
		// converge.
		newCap := len(dst) + need
		newCap += newCap / 4
		dst = append(make([]byte, 0, newCap), dst...)
	}
	dst = append(dst, partMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, version)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(chunks)))
	for _, c := range chunks {
		start := len(dst)
		payload := c.enc
		if version == partVersionDelta {
			if c.isDelta() {
				dst = append(dst, 1)
				payload = c.delta // the residual is what goes to disk
			} else {
				dst = append(dst, 0)
			}
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(c.count))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(c.q.MarshaledSize()))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
		if c.isDelta() {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(c.base.Partition))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(c.base.Index))
			dst = binary.LittleEndian.AppendUint16(dst, uint16(c.depth))
			dst = binary.LittleEndian.AppendUint32(dst, c.fullCRC)
		}
		dst = c.q.AppendBinary(dst)
		dst = append(dst, payload...)
		chunkCRC := crc32.Checksum(dst[start:], durable.Castagnoli)
		dst = binary.LittleEndian.AppendUint32(dst, chunkCRC)
	}
	return durable.Seal(dst)
}

// gzipLevel is the gzip level of partition files. BestSpeed measured
// ~2.2x faster than gzip.DefaultCompression on LP-encoded partition images
// for under 1% more file size (BenchmarkPartitionWriteLevels, DESIGN.md
// "Performance"). Only the gzip codec reads it.
const gzipLevel = gzip.BestSpeed

// encodePartitionImage appends the on-disk form of a serialized partition
// image to dst: the bare stream for gzip (legacy framing, byte-identical
// to pre-codec files), the v3 container for everything else.
func encodePartitionImage(dst, img []byte, c codec.Codec) ([]byte, error) {
	if c.ID() != codec.IDGzip {
		dst = append(dst, contMagic...)
		dst = binary.LittleEndian.AppendUint16(dst, contVersion)
		dst = append(dst, c.ID())
	}
	return c.Compress(dst, img, gzipLevel)
}

// decodePartitionImage decodes one on-disk partition blob (either
// framing) into a fresh arena sized by rawHint. The arena is deliberately
// NOT pooled — parsePartition subslices it into chunk payloads.
func decodePartitionImage(comp []byte, rawHint int) ([]byte, error) {
	hint := rawHint
	if hint <= 0 {
		hint = 64 << 10
	}
	// Legacy framing: a bare gzip stream (v1/v2 files, and everything the
	// gzip codec writes today).
	c, payload := codec.MustByID(codec.IDGzip), comp
	if len(comp) < 2 || comp[0] != 0x1f || comp[1] != 0x8b {
		version, r, err := durable.OpenUnsealed(comp, contMagic, 2, contVersion)
		if err != nil {
			return nil, err
		}
		id := r.U8()
		if version != contVersion || r.Err() != nil {
			return nil, fmt.Errorf("%w: container version %d, %d header bytes", durable.ErrCorrupt, version, len(comp))
		}
		if c, err = codec.ByID(id); err != nil {
			return nil, fmt.Errorf("%w: codec id %d", durable.ErrUnsupported, id)
		}
		payload = comp[r.Offset():]
	}
	img, err := c.Decompress(make([]byte, 0, hint), payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", durable.ErrCorrupt, c.Name(), err)
	}
	return img, nil
}

// writeImageFileAt codec-compresses a serialized partition image and
// publishes it at path (durable.Publish), returning the compressed file
// size and the number of fsyncs issued.
//
// A directory-sync failure after the rename reports success: the file is
// published, and the data and the rename's dirent both hit the disk no
// later than the manifest write that follows, which fsyncs the same
// directory. Treating it as a write failure left the partition dirty
// forever — re-flushed on every Flush with DiskWrites/FsyncCount
// double-counting the same bytes.
func writeImageFileAt(fs faultfs.FS, path string, img []byte, c codec.Codec) (size, fsyncs int64, err error) {
	comp, err := encodePartitionImage(grabBuf(), img, c)
	if err != nil {
		releaseBuf(comp)
		return 0, 0, fmt.Errorf("colstore: compress partition %s: %w", path, err)
	}
	defer releaseBuf(comp)
	n, err := durable.Publish(fs, path, func(w io.Writer) error {
		_, err := w.Write(comp)
		return err
	})
	if err != nil && !errors.Is(err, durable.ErrDirSync) {
		return 0, int64(n), fmt.Errorf("colstore: write partition file %s: %w", path, err)
	}
	return int64(len(comp)), int64(n), nil
}

// writePartitionFileAt serializes a chunk snapshot and writes it at path
// (see writeImageFileAt for the durability protocol). raw is the
// uncompressed image size, recorded in the manifest so a later page-in can
// size its decode arena exactly. Holds no Store locks: chunks are
// immutable, so the snapshot can be serialized concurrently with puts
// appending to the live partition.
func writePartitionFileAt(fs faultfs.FS, path string, chunks []*chunk, c codec.Codec) (size, raw, fsyncs int64, err error) {
	img := serializePartition(grabBuf(), chunks)
	size, fsyncs, err = writeImageFileAt(fs, path, img, c)
	raw = int64(len(img))
	releaseBuf(img)
	return size, raw, fsyncs, err
}

// writePartitionLocked writes a partition's current chunks while the
// caller holds mu (eviction and DropCache stragglers use it; Flush and
// Compact use writeSnapshots instead).
func (s *Store) writePartitionLocked(p *partition) error {
	t0 := time.Now()
	size, raw, fsyncs, err := writePartitionFileAt(s.fs, s.partPathGen(p.id, p.gen), p.chunks, s.codec)
	s.om.flushWriteSeconds.ObserveSince(t0)
	s.stats.FsyncCount += fsyncs
	if err != nil {
		return fmt.Errorf("colstore: write partition %d: %w", p.id, err)
	}
	p.dirty = false
	p.onDisk = true
	p.diskChunks = len(p.chunks)
	p.raw = raw
	s.stats.DiskWrites++
	s.stats.DiskWriteBytes += size
	s.om.codecRawBytes.Add(raw)
	s.om.codecFileBytes.Add(size)
	return nil
}

// fileCodecID sniffs which codec wrote the partition file at path by
// reading only the framing header. Gzip magic — which covers v1/v2
// legacy files as well as everything the gzip codec writes today — maps
// to IDGzip; a v3 container names its codec directly. Unknown leading
// bytes are an error, never a guess.
func fileCodecID(path string) (byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [contHdrLen]byte
	n, err := io.ReadFull(f, hdr[:])
	if err != nil && err != io.ErrUnexpectedEOF {
		return 0, err
	}
	b := hdr[:n]
	switch {
	case len(b) >= 2 && b[0] == 0x1f && b[1] == 0x8b:
		return codec.IDGzip, nil
	case len(b) >= contHdrLen && string(b[:4]) == contMagic:
		return b[6], nil
	default:
		return 0, fmt.Errorf("not a partition file (bad leading bytes)")
	}
}

// readPartitionFile opens, decompresses, decodes and checksum-verifies
// one partition file. rawHint, when positive, is the manifest's record of
// the uncompressed image size: the decode arena is allocated at exactly
// that size up front (a stale hint just costs a regrow). Holds no Store
// locks; safe to run concurrently with writers thanks to the atomic
// temp-and-rename write protocol.
func readPartitionFile(path string, rawHint int64) (chunks []*chunk, payload, fileBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, 0, err
	}
	// Slurp the compressed file through a pooled buffer: partition files
	// are a few MB at most (PartitionTargetBytes before compression).
	comp := grabBuf()
	if cap(comp) < int(st.Size()) {
		comp = make([]byte, st.Size())
	} else {
		comp = comp[:st.Size()]
	}
	_, err = io.ReadFull(f, comp)
	f.Close()
	if err != nil {
		releaseBuf(comp)
		return nil, 0, 0, fmt.Errorf("read %s: %w", path, err)
	}
	img, err := decodePartitionImage(comp, int(rawHint))
	releaseBuf(comp)
	if err != nil {
		return nil, 0, 0, err
	}
	chunks, payload, err = parsePartition(img)
	if err != nil {
		return nil, 0, 0, err
	}
	return chunks, payload, st.Size(), nil
}

// loadPartitionLocked returns the resident partition, reading it from disk
// if its payload was evicted. The caller holds mu for the whole IO — this
// is the slow path kept for the lock-held walkers (Verify and Compact);
// the concurrent read path is Store.chunkRef.
func (s *Store) loadPartitionLocked(pid int64) (*partition, error) {
	p, ok := s.parts[pid]
	if !ok {
		// Unavailable, not corrupt — mirrors chunkRef: a vanished partition
		// (e.g. a dead tombstone Compact already dropped) must read as a
		// recoverable loss, so delta resolution marks dependents lost instead
		// of quarantining their intact files.
		return nil, fmt.Errorf("colstore: unknown partition %d: %w", pid, ErrUnavailable)
	}
	if p.lost {
		return nil, fmt.Errorf("colstore: partition %d: %w", pid, ErrUnavailable)
	}
	if p.chunks != nil {
		s.touchLocked(pid)
		return p, nil
	}
	chunks, payload, fileBytes, err := readPartitionFile(s.partPathGen(pid, p.gen), p.raw)
	if err != nil {
		s.quarantineLocked(p, err)
		return nil, fmt.Errorf("colstore: read partition %d: %v: %w", pid, err, ErrUnavailable)
	}
	// Resolve delta generations while still holding mu: bases live in
	// strictly earlier partitions, so the recursion terminates, and mu is
	// already held so the recursive load uses this same slow path.
	added, deltaLost, derr := resolveDeltaChunks(pid, chunks, func(bid ChunkID) (*chunk, error) {
		if _, bad := s.lostChunks[bid]; bad {
			return nil, fmt.Errorf("colstore: chunk %d/%d: %w", bid.Partition, bid.Index, ErrUnavailable)
		}
		bp, err := s.loadPartitionLocked(bid.Partition)
		if err != nil {
			return nil, err
		}
		return chunkAtLocked(bp, bid)
	})
	if derr != nil {
		s.quarantineLocked(p, derr)
		return nil, fmt.Errorf("colstore: read partition %d: %v: %w", pid, derr, ErrUnavailable)
	}
	payload += added
	if deltaLost {
		s.markUnresolvedLostLocked(pid, chunks)
	}
	if err := s.installLocked(p, chunks, payload, fileBytes); err != nil {
		return nil, err
	}
	return p, nil
}

// chunkPrealloc caps the chunk-slice capacity taken from the header.
const chunkPrealloc = 1 << 12

// parsePartition decodes and checksum-verifies an uncompressed partition
// image. Chunk payloads are subslices of img (chunks are immutable and a
// partition's payloads live and die together, so one arena replaces a pair
// of allocations per chunk); img must therefore not be reused afterwards.
// A future image version is durable.ErrUnsupported whatever the rest of
// the bytes say; every other rejection wraps durable.ErrCorrupt.
func parsePartition(img []byte) ([]*chunk, int64, error) {
	version, r, err := durable.OpenUnsealed(img, partMagic, 2, partVersionDelta)
	if err == nil && version >= 2 {
		// v1 predates the checksums; everything since is a sealed image.
		_, r, err = durable.Open(img, partMagic, 2, partVersionDelta)
	}
	if err != nil {
		return nil, 0, err
	}
	// Every chunk carries at least its 12-byte meta.
	n := r.Fit(uint64(r.U32()), 12)
	prealloc := min(n, chunkPrealloc)
	chunks := make([]*chunk, 0, prealloc)
	// Chunk and quantizer structs come out of per-partition slabs (two
	// allocations instead of two per chunk). Pointers are taken only while
	// len < cap, so append never relocates a referenced element; past the
	// prealloc they fall back to singles.
	chunkSlab := make([]chunk, 0, prealloc)
	quantSlab := make([]quant.Quantizer, 0, prealloc)
	var payload int64
	for i := 0; i < n; i++ {
		metaStart := r.Offset()
		isDelta := false
		if version >= partVersionDelta {
			switch flags := r.U8(); flags {
			case 0:
			case 1:
				isDelta = true
			default:
				r.Failf("chunk %d unknown flags %#x", i, flags)
			}
		}
		count, qlen, elen := int(r.U32()), int(r.U32()), int(r.U32())
		var base ChunkID
		var depth int
		var fullCRC uint32
		if isDelta {
			base.Partition = int64(r.U64())
			base.Index = int(r.U32())
			depth = int(r.U16())
			fullCRC = r.U32()
			if base.Partition < 0 || depth < 1 {
				r.Failf("chunk %d implausible delta base %d/%d depth %d", i, base.Partition, base.Index, depth)
			}
		}
		qb := r.Bytes(qlen)
		enc := r.Bytes(elen)
		if version >= 2 {
			// flags, meta, delta extras, quantizer and payload are
			// contiguous in the image: one Checksum covers them all.
			got := crc32.Checksum(img[metaStart:r.Offset()], durable.Castagnoli)
			if want := r.U32(); got != want {
				r.Failf("chunk %d checksum mismatch: file says %08x, data hashes to %08x", i, want, got)
			}
		}
		if err := r.Err(); err != nil {
			return nil, 0, err
		}
		var q *quant.Quantizer
		if len(quantSlab) < cap(quantSlab) {
			quantSlab = append(quantSlab, quant.Quantizer{})
			q = &quantSlab[len(quantSlab)-1]
		} else {
			q = new(quant.Quantizer)
		}
		if err := q.UnmarshalBinary(qb); err != nil {
			return nil, 0, fmt.Errorf("chunk %d quantizer: %w", i, err)
		}
		nc := chunk{enc: enc, count: count, q: q}
		if isDelta {
			// The payload is the residual; enc stays nil until the caller
			// resolves the base chain (resolveDeltaChunks).
			nc = chunk{count: count, q: q, delta: enc, base: base, depth: depth, fullCRC: fullCRC}
		}
		var c *chunk
		if len(chunkSlab) < cap(chunkSlab) {
			chunkSlab = append(chunkSlab, nc)
			c = &chunkSlab[len(chunkSlab)-1]
		} else {
			c = &chunk{}
			*c = nc
		}
		chunks = append(chunks, c)
		payload += int64(elen)
	}
	if version >= 2 {
		if err := r.End(); err != nil {
			return nil, 0, err
		}
	}
	return chunks, payload, nil
}

func mkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			// Temp files vanish mid-walk when a flush or compaction races
			// the scan; they are not part of the footprint.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
