package mistique

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mistique/internal/colstore"
	"mistique/internal/durable"
	"mistique/internal/metadata"
	"mistique/internal/sample"
	"mistique/internal/wal"
)

// Streaming ingest: a live training job pushes row batches into an
// intermediate without a resident model. Each (model, intermediate) stream
// owns a write-ahead log under <dir>/data/wal; a batch is acknowledged
// only after its WAL record is fsynced, then it feeds the reservoir
// sampler (so approximate queries see acknowledged rows immediately) and
// accumulates in an open RowBlock. Full blocks cut into the column store
// as they fill; the partial tail drains at Flush, after which the WAL
// shrinks back to its header record. Replay on Open re-offers every
// acknowledged batch idempotently — rows already durable in partitions or
// already counted by the sampler are skipped by row id.
//
// Stream models have metadata.Kind Stream: no stages, no RERUN strategy.
// Exact queries answer from drained rows; approximate queries answer from
// the sampler and may be fresher than exact ones.

// Stream WAL record types. The first record of every stream WAL is a
// header naming the stream (the file itself is hash-named); all later
// records are row batches.
const (
	streamRecHeader = 1
	streamRecBatch  = 2
)

func encodeStreamHeader(model, interm string, cols []string) []byte {
	buf := []byte{streamRecHeader}
	buf = binary.AppendUvarint(buf, uint64(len(model)))
	buf = append(buf, model...)
	buf = binary.AppendUvarint(buf, uint64(len(interm)))
	buf = append(buf, interm...)
	buf = binary.AppendUvarint(buf, uint64(len(cols)))
	for _, c := range cols {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
		buf = append(buf, c...)
	}
	return buf
}

func decodeStreamHeader(rec []byte) (model, interm string, cols []string, err error) {
	r := durable.NewReader(rec)
	if r.U8() != streamRecHeader {
		r.Failf("not a stream header record")
	}
	model = r.String(maxStreamName)
	interm = r.String(maxStreamName)
	cols = make([]string, r.Count(1))
	for i := range cols {
		cols[i] = r.String(maxStreamName)
	}
	if err := r.End(); err != nil {
		return "", "", nil, err
	}
	return model, interm, cols, nil
}

func encodeStreamBatch(startRow int64, nCols int, rows [][]float32) []byte {
	buf := make([]byte, 0, 1+3*binary.MaxVarintLen64+4*len(rows)*nCols)
	buf = append(buf, streamRecBatch)
	buf = binary.AppendUvarint(buf, uint64(startRow))
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(nCols))
	var w [4]byte
	for _, r := range rows {
		for _, v := range r {
			binary.LittleEndian.PutUint32(w[:], math.Float32bits(v))
			buf = append(buf, w[:]...)
		}
	}
	return buf
}

func decodeStreamBatch(rec []byte) (startRow int64, nRows, nCols int, vals []float32, err error) {
	r := durable.NewReader(rec)
	if r.U8() != streamRecBatch {
		r.Failf("not a stream batch record")
	}
	startRow = int64(r.Uvarint(1 << 62))
	nRows = int(r.Uvarint(1 << 32))
	if nCols = int(r.Uvarint(1 << 16)); nCols == 0 {
		r.Failf("batch without columns") // nothing would bound nRows
	}
	vals = r.Floats(nRows * nCols)
	if err := r.End(); err != nil {
		return 0, 0, 0, nil, err
	}
	return startRow, nRows, nCols, vals, nil
}

// maxStreamName bounds the model, intermediate and column names a stream
// header may carry.
const maxStreamName = 1 << 16

// streamState is one live (model, intermediate) ingest stream.
type streamState struct {
	mu     sync.Mutex
	model  string
	interm string
	cols   []string

	log       *wal.Log
	headerRec []byte
	sampler   *sample.Builder

	// rows counts acknowledged (WAL-durable) rows; drained counts rows
	// written into store partitions. blockStart is the first row of the
	// open block, whose values (from blockStart, including any rows a tail
	// drain already put) sit column-major in pend so a refilled block can
	// be re-put whole.
	rows       int64
	drained    int64
	blockStart int64
	pend       [][]float32
}

// IngestResult acknowledges one streaming batch.
type IngestResult struct {
	Model        string
	Intermediate string
	// Rows is the total acknowledged row count after this batch; every
	// acknowledged row survives any crash (it is in the WAL or in durable
	// partitions).
	Rows int64
	// FlushedRows is how many rows exact queries can currently see (rows
	// cut into partitions). Approximate queries see all Rows.
	FlushedRows int64
	// WALBytes is the stream's current WAL size.
	WALBytes int64
}

func streamKey(model, interm string) string { return model + "\x00" + interm }

func (s *System) walDir() string { return filepath.Join(s.dir, "data", "wal") }

func walPath(dir, model, interm string) string {
	h := fnv.New64a()
	h.Write([]byte(model))
	h.Write([]byte{0})
	h.Write([]byte(interm))
	return filepath.Join(dir, fmt.Sprintf("strm_%016x.wal", h.Sum64()))
}

// IngestRows appends a batch of rows to a streaming intermediate, creating
// the stream (and its catalog entries) on first use. Every row must have
// len(cols) values, and cols must match the stream's columns on every
// call. When IngestRows returns nil the batch is acknowledged: its WAL
// record is fsynced and the rows survive any crash.
func (s *System) IngestRows(model, interm string, cols []string, rows [][]float32) (*IngestResult, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("mistique: ingest %s.%s: no columns", model, interm)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("mistique: ingest %s.%s: empty batch", model, interm)
	}
	for i, r := range rows {
		if len(r) != len(cols) {
			return nil, fmt.Errorf("mistique: ingest %s.%s: row %d has %d values, want %d", model, interm, i, len(r), len(cols))
		}
	}
	st, err := s.ensureStream(model, interm, cols)
	if err != nil {
		return nil, err
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if !equalCols(st.cols, cols) {
		return nil, fmt.Errorf("mistique: ingest %s.%s: columns %v do not match stream columns %v", model, interm, cols, st.cols)
	}
	rec := encodeStreamBatch(st.rows, len(cols), rows)
	if err := st.log.Append(rec); err != nil {
		return nil, fmt.Errorf("mistique: ingest %s.%s: %w", model, interm, err)
	}
	s.metrics.streamBatches.Inc()
	s.metrics.streamRows.Add(int64(len(rows)))
	s.metrics.walAppendBytes.Add(int64(len(rec)) + 8)
	// Acknowledged: feed the sampler (the whole batch at once, so a
	// sampled answer always covers whole batches) and the open block.
	_ = st.sampler.AddRows(rows) // row widths were checked above
	for _, r := range rows {
		for j, v := range r {
			st.pend[j] = append(st.pend[j], v)
		}
	}
	st.rows += int64(len(rows))
	if err := st.cutFullBlocksLocked(s); err != nil {
		return nil, err
	}
	return &IngestResult{
		Model:        model,
		Intermediate: interm,
		Rows:         st.rows,
		FlushedRows:  st.drained,
		WALBytes:     st.log.Size(),
	}, nil
}

func equalCols(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ensureStream returns the live state for (model, interm), creating the
// catalog entries, WAL and sampler on first use.
func (s *System) ensureStream(model, interm string, cols []string) (*streamState, error) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if st, ok := s.streams[streamKey(model, interm)]; ok {
		return st, nil
	}
	if m := s.meta.Model(model); m != nil {
		if m.Kind != metadata.Stream {
			return nil, fmt.Errorf("mistique: model %q is %s, not a stream", model, m.Kind)
		}
	} else {
		if err := s.meta.RegisterModel(&metadata.Model{Name: model, Kind: metadata.Stream}); err != nil {
			return nil, err
		}
	}
	if it, ok := s.meta.IntermSnapshot(model, interm); ok {
		if !equalCols(it.Columns, cols) {
			return nil, fmt.Errorf("mistique: stream %s.%s has columns %v, got %v", model, interm, it.Columns, cols)
		}
	} else {
		err := s.meta.AddIntermediate(model, &metadata.Interm{
			Name:        interm,
			StageIndex:  -1,
			Columns:     append([]string(nil), cols...),
			QuantScheme: string(SchemeFull),
		})
		if err != nil {
			return nil, err
		}
	}
	st, err := s.openStream(model, interm, cols)
	if err != nil {
		return nil, err
	}
	s.streams[streamKey(model, interm)] = st
	return st, nil
}

// openStream opens (or creates) the WAL and sampler for a stream and
// positions the open block after the catalog's durable rows.
func (s *System) openStream(model, interm string, cols []string) (*streamState, error) {
	if err := os.MkdirAll(s.walDir(), 0o755); err != nil {
		return nil, fmt.Errorf("mistique: %w", err)
	}
	path := walPath(s.walDir(), model, interm)
	l, res, err := wal.Open(path, s.cfg.Store.FS)
	if err != nil {
		return nil, fmt.Errorf("mistique: open stream wal: %w", err)
	}
	if res.TornBytes > 0 {
		s.metrics.walTruncatedTails.Inc()
	}
	st := &streamState{
		model:     model,
		interm:    interm,
		cols:      append([]string(nil), cols...),
		log:       l,
		headerRec: encodeStreamHeader(model, interm, cols),
		pend:      make([][]float32, len(cols)),
	}
	if len(res.Records) == 0 {
		if err := l.Append(st.headerRec); err != nil {
			l.Close()
			return nil, fmt.Errorf("mistique: stream wal header: %w", err)
		}
	}
	smp, err := s.samples.Read(model, interm)
	if err != nil {
		l.Close()
		return nil, err
	}
	if smp != nil && equalCols(smp.Cols, cols) {
		st.sampler = sample.Resume(smp)
	} else {
		st.sampler = sample.NewBuilder(cols, sample.Config{Cap: s.sampleCap})
	}
	// Resume behind the catalog's durable rows: reload the partial tail
	// block (if any) from the store so it can be re-put whole when it
	// fills.
	it, ok := s.meta.IntermSnapshot(model, interm)
	if ok && it.Rows > 0 {
		base := int64(it.Rows)
		blockRows := int64(s.store.RowBlockRows())
		st.rows, st.drained = base, base
		st.blockStart = base - base%blockRows
		if st.blockStart < base {
			for j, c := range cols {
				vals, err := s.store.GetColumnRange(model, interm, c, int(st.blockStart), int(base))
				if err != nil {
					if recoverableReadErr(err) {
						// The tail block's chunks are gone (quarantined or
						// lost). Fail soft: restart the open block empty;
						// new rows overwrite the lost tail's row ids.
						st.rows, st.drained = st.blockStart, st.blockStart
						for k := range st.pend {
							st.pend[k] = nil
						}
						break
					}
					l.Close()
					return nil, fmt.Errorf("mistique: reload stream tail %s.%s.%s: %w", model, interm, c, err)
				}
				st.pend[j] = vals
			}
		}
	}
	return st, nil
}

// cutFullBlocksLocked moves every full RowBlock from the open block into
// the column store and advances the catalog. Caller holds st.mu.
func (st *streamState) cutFullBlocksLocked(s *System) error {
	blockRows := int64(s.store.RowBlockRows())
	for int64(len(st.pend[0])) >= blockRows {
		if err := st.putOpenBlockLocked(s, int(blockRows)); err != nil {
			return err
		}
		st.blockStart += blockRows
		for j := range st.pend {
			st.pend[j] = append(st.pend[j][:0], st.pend[j][blockRows:]...)
		}
		st.drained = st.blockStart
	}
	return nil
}

// drainTailLocked puts the open block's partial tail (rows not yet in the
// store) so the flush that follows makes every acknowledged row durable in
// partitions. The tail rows stay in pend: the block is still open and will
// be re-put whole when it fills. Caller holds st.mu.
func (st *streamState) drainTailLocked(s *System) error {
	if st.drained >= st.rows {
		return nil
	}
	if err := st.putOpenBlockLocked(s, len(st.pend[0])); err != nil {
		return err
	}
	st.drained = st.rows
	return nil
}

// putOpenBlockLocked writes the first n pending rows of the open block to
// the store (replacing any previous shorter cut of the same block) and
// advances the catalog row count to cover them.
func (st *streamState) putOpenBlockLocked(s *System, n int) error {
	block := int(st.blockStart) / s.store.RowBlockRows()
	var delta int64
	for j, c := range st.cols {
		key := colstore.ColumnKey{Model: st.model, Intermediate: st.interm, Column: c, Block: block}
		// Replace, not put: an earlier drain may have cut a shorter prefix
		// of this still-open block under the same key, and the swap must be
		// atomic so concurrent readers always resolve the key.
		res, err := s.store.PutColumnReplace(key, st.pend[j][:n], nil)
		if err != nil {
			return fmt.Errorf("mistique: stream store %s: %w", key, err)
		}
		delta += res.EncodedBytes
	}
	return s.meta.AddStreamRows(st.model, st.interm, int(st.blockStart)+n, block+1, delta)
}

// checkpointLocked persists the sampler snapshot and shrinks the WAL back
// to its header record. Called by Flush strictly after the store and the
// catalog are durable; a crash before the rewrite replays the records
// idempotently. Caller holds st.mu.
func (st *streamState) checkpointLocked(s *System) error {
	if err := s.samples.Publish(st.model, st.interm, st.sampler.Snapshot()); err != nil {
		return err
	}
	if err := st.log.Rewrite([][]byte{st.headerRec}); err != nil {
		return fmt.Errorf("mistique: stream wal checkpoint %s.%s: %w", st.model, st.interm, err)
	}
	s.metrics.walRewrites.Inc()
	return nil
}

// streamFor returns the live stream state, or nil.
func (s *System) streamFor(model, interm string) *streamState {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	return s.streams[streamKey(model, interm)]
}

// lockAllStreams locks every stream state in deterministic order (so Flush
// cannot deadlock against itself) and returns them.
func (s *System) lockAllStreams() []*streamState {
	s.streamMu.Lock()
	sts := make([]*streamState, 0, len(s.streams))
	for _, st := range s.streams {
		sts = append(sts, st)
	}
	s.streamMu.Unlock()
	sort.Slice(sts, func(i, j int) bool {
		if sts[i].model != sts[j].model {
			return sts[i].model < sts[j].model
		}
		return sts[i].interm < sts[j].interm
	})
	for _, st := range sts {
		st.mu.Lock()
	}
	return sts
}

func unlockStreams(sts []*streamState) {
	for _, st := range sts {
		st.mu.Unlock()
	}
}

// dropStreams removes every stream of a model: the live state, its WAL
// file and its persisted sample.
func (s *System) dropStreams(model string) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	for key, st := range s.streams {
		if st.model != model {
			continue
		}
		st.mu.Lock()
		st.log.Close()
		os.Remove(st.log.Path())
		st.mu.Unlock()
		s.samples.Remove(st.model, st.interm)
		delete(s.streams, key)
	}
}

// replayStreams scans <dir>/data/wal at Open and rebuilds every stream
// state from its log: acknowledged rows not yet durable in partitions are
// re-put (identical full blocks dedup away) and rows beyond the persisted
// sample's horizon are re-offered to the sampler — both keyed purely on
// row id, so replay is idempotent across repeated crashes. A log that is
// not a WAL, or whose records are inconsistent (bad header, column
// mismatch, row-id gap), is durable.ErrCorrupt and quarantined (renamed
// *.corrupt) rather than trusted: the durable partition prefix remains
// queryable. A log a newer binary wrote fails the open and stays in place.
func (s *System) replayStreams() error {
	dir := s.walDir()
	durable.SweepTemps(s.cfg.Store.FS, dir) // a crashed checkpoint's *.wal.tmp*
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".wal") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		err := s.replayOneStream(path)
		if errors.Is(err, durable.ErrCorrupt) {
			err = durable.Quarantine(s.cfg.Store.FS, path)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *System) replayOneStream(path string) error {
	l, res, err := wal.Open(path, s.cfg.Store.FS)
	if err != nil {
		return err
	}
	if res.TornBytes > 0 {
		s.metrics.walTruncatedTails.Inc()
	}
	if len(res.Records) == 0 {
		// Debris: a log created but crashed before its header record.
		l.Close()
		os.Remove(path)
		return nil
	}
	model, interm, cols, err := decodeStreamHeader(res.Records[0])
	if err != nil {
		l.Close()
		return fmt.Errorf("stream wal %s: %w", path, err)
	}
	// The catalog may have been quarantined; re-register from the header.
	if m := s.meta.Model(model); m == nil {
		if err := s.meta.RegisterModel(&metadata.Model{Name: model, Kind: metadata.Stream}); err != nil {
			l.Close()
			return err
		}
	}
	if _, ok := s.meta.IntermSnapshot(model, interm); !ok {
		err := s.meta.AddIntermediate(model, &metadata.Interm{
			Name:        interm,
			StageIndex:  -1,
			Columns:     append([]string(nil), cols...),
			QuantScheme: string(SchemeFull),
		})
		if err != nil {
			l.Close()
			return err
		}
	}
	// Reuse the normal open path for sampler + tail reload, then replace
	// its fresh log handle with the one we already decoded.
	l.Close()
	st, err := s.openStream(model, interm, cols)
	if err != nil {
		return err
	}
	samplerSeen := st.sampler.Seen()
	for _, rec := range res.Records[1:] {
		startRow, nRows, nCols, vals, err := decodeStreamBatch(rec)
		if err == nil && nCols != len(cols) {
			err = fmt.Errorf("%w: batch of %d columns, stream has %d", durable.ErrCorrupt, nCols, len(cols))
		}
		if err != nil {
			st.log.Close()
			return fmt.Errorf("stream wal %s: %w", path, err)
		}
		for r := 0; r < nRows; r++ {
			rowID := startRow + int64(r)
			row := vals[r*nCols : (r+1)*nCols]
			if rowID == samplerSeen {
				st.sampler.Add(row)
				samplerSeen++
			}
			switch {
			case rowID < st.rows:
				// Already durable in partitions.
			case rowID == st.rows:
				for j := 0; j < nCols; j++ {
					st.pend[j] = append(st.pend[j], row[j])
				}
				st.rows++
			default:
				st.log.Close()
				return fmt.Errorf("stream wal %s: %w: row gap at %d", path, durable.ErrCorrupt, rowID)
			}
		}
		if err := st.cutFullBlocksLocked(s); err != nil {
			st.log.Close()
			return err
		}
		s.metrics.walReplayedRecords.Inc()
	}
	s.metrics.walReplays.Inc()
	s.streams[streamKey(model, interm)] = st
	return nil
}

// streamWALStats sums append/fsync counts and file sizes across live
// streams for the metrics fold.
func (s *System) streamWALStats() (appends, syncs, bytes int64, n int) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	for _, st := range s.streams {
		a, y := st.log.Stats()
		appends += a
		syncs += y
		bytes += st.log.Size()
		n++
	}
	return appends, syncs, bytes, n
}
