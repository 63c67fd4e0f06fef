package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"mistique/internal/durable"
)

// This file implements the store's index support (Sec. 6 / Sec. 8.3 of the
// paper): a primary index by row position (RowBlocks are row-aligned, so a
// row range maps directly to a block range) and per-chunk zone maps
// (min/max of the reconstructed values) that let predicate scans skip
// chunks — "find examples with neuron-50 activation > 0.5" without reading
// every partition.

// zone is the min/max summary of one chunk's reconstructed values.
type zone struct {
	min, max float32
	count    int
}

// zoneOf computes the zone map for a chunk's raw values.
func zoneOf(vals []float32) zone {
	z := zone{min: float32(math.Inf(1)), max: float32(math.Inf(-1)), count: len(vals)}
	for _, v := range vals {
		if v < z.min {
			z.min = v
		}
		if v > z.max {
			z.max = v
		}
	}
	return z
}

// Op is a comparison predicate for zone-map scans.
type Op int

const (
	// Gt selects values strictly greater than the bound.
	Gt Op = iota
	// Ge selects values greater than or equal to the bound.
	Ge
	// Lt selects values strictly less than the bound.
	Lt
	// Le selects values less than or equal to the bound.
	Le
)

func (o Op) String() string {
	switch o {
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Lt:
		return "<"
	}
	return "<="
}

func (o Op) matches(v, bound float32) bool {
	switch o {
	case Gt:
		return v > bound
	case Ge:
		return v >= bound
	case Lt:
		return v < bound
	default:
		return v <= bound
	}
}

// canSkip reports whether no value in the zone can match the predicate.
func (z zone) canSkip(op Op, bound float32) bool {
	switch op {
	case Gt:
		return z.max <= bound
	case Ge:
		return z.max < bound
	case Lt:
		return z.min >= bound
	default:
		return z.min > bound
	}
}

// ScanMatch is one matching value from a predicate scan.
type ScanMatch struct {
	// Row is the global row offset (block * RowBlockRows + offset in block).
	Row int
	// Value is the reconstructed value at that row.
	Value float32
}

// ScanColumn evaluates `value op bound` over all blocks of a logical
// column, using zone maps to skip chunks that cannot match. Returns the
// matches in row order and the number of chunks skipped (for tests and
// EXPLAIN-style diagnostics).
func (s *Store) ScanColumn(model, interm, column string, op Op, bound float32) (matches []ScanMatch, skipped int, err error) {
	blockRows := s.cfg.RowBlockRows
	// Resolve the block chain and apply zone pruning under the index lock;
	// chunk reads and value comparisons run outside it.
	type blockRef struct {
		block int
		id    ChunkID
	}
	var refs []blockRef
	s.mu.Lock()
	for b := 0; ; b++ {
		key := ColumnKey{Model: model, Intermediate: interm, Column: column, Block: b}
		id, ok := s.columns[key]
		if !ok {
			if b == 0 {
				s.mu.Unlock()
				return nil, 0, fmt.Errorf("colstore: column %s: %w", key, ErrNotStored)
			}
			break
		}
		if z, ok := s.zones[id]; ok && z.canSkip(op, bound) {
			skipped++
			continue
		}
		refs = append(refs, blockRef{block: b, id: id})
	}
	s.mu.Unlock()

	for _, ref := range refs {
		vals, err := s.readChunkInto(nil, ref.id)
		if err != nil {
			return nil, skipped, err
		}
		base := ref.block * blockRows
		for i, v := range vals {
			if op.matches(v, bound) {
				matches = append(matches, ScanMatch{Row: base + i, Value: v})
			}
		}
	}
	return matches, skipped, nil
}

// ZoneInfo is the exported per-RowBlock summary of one column chunk. An
// inverted range (Min > Max) means the block's bounds are unknown or every
// value in it is NaN; consumers must treat such a block as unprunable.
type ZoneInfo struct {
	Min, Max float32
	Count    int
}

// ColumnZones returns the per-RowBlock zone summaries of a logical column
// in block order — the same min/max bounds the scan path prunes with,
// exposed so the neuron-centric index (internal/nindex) and the KNN block
// pruner can reason about blocks without reading them.
func (s *Store) ColumnZones(model, interm, column string) ([]ZoneInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ZoneInfo
	for b := 0; ; b++ {
		key := ColumnKey{Model: model, Intermediate: interm, Column: column, Block: b}
		id, ok := s.columns[key]
		if !ok {
			if b == 0 {
				return nil, fmt.Errorf("colstore: column %s: %w", key, ErrNotStored)
			}
			break
		}
		z, ok := s.zones[id]
		if !ok {
			// No summary recorded (shouldn't happen for a put chunk, but a
			// reconciled manifest may lack one): report unprunable bounds.
			z = zone{min: float32(math.Inf(1)), max: float32(math.Inf(-1))}
		}
		out = append(out, ZoneInfo{Min: z.min, Max: z.max, Count: z.count})
	}
	return out, nil
}

// ColumnSignature returns a CRC32-C fingerprint of a logical column's
// physical identity: every block's chunk id plus the owning partition's
// file generation. Any re-materialization (heal, re-log) maps the column
// to fresh chunk ids and any compaction bumps a generation, so a stored
// secondary index stamped with this signature can detect that its source
// moved and rebuild instead of trusting stale data.
func (s *Store) ColumnSignature(model, interm, column string) (uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := crc32.New(durable.Castagnoli)
	var buf [24]byte
	for b := 0; ; b++ {
		key := ColumnKey{Model: model, Intermediate: interm, Column: column, Block: b}
		id, ok := s.columns[key]
		if !ok {
			if b == 0 {
				return 0, fmt.Errorf("colstore: column %s: %w", key, ErrNotStored)
			}
			break
		}
		var gen, count int64
		if p, ok := s.parts[id.Partition]; ok {
			gen = int64(p.gen)
		}
		if z, ok := s.zones[id]; ok {
			count = int64(z.count)
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(id.Partition))
		binary.LittleEndian.PutUint32(buf[8:], uint32(id.Index))
		binary.LittleEndian.PutUint32(buf[12:], uint32(gen))
		binary.LittleEndian.PutUint64(buf[16:], uint64(count))
		h.Write(buf[:])
	}
	return h.Sum32(), nil
}

// GetColumnRange reads rows [from, to) of a logical column, touching only
// the covering RowBlocks (the primary index: blocks are row-aligned).
func (s *Store) GetColumnRange(model, interm, column string, from, to int) ([]float32, error) {
	if from < 0 || to < from {
		return nil, fmt.Errorf("colstore: bad row range [%d, %d)", from, to)
	}
	blockRows := s.cfg.RowBlockRows
	firstBlock := from / blockRows
	// Resolve the covering block ids under the index lock, then decode
	// outside it.
	var ids []ChunkID
	s.mu.Lock()
	for b := firstBlock; b*blockRows < to; b++ {
		key := ColumnKey{Model: model, Intermediate: interm, Column: column, Block: b}
		id, ok := s.columns[key]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("colstore: column %s (range [%d,%d)): %w", key, from, to, ErrNotStored)
		}
		ids = append(ids, id)
	}
	s.mu.Unlock()
	out := make([]float32, 0, to-from)
	for bi, id := range ids {
		b := firstBlock + bi
		vals, err := s.readChunkInto(nil, id)
		if err != nil {
			return nil, err
		}
		base := b * blockRows
		lo := maxI(from-base, 0)
		hi := minI(to-base, len(vals))
		if lo > len(vals) {
			return nil, fmt.Errorf("colstore: row range [%d,%d) beyond column %s.%s.%s", from, to, model, interm, column)
		}
		out = append(out, vals[lo:hi]...)
		if len(vals) < blockRows {
			break
		}
	}
	if len(out) < to-from {
		return nil, fmt.Errorf("colstore: column %s.%s.%s has too few rows for [%d,%d)", model, interm, column, from, to)
	}
	return out, nil
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
