package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"mistique/internal/durable"
	"mistique/internal/nindex"
)

// This file implements the store's index support (Sec. 6 / Sec. 8.3 of the
// paper): the primary index by row position. RowBlocks are row-aligned, so
// a row range maps directly to a block range. The only secondary index is
// the neuron-centric one in internal/nindex, which lives outside the store.

// Op is the comparison predicate of a threshold query; the type is
// nindex.Op, re-exported so callers that only import the store can name it.
type Op = nindex.Op

// The four predicates, as nindex defines them.
const (
	Gt = nindex.Gt
	Ge = nindex.Ge
	Lt = nindex.Lt
	Le = nindex.Le
)

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
	var buf [16]byte
	for b := 0; ; b++ {
		key := ColumnKey{Model: model, Intermediate: interm, Column: column, Block: b}
		id, ok := s.columns[key]
		if !ok {
			if b == 0 {
				return 0, fmt.Errorf("colstore: column %s: %w", key, ErrNotStored)
			}
			break
		}
		var gen int
		if p, ok := s.parts[id.Partition]; ok {
			gen = p.gen
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(id.Partition))
		binary.LittleEndian.PutUint32(buf[8:], uint32(id.Index))
		binary.LittleEndian.PutUint32(buf[12:], uint32(gen))
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
