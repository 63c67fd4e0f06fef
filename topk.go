package mistique

import (
	"context"
	"math"
	"sort"

	"mistique/internal/colstore"
	"mistique/internal/diag"
	"mistique/internal/nindex"
	"mistique/internal/tensor"
)

// This file is the engine's neuron-centric query surface: TOPK ("which
// examples activate neuron j the most") and index-accelerated FilterRows,
// backed by the lazily built per-column indexes of internal/nindex, and
// KNN pruned by the store's zone maps. Every path has a full-scan twin in internal/diag ranked
// by the same pinned comparators (diag.RankLess / diag.DistLess), and the
// differential harness in internal/nindex/oracletest plus the root
// TestIndexScanParity* tests hold the two byte-identical. The indexes are
// a memory-only cache sized by internal/nindex's defaults (64 MiB
// resident, 1024-entry segments).

// TopKEntry is one row of a TOPK answer, in rank order (value descending,
// NaN last, ascending row id on ties).
type TopKEntry struct {
	Row   int
	Value float32
}

// Neighbor is one row of a KNN answer, in rank order (distance ascending,
// NaN last, ascending row id on ties).
type Neighbor struct {
	Row  int
	Dist float64
}

// TopK returns the k rows with the highest values in a column of a
// materialized intermediate — "which inputs activate this neuron the most"
// (the DeepEverest query class). The first call against a column builds
// its index; later calls decode only the prefix segments covering k rows.
func (s *System) TopK(model, interm, column string, k int) ([]TopKEntry, error) {
	return s.TopKCtx(context.Background(), model, interm, column, k)
}

// TopKCtx is TopK under a context, honored at entry and inside the
// column fetch that backs an index build or scan fallback.
func (s *System) TopKCtx(ctx context.Context, model, interm, column string, k int) ([]TopKEntry, error) {
	return s.TopKRangeCtx(ctx, model, interm, column, k, 0, 0)
}

// TopKRangeCtx ranks only global rows [from, to) of a column, in the same
// pinned diag.RankLess order as TopKCtx, returning global row ids. This is
// the shard-local TOPK probe behind the cluster router's scatter-gather
// (internal/cluster): each shard ranks the row-blocks it owns, and because
// every path uses the one comparator, merging per-block candidate lists
// with RankLess again reproduces the single-node answer bit for bit.
// to == 0 or past the end means the row count. The full range is
// index-accelerated.
func (s *System) TopKRangeCtx(ctx context.Context, model, interm, column string, k, from, to int) ([]TopKEntry, error) {
	a, err := s.Execute(ctx, Query{Op: OpTopK, Model: model, Intermediate: interm, Columns: []string{column}, K: k, From: from, To: to})
	if err != nil {
		return nil, err
	}
	return a.TopK, nil
}

// topK is OpTopK's operator: an index probe over the full range, the
// full-scan twin (same comparator) when the probe failed or the range is
// partial.
func (s *System) topK(ctx context.Context, p *Plan) ([]TopKEntry, error) {
	if s.nidx != nil && p.From == 0 && p.To == p.it.Rows {
		if sig, serr := s.store.ColumnSignature(p.Model, p.Intermediate, p.Columns[0]); serr == nil {
			entries, terr := s.nidx.TopK(indexKey(p), sig, p.K, s.columnFetcher(ctx, p))
			if terr == nil {
				out := make([]TopKEntry, len(entries))
				for i, e := range entries {
					out[i] = TopKEntry{Row: e.Row, Value: e.Value}
				}
				return out, nil
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	m, err := s.readRowRange(ctx, p.Model, p.Intermediate, p.Columns, p.From, p.To)
	if err != nil {
		return nil, err
	}
	col := m.Col(0)
	// diag.TopK breaks ties by ascending local offset; adding the constant
	// From preserves that order in global row ids.
	ranked := diag.TopK(col, p.K)
	out := make([]TopKEntry, len(ranked))
	for i, r := range ranked {
		out[i] = TopKEntry{Row: p.From + r, Value: col[r]}
	}
	return out, nil
}

// KNN returns the k rows of a materialized intermediate nearest to row
// queryRow by Euclidean distance over all columns, excluding the query row
// itself. Per-block zone bounds order the blocks by a sound lower bound on
// any member row's distance, so blocks that cannot contribute are never
// read; every returned distance is exact (re-verified on real values).
func (s *System) KNN(model, interm string, queryRow, k int) ([]Neighbor, error) {
	return s.KNNCtx(context.Background(), model, interm, queryRow, k)
}

// KNNCtx is KNN under a context; per-block reads check ctx.
func (s *System) KNNCtx(ctx context.Context, model, interm string, queryRow, k int) ([]Neighbor, error) {
	a, err := s.Execute(ctx, Query{Op: OpKNN, Model: model, Intermediate: interm, Row: queryRow, K: k})
	if err != nil {
		return nil, err
	}
	return a.Neighbors, nil
}

// knn is OpKNN's operator: the block-pruned scan, or its full-scan twin
// when the pruned scan fails.
func (s *System) knn(ctx context.Context, p *Plan) ([]Neighbor, error) {
	qm, err := s.readRowRange(ctx, p.Model, p.Intermediate, p.Columns, p.Row, p.Row+1)
	if err != nil {
		return nil, err
	}
	query := qm.Row(0)
	if s.nidx != nil {
		if out, kerr := s.knnPruned(ctx, p, query); kerr == nil {
			return out, nil
		} else if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	x, err := s.readRowRange(ctx, p.Model, p.Intermediate, p.Columns, 0, p.it.Rows)
	if err != nil {
		return nil, err
	}
	ranked := diag.KNN(x, query, p.K, p.Row)
	out := make([]Neighbor, len(ranked))
	for i, r := range ranked {
		out[i] = Neighbor{Row: r, Dist: tensor.L2Dist(x.Row(r), query)}
	}
	return out, nil
}

// knnPruned answers KNN by scanning RowBlocks in ascending order of their
// zone-derived distance lower bound and stopping once the k-th candidate
// distance strictly beats every remaining block's bound. The bound obeys
// lb ≤ tensor.L2Dist for every row in the block (see nindex.PlanKNN), and
// pruning requires strict excess, so boundary ties survive and the result
// equals the full scan under diag.DistLess exactly.
func (s *System) knnPruned(ctx context.Context, p *Plan, query []float32) ([]Neighbor, error) {
	model, interm, cols, queryRow, rows := p.Model, p.Intermediate, p.Columns, p.Row, p.it.Rows
	k := min(p.K, rows-1)
	if k <= 0 {
		return []Neighbor{}, nil
	}
	colZones := make([][]nindex.Zone, len(cols))
	for j, c := range cols {
		zs, err := s.store.ColumnZones(model, interm, c)
		if err != nil {
			return nil, err
		}
		nz := make([]nindex.Zone, len(zs))
		for i, z := range zs {
			nz[i] = nindex.Zone{Min: z.Min, Max: z.Max, Count: z.Count}
		}
		colZones[j] = nz
	}
	plan := nindex.PlanKNN(query, colZones)
	blockRows := s.cfg.RowBlockRows
	cands := make([]Neighbor, 0, k+blockRows)
	kth := math.NaN()
	for _, bb := range plan {
		if len(cands) >= k && bb.LB > kth {
			break // plan is LB-ascending: every later block prunes too
		}
		lo := bb.Block * blockRows
		if lo >= rows {
			continue
		}
		hi := lo + blockRows
		if hi > rows {
			hi = rows
		}
		m, err := s.readRowRange(ctx, model, interm, cols, lo, hi)
		if err != nil {
			return nil, err
		}
		for r := 0; r < m.Rows; r++ {
			row := lo + r
			if row == queryRow {
				continue
			}
			cands = append(cands, Neighbor{Row: row, Dist: tensor.L2Dist(m.Row(r), query)})
		}
		sort.Slice(cands, func(a, b int) bool {
			return diag.DistLess(cands[a].Dist, cands[b].Dist, cands[a].Row, cands[b].Row)
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		if len(cands) >= k {
			kth = cands[k-1].Dist
		}
	}
	return cands, nil
}

// indexKey names the index of a single-column plan's column.
func indexKey(p *Plan) nindex.Key {
	return nindex.Key{Model: p.Model, Intermediate: p.Intermediate, Column: p.Columns[0]}
}

// columnFetcher loads the full column of a single-column plan for an index
// build. ctx is checked first: the build may have queued behind another.
func (s *System) columnFetcher(ctx context.Context, p *Plan) nindex.Fetch {
	return func() ([]float32, int, error) {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		vals, err := s.store.GetColumnRange(p.Model, p.Intermediate, p.Columns[0], 0, p.it.Rows)
		return vals, s.cfg.RowBlockRows, err
	}
}

// filterViaIndex answers OpFilter's predicate from the column's index.
// nil rows send the caller to the zone-map scan (signature unavailable or
// probe failed) — falling back is always safe because both paths rank
// identically.
func (s *System) filterViaIndex(ctx context.Context, p *Plan) ([]int, error) {
	nop, ok := indexOp(p.Pred)
	if s.nidx == nil || !ok {
		return nil, nil
	}
	sig, err := s.store.ColumnSignature(p.Model, p.Intermediate, p.Columns[0])
	if err != nil {
		return nil, nil
	}
	out, err := s.nidx.FilterRows(indexKey(p), sig, nop, p.Bound, s.columnFetcher(ctx, p))
	if err != nil {
		return nil, ctx.Err()
	}
	if out == nil {
		out = []int{}
	}
	return out, nil
}

// indexOp maps the store's zone-map predicate to the index's.
func indexOp(op colstore.Op) (nindex.Op, bool) {
	switch op {
	case colstore.Gt:
		return nindex.Gt, true
	case colstore.Ge:
		return nindex.Ge, true
	case colstore.Lt:
		return nindex.Lt, true
	case colstore.Le:
		return nindex.Le, true
	}
	return 0, false
}
