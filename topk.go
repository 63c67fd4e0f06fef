package mistique

import (
	"context"

	"mistique/internal/diag"
	"mistique/internal/nindex"
	"mistique/internal/tensor"
)

// This file is the engine's neuron-centric query surface: TOPK ("which
// examples activate neuron j the most") and index-accelerated FilterRows,
// backed by the lazily built per-column indexes of internal/nindex, and
// KNN. Every op has at most one accelerated path, the index, and one
// full-scan twin over readRowRange ranked by the same pinned comparators
// (diag.RankLess / diag.DistLess); KNN has only the twin. The differential
// harness in internal/nindex/oracletest plus the root TestIndexScanParity*
// tests hold index and twin byte-identical. The indexes are a memory-only
// cache sized by internal/nindex's defaults (64 MiB resident, 1024-entry
// segments).

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
// itself. It reads every row: no index accelerates KNN.
func (s *System) KNN(model, interm string, queryRow, k int) ([]Neighbor, error) {
	return s.KNNCtx(context.Background(), model, interm, queryRow, k)
}

// KNNCtx is KNN under a context; each column read checks ctx.
func (s *System) KNNCtx(ctx context.Context, model, interm string, queryRow, k int) ([]Neighbor, error) {
	a, err := s.Execute(ctx, Query{Op: OpKNN, Model: model, Intermediate: interm, Row: queryRow, K: k})
	if err != nil {
		return nil, err
	}
	return a.Neighbors, nil
}

// knn is OpKNN's operator: a full scan ranked by diag.KNN.
func (s *System) knn(ctx context.Context, p *Plan) ([]Neighbor, error) {
	x, err := s.readRowRange(ctx, p.Model, p.Intermediate, p.Columns, 0, p.it.Rows)
	if err != nil {
		return nil, err
	}
	query := x.Row(p.Row)
	ranked := diag.KNN(x, query, p.K, p.Row)
	out := make([]Neighbor, len(ranked))
	for i, r := range ranked {
		out[i] = Neighbor{Row: r, Dist: tensor.L2Dist(x.Row(r), query)}
	}
	return out, nil
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
// nil rows send the caller to the range-scan twin (signature unavailable
// or probe failed) — falling back is always safe because both paths match
// identically.
func (s *System) filterViaIndex(ctx context.Context, p *Plan) ([]int, error) {
	if s.nidx == nil {
		return nil, nil
	}
	sig, err := s.store.ColumnSignature(p.Model, p.Intermediate, p.Columns[0])
	if err != nil {
		return nil, nil
	}
	out, err := s.nidx.FilterRows(indexKey(p), sig, p.Pred, p.Bound, s.columnFetcher(ctx, p))
	if err != nil {
		return nil, ctx.Err()
	}
	if out == nil {
		out = []int{}
	}
	return out, nil
}
