package mistique

import (
	"context"
	"math"
	"sort"

	"mistique/internal/cost"
	"mistique/internal/sample"
	"mistique/internal/tensor"
)

// Approximate queries: COL_DIST-style aggregates, top-k probes, confusion
// matrices and row samples answered from the per-intermediate reservoir
// (internal/sample) at interactive latency, each carrying a
// distribution-free error bound. Every entry point takes a maxError knob:
// when the bound the sample can deliver is wider than requested, the
// query transparently falls back to the exact path (READ or RERUN, per
// the cost model) and reports a zero bound — so callers always get an
// answer within their tolerance, just not always the fast one.
//
// maxError is a fraction: of the column's finite value range for means,
// of rank for top-k, of the row count for confusion cells. maxError <= 0
// accepts whatever bound the sample delivers (no fallback).
//
// For streaming intermediates the sample covers every acknowledged row —
// approximate answers can be *fresher* than exact reads, which only see
// rows drained into partitions.

// ColDist is an approximate column distribution: exact NaN/±Inf accounting
// and range (tracked at ingest), estimated mean/std/median with bounds.
type ColDist struct {
	Model        string
	Intermediate string
	Column       string
	// Rows is the population behind the estimate (every row the sampler
	// has seen); Finite/NaN/PosInf/NegInf partition it exactly.
	Rows   int64
	Finite int64
	NaN    int64
	PosInf int64
	NegInf int64
	// Min/Max are exact over the finite values.
	Min float32
	Max float32
	// Mean carries MeanBound (absolute, ≥ the true error with probability
	// 1-1e-4); both are exact (bound 0) on the fallback path.
	Mean      float64
	MeanBound float64
	Std       float64
	// P50 is the estimated median; P50RankBound bounds its true rank
	// fraction (DKW, 1-1e-3).
	P50          float32
	P50RankBound float64
	// SampleRows is the reservoir size behind the estimate (0 on the
	// exact path); Strategy is SAMPLE, or the exact strategy after a
	// fallback.
	SampleRows    int64
	Strategy      cost.Strategy
	EstSampleSecs float64
	EstReadSecs   float64
	FetchSeconds  float64
}

// ColDist estimates a column's distribution. See ColDistCtx.
func (s *System) ColDist(model, interm, column string, maxError float64) (*ColDist, error) {
	return s.ColDistCtx(context.Background(), model, interm, column, maxError)
}

// ColDistCtx estimates a column's distribution from the intermediate's
// reservoir sample when the sample's mean bound (as a fraction of the
// column's value range) is within maxError, and from an exact read
// otherwise.
func (s *System) ColDistCtx(ctx context.Context, model, interm, column string, maxError float64) (*ColDist, error) {
	a, err := s.Execute(ctx, Query{Op: OpColDist, Model: model, Intermediate: interm, Columns: []string{column}, MaxError: maxError})
	if err != nil {
		return nil, err
	}
	return a.ColDist, nil
}

// sampleAnswer answers p from the reservoir sample. It returns nil when
// the sample lacks a column or the bound it can deliver is wider than
// p.MaxError (the caller plans the exact path instead), else the answer
// and the sample rows behind it. limit is OpSampleRows' row limit. The
// answer shares no memory with sm, which may be a stream's live
// reservoir.
func sampleAnswer(p *Plan, limit int, sm *sample.Sample) (*Answer, int64) {
	idx := make([]int, len(p.Columns))
	for i, c := range p.Columns {
		if idx[i] = sm.ColIndex(c); idx[i] < 0 {
			return nil, 0
		}
	}
	switch p.Op {
	case OpColDist:
		j := idx[0]
		st, est := sm.Stats[j], sm.MeanEstimate(j)
		if !withinRangeFraction(est.Bound, float64(st.Max)-float64(st.Min), p.MaxError) {
			return nil, 0
		}
		_, std, _ := sm.Moments(j)
		d := &ColDist{
			Rows: st.Rows(), Finite: st.Finite, NaN: st.NaN, PosInf: st.PosInf, NegInf: st.NegInf,
			Min: st.Min, Max: st.Max, Mean: est.Value, MeanBound: est.Bound, Std: std,
			SampleRows: int64(sm.Rows()),
		}
		d.P50, d.P50RankBound = sm.Quantile(j, 0.5)
		return &Answer{ColDist: d}, d.SampleRows
	case OpApproxTopK:
		entries, bound := sm.TopK(idx[0], p.K, true)
		if p.MaxError > 0 && bound > p.MaxError {
			return nil, 0
		}
		t := &TopKApprox{Entries: entries, RankBound: bound, Rows: sm.Stats[idx[0]].Rows(), SampleRows: int64(sm.Rows())}
		return &Answer{ApproxTopK: t}, t.SampleRows
	case OpConfusion:
		est, err := sm.Confusion(idx[0], idx[1])
		if err != nil || (p.MaxError > 0 && est.MaxBound > p.MaxError) {
			return nil, 0
		}
		c := &ConfusionMatrix{Cells: est.Cells, Rows: sm.Seen, MaxBound: est.MaxBound, SampleRows: est.SampledRows}
		return &Answer{Confusion: c}, c.SampleRows
	}
	// OpSampleRows: a uniform row sample, in ascending row-id order for
	// stable presentation.
	n := sm.Rows()
	if limit > 0 && limit < n {
		n = limit
	}
	order := sm.RowOrder()
	a := &Answer{RowIDs: make([]int64, n), Data: tensor.NewDense(n, len(idx)), Population: sm.Seen}
	for r := 0; r < n; r++ {
		sr := int(order[r])
		a.RowIDs[r] = sm.RowIDs[sr]
		for j, cj := range idx {
			a.Data.Set(r, j, sm.Value(sr, cj))
		}
	}
	return a, int64(n)
}

// mirror copies the executed plan and timing into the fields the
// approximate result types carry themselves.
func (a *Answer) mirror() {
	switch {
	case a.ColDist != nil:
		d := a.ColDist
		d.Model, d.Intermediate, d.Column = a.Model, a.Intermediate, a.Columns[0]
		d.Strategy, d.EstSampleSecs, d.EstReadSecs, d.FetchSeconds = a.Strategy, a.EstSampleSecs, a.EstReadSecs, a.Seconds
	case a.ApproxTopK != nil:
		t := a.ApproxTopK
		t.Model, t.Intermediate, t.Column = a.Model, a.Intermediate, a.Columns[0]
		t.Strategy, t.FetchSeconds = a.Strategy, a.Seconds
	case a.Confusion != nil:
		c := a.Confusion
		c.Model, c.Intermediate, c.LabelCol, c.PredCol = a.Model, a.Intermediate, a.Columns[0], a.Columns[1]
		c.Strategy, c.FetchSeconds = a.Strategy, a.Seconds
	}
}

// withinRangeFraction reports whether an absolute bound over a value range
// satisfies the requested fractional tolerance. A zero-width range only
// passes with a zero bound (constant column: exact).
func withinRangeFraction(bound, width, maxError float64) bool {
	if maxError <= 0 {
		return true
	}
	if bound == 0 {
		return true
	}
	if width <= 0 || math.IsInf(bound, 1) {
		return false
	}
	return bound/width <= maxError
}

// colDist is OpColDist's exact operator: fetch the column through the
// planned strategy and compute the same statistics exactly.
func (s *System) colDist(ctx context.Context, p *Plan) (*ColDist, error) {
	data, err := s.fetchMatrix(ctx, p)
	if err != nil {
		return nil, err
	}
	out := &ColDist{}
	exactColDist(out, data.Col(0))
	return out, nil
}

// exactColDist fills a ColDist from a fully materialized column.
func exactColDist(out *ColDist, col []float32) {
	out.Min = float32(math.Inf(1))
	out.Max = float32(math.Inf(-1))
	var sum float64
	fin := make([]float32, 0, len(col))
	for _, v := range col {
		switch {
		case v != v:
			out.NaN++
		case float64(v) == math.Inf(1):
			out.PosInf++
		case float64(v) == math.Inf(-1):
			out.NegInf++
		default:
			out.Finite++
			if v < out.Min {
				out.Min = v
			}
			if v > out.Max {
				out.Max = v
			}
			sum += float64(v)
			fin = append(fin, v)
		}
	}
	out.Rows = int64(len(col))
	if out.Finite == 0 {
		out.Mean = math.NaN()
		out.P50 = float32(math.NaN())
		return
	}
	out.Mean = sum / float64(out.Finite)
	var ss float64
	for _, v := range fin {
		d := float64(v) - out.Mean
		ss += d * d
	}
	if out.Finite > 1 {
		out.Std = math.Sqrt(ss / float64(out.Finite-1))
	}
	out.P50 = quickMedian(fin)
}

// quickMedian returns the lower median.
func quickMedian(v []float32) float32 {
	if len(v) == 0 {
		return float32(math.NaN())
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v[(len(v)-1)/2]
}

// TopKApprox is an approximate TOPK answer.
type TopKApprox struct {
	Model        string
	Intermediate string
	Column       string
	// Entries are real (row id, value) pairs, best first. On the SAMPLE
	// path the values are true stored values of the sampled rows; only
	// their ranks are approximate.
	Entries []sample.RowValue
	// RankBound bounds every entry's true rank fraction (0 on the exact
	// path).
	RankBound    float64
	Rows         int64
	SampleRows   int64
	Strategy     cost.Strategy
	FetchSeconds float64
}

// ApproxTopKCtx answers TOPK from the reservoir sample when the rank bound
// is within maxError (a rank fraction), and from the exact index-backed
// TopK otherwise.
func (s *System) ApproxTopKCtx(ctx context.Context, model, interm, column string, k int, maxError float64) (*TopKApprox, error) {
	a, err := s.Execute(ctx, Query{Op: OpApproxTopK, Model: model, Intermediate: interm, Columns: []string{column}, K: k, MaxError: maxError})
	if err != nil {
		return nil, err
	}
	return a.ApproxTopK, nil
}

// approxTopK is OpApproxTopK's exact operator: OpTopK's, reshaped.
func (s *System) approxTopK(ctx context.Context, p *Plan) (*TopKApprox, error) {
	exact, err := s.topK(ctx, p)
	if err != nil {
		return nil, err
	}
	out := &TopKApprox{Entries: make([]sample.RowValue, len(exact)), Rows: int64(p.it.Rows)}
	for i, e := range exact {
		out.Entries[i] = sample.RowValue{Row: int64(e.Row), Value: e.Value}
	}
	return out, nil
}

// ConfusionMatrix is an approximate (label, prediction) contingency table.
type ConfusionMatrix struct {
	Model        string
	Intermediate string
	LabelCol     string
	PredCol      string
	// Cells are sorted by (label, pred); Count is in row units with a
	// per-cell absolute bound (0 on the exact path).
	Cells []sample.Cell
	Rows  int64
	// MaxBound is the largest cell bound as a fraction of Rows.
	MaxBound     float64
	SampleRows   int64
	Strategy     cost.Strategy
	FetchSeconds float64
}

// confusion is OpConfusion's exact operator: count the (label, pred)
// pairs of a two-column fetch.
func (s *System) confusion(ctx context.Context, p *Plan) (*ConfusionMatrix, error) {
	data, err := s.fetchMatrix(ctx, p)
	if err != nil {
		return nil, err
	}
	type cellKey struct{ l, p float32 }
	counts := map[cellKey]int64{}
	for r := 0; r < data.Rows; r++ {
		l, p := data.At(r, 0), data.At(r, 1)
		if l != l || p != p {
			continue
		}
		counts[cellKey{l, p}]++
	}
	out := &ConfusionMatrix{Rows: int64(data.Rows)}
	for k, c := range counts {
		out.Cells = append(out.Cells, sample.Cell{Label: k.l, Pred: k.p, Count: float64(c)})
	}
	sample.SortCells(out.Cells)
	return out, nil
}

// sampleFor runs fn on the freshest sample for (model, interm): a live
// stream's reservoir, under its builder's lock, or the sample manager's
// resident or persisted snapshot. fn is not called when no sample exists
// (callers fall back to the exact path), and must copy out what it keeps.
func (s *System) sampleFor(model, interm string, fn func(*sample.Sample)) {
	if st := s.streamFor(model, interm); st != nil {
		// The stream lock too: IngestRows feeds the sampler before it cuts
		// blocks and returns, and an answer must not cover rows whose
		// batch has not been acknowledged yet.
		st.mu.Lock()
		defer st.mu.Unlock()
		st.sampler.View(fn)
		return
	}
	if sm, _ := s.samples.Load(model, interm); sm != nil { // an unreadable file reads as absent
		fn(sm)
	}
}
