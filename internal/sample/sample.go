// Package sample maintains per-intermediate row samples — a uniform
// reservoir — and answers approximate aggregates from them with
// distribution-free error bounds.
//
// The contract the approximate query path builds on:
//
//   - Sampling is value-independent: which rows land in the reservoir
//     depends only on the seed and the row order, never on the data, so
//     the sample is uniform without replacement and the bounds below
//     apply.
//   - Per-column statistics that are cheap to track exactly (finite /
//     NaN / ±Inf counts, min, max) are tracked exactly at ingest. Bounds
//     use the exact value range, which keeps them honest on heavy-tailed
//     data where a sample-estimated range would lie.
//   - Every estimate carries a bound that holds with probability ≥ 1-δ
//     (δ = 1e-4 for means and proportions, 1e-3 for ranks). The bounds
//     are Hoeffding-Serfling and empirical-Bernstein forms — valid for
//     sampling without replacement — so the caller can compare them
//     against a requested maxError and fall back to the exact path when
//     the sample cannot deliver.
//   - A sample that holds every row it has seen answers exactly: bounds
//     collapse to zero.
//
// Builders live in builder.go, the MQSM on-disk format in codec.go, and
// the checksummed persistence manager in manager.go.
package sample

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// DefaultCap is the default reservoir size in rows. At this size a mean
// over 100k rows carries a bound under 1% of the column's value range.
const DefaultCap = 32768

// seed drives the deterministic row selection of every new sample.
const seed = 1

// Config sizes a sample.
type Config struct {
	// Cap is the reservoir size in rows (default DefaultCap). Larger caps
	// give tighter bounds.
	Cap int
}

func (c Config) withDefaults() Config {
	if c.Cap <= 0 {
		c.Cap = DefaultCap
	}
	return c
}

// ColStats are the exactly-tracked per-column statistics.
type ColStats struct {
	Finite int64
	NaN    int64
	PosInf int64
	NegInf int64
	// Min/Max cover the finite values only; when Finite is 0 they are
	// +Inf/-Inf respectively.
	Min float32
	Max float32
}

func newColStats() ColStats {
	return ColStats{Min: float32(math.Inf(1)), Max: float32(math.Inf(-1))}
}

func (st *ColStats) observe(v float32) {
	switch {
	case v != v:
		st.NaN++
	case float64(v) == math.Inf(1):
		st.PosInf++
	case float64(v) == math.Inf(-1):
		st.NegInf++
	default:
		st.Finite++
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
}

// Rows reports how many rows the column has seen in total.
func (st ColStats) Rows() int64 { return st.Finite + st.NaN + st.PosInf + st.NegInf }

// Sample is a point-in-time snapshot of one intermediate's reservoir. The
// exported fields are what the MQSM codec persists; treat them as
// read-only outside this package.
type Sample struct {
	Cols []string
	Seen int64 // rows offered to the reservoir so far
	Cap  int
	Seed uint64
	// RNGState lets a streaming builder resume exactly where the
	// persisted sample left off.
	RNGState uint64

	Stats  []ColStats
	RowIDs []int64   // len k ≤ Cap: which rows are sampled
	Data   []float32 // k×C row-major sampled values

	// Rank memoization: snapshots are logically immutable, so the first
	// quantile/top-k probe per column pays one sort and every later call
	// reuses it — the difference between interactive (~µs) and a fresh
	// O(k log k) per query. Guarded by rankMu; clone() and the codec start
	// fresh. (The mutex also makes Sample non-copyable under vet, which is
	// what keeps the memo coherent.)
	rankMu   sync.Mutex
	rankVals [][]float32 // per column: finite sampled values, ascending
	rankIdx  [][]int32   // per column: matching sample-row order
	rankMom  []moments   // per column: memoized colMoments
}

// moments is one memoized colMoments result.
type moments struct {
	mean, std float64
	k         int64
	ok        bool
}

// Rows returns k, the number of sampled rows.
func (s *Sample) Rows() int { return len(s.RowIDs) }

// Complete reports whether the sample holds every row seen — estimates
// are then exact and bounds zero.
func (s *Sample) Complete() bool { return int64(len(s.RowIDs)) >= s.Seen }

// ColIndex returns the index of the named column, or -1.
func (s *Sample) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Value returns the sampled value at (row, col) in the sample's own
// coordinates (row < Rows()).
func (s *Sample) Value(row, col int) float32 {
	return s.Data[row*len(s.Cols)+col]
}

// Bound confidence parameters: ln(2/δ) for two-sided Hoeffding-Serfling
// and ln(3/δ) for the empirical-Bernstein form, both at δ = 1e-4; rank
// (DKW-style) bounds use δ = 1e-3.
const (
	ln2OverDeltaMean = 9.903487552536127  // ln(2/1e-4)
	ln3OverDeltaMean = 10.308952660644293 // ln(3/1e-4)
	ln2OverDeltaRank = 7.600902459542082  // ln(2/1e-3)
)

// serflingFactor is 1-(k-1)/n, the without-replacement sharpening of the
// Hoeffding bound (Serfling 1974). k ≥ n collapses it to ~0 — by then the
// sample is the population.
func serflingFactor(k, n int64) float64 {
	if n <= 0 || k >= n {
		return 0
	}
	return 1 - float64(k-1)/float64(n)
}

// MeanBound returns the absolute error bound for a sample mean of k draws
// (without replacement) from n values spanning `width`, with sample
// standard deviation std: the tighter of Hoeffding-Serfling (range-based)
// and empirical Bernstein (variance-adaptive), each valid at δ = 1e-4.
func MeanBound(k, n int64, std, width float64) float64 {
	if k <= 0 {
		return math.Inf(1)
	}
	if k >= n || width == 0 {
		return 0
	}
	hs := width * math.Sqrt(serflingFactor(k, n)*ln2OverDeltaMean/(2*float64(k)))
	eb := std*math.Sqrt(2*ln3OverDeltaMean/float64(k)) + 3*width*ln3OverDeltaMean/float64(k)
	return math.Min(hs, eb)
}

// ProportionBound returns the absolute error bound for an estimated
// proportion from k of n rows (Hoeffding-Serfling, δ = 1e-4).
func ProportionBound(k, n int64) float64 {
	if k <= 0 {
		return 1
	}
	if k >= n {
		return 0
	}
	return math.Sqrt(serflingFactor(k, n) * ln2OverDeltaMean / (2 * float64(k)))
}

// RankBound returns the uniform CDF deviation bound (DKW with the
// Serfling without-replacement factor, δ = 1e-3): every sample rank is
// within this fraction of its true population rank.
func RankBound(k, n int64) float64 {
	if k <= 0 {
		return 1
	}
	if k >= n {
		return 0
	}
	return math.Sqrt(serflingFactor(k, n) * ln2OverDeltaRank / (2 * float64(k)))
}

// Estimate is one approximate scalar with its error bound.
type Estimate struct {
	Value float64
	// Bound is the absolute error bound at the package's confidence
	// level; 0 means exact, +Inf means the sample cannot say anything.
	Bound float64
	// K is the number of sampled values behind the estimate, N the exact
	// population they stand for.
	K int64
	N int64
}

// colMoments computes mean and (Bessel-corrected) standard deviation over
// the finite sampled values of a column.
func (s *Sample) colMoments(col int) (mean, std float64, k int64) {
	c := len(s.Cols)
	var sum float64
	for r := 0; r < len(s.RowIDs); r++ {
		v := float64(s.Data[r*c+col])
		if !math.IsInf(v, 0) && v == v {
			sum += v
			k++
		}
	}
	if k == 0 {
		return math.NaN(), 0, 0
	}
	mean = sum / float64(k)
	var ss float64
	for r := 0; r < len(s.RowIDs); r++ {
		v := float64(s.Data[r*c+col])
		if !math.IsInf(v, 0) && v == v {
			d := v - mean
			ss += d * d
		}
	}
	if k > 1 {
		std = math.Sqrt(ss / float64(k-1))
	}
	return mean, std, k
}

// rank returns the column's finite sampled values in ascending order
// (ties by ascending row id) plus the matching sample-row order, built
// once per column and memoized.
func (s *Sample) rank(col int) (vals []float32, idx []int32) {
	s.rankMu.Lock()
	defer s.rankMu.Unlock()
	if s.rankVals == nil {
		s.rankVals = make([][]float32, len(s.Cols))
		s.rankIdx = make([][]int32, len(s.Cols))
	}
	if s.rankVals[col] == nil {
		c := len(s.Cols)
		idx := make([]int32, 0, len(s.RowIDs))
		for r := 0; r < len(s.RowIDs); r++ {
			v := s.Data[r*c+col]
			if v == v && !math.IsInf(float64(v), 0) {
				idx = append(idx, int32(r))
			}
		}
		sort.Slice(idx, func(a, b int) bool {
			va, vb := s.Data[int(idx[a])*c+col], s.Data[int(idx[b])*c+col]
			if va != vb {
				return va < vb
			}
			return s.RowIDs[idx[a]] < s.RowIDs[idx[b]]
		})
		vals := make([]float32, len(idx))
		for i, r := range idx {
			vals[i] = s.Data[int(r)*c+col]
		}
		s.rankVals[col], s.rankIdx[col] = vals, idx
	}
	return s.rankVals[col], s.rankIdx[col]
}

// Moments returns the sample mean and standard deviation over the finite
// values of a column (NaN mean when none are sampled), memoized like the
// rank structures.
func (s *Sample) Moments(col int) (mean, std float64, k int64) {
	s.rankMu.Lock()
	if s.rankMom == nil {
		s.rankMom = make([]moments, len(s.Cols))
	}
	if m := s.rankMom[col]; m.ok {
		s.rankMu.Unlock()
		return m.mean, m.std, m.k
	}
	s.rankMu.Unlock()
	mean, std, k = s.colMoments(col)
	s.rankMu.Lock()
	s.rankMom[col] = moments{mean: mean, std: std, k: k, ok: true}
	s.rankMu.Unlock()
	return mean, std, k
}

// MeanEstimate estimates the mean of a column's finite values. The bound
// is 0 when the estimate is exact (constant column, or the sample holds
// every row) and +Inf when the population has finite values but the
// sample caught none.
func (s *Sample) MeanEstimate(col int) Estimate {
	st := s.Stats[col]
	n := st.Finite
	if n == 0 {
		return Estimate{Value: math.NaN()}
	}
	mean, std, k := s.Moments(col)
	if k == 0 {
		return Estimate{Value: math.NaN(), Bound: math.Inf(1), N: n}
	}
	if s.Complete() {
		return Estimate{Value: mean, K: k, N: n}
	}
	width := float64(st.Max) - float64(st.Min)
	return Estimate{Value: mean, Bound: MeanBound(k, n, std, width), K: k, N: n}
}

// RowValue pairs a real population row id with its sampled value.
type RowValue struct {
	Row   int64
	Value float32
}

// TopK returns the k largest (or smallest) finite sampled values of a
// column as real (row, value) pairs, best first, plus the rank bound:
// each returned row's true rank fraction is within that bound of its
// sample rank fraction. Returns fewer than k entries when the sample has
// fewer finite values.
func (s *Sample) TopK(col, k int, largest bool) ([]RowValue, float64) {
	vals, idx := s.rank(col)
	kFin := int64(len(vals))
	n := min(k, len(vals))
	out := make([]RowValue, 0, n)
	if largest {
		// Walk equal-value groups from the top of the ascending order;
		// each group is already row-ascending, which is the tie order the
		// comparator promises.
		for i := len(vals); i > 0 && len(out) < n; {
			j := i
			for j > 0 && vals[j-1] == vals[i-1] {
				j--
			}
			for t := j; t < i && len(out) < n; t++ {
				out = append(out, RowValue{Row: s.RowIDs[idx[t]], Value: vals[t]})
			}
			i = j
		}
	} else {
		for t := 0; t < n; t++ {
			out = append(out, RowValue{Row: s.RowIDs[idx[t]], Value: vals[t]})
		}
	}
	bound := RankBound(kFin, s.Stats[col].Finite)
	if s.Complete() {
		bound = 0
	}
	return out, bound
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of a column's finite
// values, plus the rank bound on the estimate's true rank fraction.
func (s *Sample) Quantile(col int, q float64) (float32, float64) {
	vals, _ := s.rank(col)
	if len(vals) == 0 {
		return float32(math.NaN()), 1
	}
	idx := int(q * float64(len(vals)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	bound := RankBound(int64(len(vals)), s.Stats[col].Finite)
	if s.Complete() {
		bound = 0
	}
	return vals[idx], bound
}

// Cell is one confusion-matrix cell estimate, in row units.
type Cell struct {
	Label float32
	Pred  float32
	Count float64
	// Bound is the absolute error bound on Count (per-cell, δ = 1e-4).
	Bound float64
}

// ConfusionEstimate is an approximate confusion matrix.
type ConfusionEstimate struct {
	Cells []Cell
	// SampledRows is the total sample size behind the estimate.
	SampledRows int64
	// MaxBound is the largest cell bound as a fraction of the total row
	// count — the number to compare against a requested maxError.
	MaxBound float64
}

// Confusion estimates the (label, pred) contingency table from the
// reservoir: cell proportions over the sampled rows, scaled to the rows
// seen. Rows with NaN label or pred are excluded from cells (their mass is
// never attributed elsewhere).
func (s *Sample) Confusion(labelCol, predCol int) (*ConfusionEstimate, error) {
	if labelCol < 0 || labelCol >= len(s.Cols) || predCol < 0 || predCol >= len(s.Cols) {
		return nil, fmt.Errorf("sample: confusion columns out of range")
	}
	if s.Seen == 0 {
		return &ConfusionEstimate{}, nil
	}
	c := len(s.Cols)
	k := int64(len(s.RowIDs))
	est := &ConfusionEstimate{SampledRows: k}
	if k == 0 {
		est.MaxBound = 1
		return est, nil
	}
	type key struct{ l, p float32 }
	counts := map[key]int64{}
	for r := int64(0); r < k; r++ {
		l := s.Data[r*int64(c)+int64(labelCol)]
		p := s.Data[r*int64(c)+int64(predCol)]
		if l != l || p != p {
			continue
		}
		counts[key{l, p}]++
	}
	pb := ProportionBound(k, s.Seen)
	if s.Complete() {
		pb = 0
	}
	for kk, cnt := range counts {
		est.Cells = append(est.Cells, Cell{
			Label: kk.l,
			Pred:  kk.p,
			Count: float64(s.Seen) * float64(cnt) / float64(k),
			Bound: float64(s.Seen) * pb,
		})
	}
	sortCells(est.Cells)
	est.MaxBound = pb
	return est, nil
}

// SortCells orders cells by (label, pred) — the canonical presentation
// order shared by the approximate and exact confusion paths.
func SortCells(cells []Cell) { sortCells(cells) }

func sortCells(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Label != cells[j].Label {
			return cells[i].Label < cells[j].Label
		}
		return cells[i].Pred < cells[j].Pred
	})
}
