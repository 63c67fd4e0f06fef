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
	"math/bits"
	"slices"
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

	// Rank memoization: the first quantile/top-k probe per column pays
	// one radix sort and every later call reuses it — the difference
	// between interactive (~µs) and a fresh sort per query. A builder's
	// live sample keeps changing, so each memo records the Seen it
	// reflects and a stale one is patched, not rebuilt: a row offered
	// since then has a row id at or past that Seen, so the slots whose
	// RowIDs say so are exactly the ones rewritten (RowIDs doubles as
	// each slot's write stamp). Guarded by rankMu; clone() and the codec
	// start fresh. (The mutex also makes Sample non-copyable under vet,
	// which is what keeps the memo coherent.)
	rankMu sync.Mutex
	ranks  []colRank // per column
	// order lists the sample rows by ascending row id as of orderSeen.
	order     []int32
	orderSeen int64
}

// colRank is one column's memo. The zero value is the memo of an empty
// sample.
type colRank struct {
	// vals are the column's finite sampled values, ascending (−0 and +0
	// equal), ties by ascending row id; idx the matching sample rows. Both
	// reflect the sample as of seen.
	vals []float32
	idx  []int32
	seen int64
	mom  moments
}

// moments is one memoized colMoments result, taken at Seen == seen.
type moments struct {
	mean, std float64
	k         int64
	seen      int64
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
// the finite sampled values of a column, in sample-row order. One strided
// pass gathers them; both sums then run over the contiguous copy.
func (s *Sample) colMoments(col int) (mean, std float64, k int64) {
	c := len(s.Cols)
	fin := make([]float32, 0, len(s.RowIDs))
	for r := 0; r < len(s.RowIDs); r++ {
		if v := s.Data[r*c+col]; v == v && !math.IsInf(float64(v), 0) {
			fin = append(fin, v)
		}
	}
	if len(fin) == 0 {
		return math.NaN(), 0, 0
	}
	var sum float64
	for _, v := range fin {
		sum += float64(v)
	}
	k = int64(len(fin))
	mean = sum / float64(k)
	var ss float64
	for _, v := range fin {
		d := float64(v) - mean
		ss += d * d
	}
	if k > 1 {
		std = math.Sqrt(ss / float64(k-1))
	}
	return mean, std, k
}

// memoLocked returns column col's memo. Caller holds rankMu.
func (s *Sample) memoLocked(col int) *colRank {
	if s.ranks == nil {
		s.ranks = make([]colRank, len(s.Cols))
	}
	return &s.ranks[col]
}

// rank returns the column's finite sampled values in ascending order
// (ties by ascending row id) plus the matching sample-row order. The
// result is the memo itself: on a builder's live sample it is valid only
// while the builder's lock is held (Builder.View).
func (s *Sample) rank(col int) (vals []float32, idx []int32) {
	s.rankMu.Lock()
	defer s.rankMu.Unlock()
	r := s.memoLocked(col)
	if r.seen == s.Seen {
		return r.vals, r.idx
	}
	// The slots rewritten since the memo was built hold rows at or past
	// r.seen: the tail of the row-id order.
	order := s.rowOrderLocked()
	from := sort.Search(len(order), func(i int) bool { return s.RowIDs[order[i]] >= r.seen })
	c := len(s.Cols)
	buf := getSortBuf(len(order) - from)
	defer sortBufs.Put(buf)
	n := 0
	for _, sr := range order[from:] {
		if v := s.Data[int(sr)*c+col]; v == v && !math.IsInf(float64(v), 0) {
			buf.keys[n], buf.slots[n] = valueKey(v), sr
			n++
		}
	}
	r.merge(s, col, buf.sort(n, 4), r.seen)
	r.seen = s.Seen
	return r.vals, r.idx
}

// merge drops the entries of sample rows rewritten at or after since and
// merges fresh (sample rows sorted by value, then row id) in, in place
// from the back, so a patch reuses the memo's buffers.
func (r *colRank) merge(s *Sample, col int, fresh []int32, since int64) {
	keep := 0
	for i, sr := range r.idx {
		if s.RowIDs[sr] < since {
			r.vals[keep], r.idx[keep] = r.vals[i], sr
			keep++
		}
	}
	n := keep + len(fresh)
	r.vals = slices.Grow(r.vals[:keep], len(fresh))[:n]
	r.idx = slices.Grow(r.idx[:keep], len(fresh))[:n]
	c := len(s.Cols)
	i, j := keep-1, len(fresh)-1
	for w := n - 1; j >= 0; w-- {
		fr := fresh[j]
		fv := s.Data[int(fr)*c+col]
		if i >= 0 && (r.vals[i] > fv || r.vals[i] == fv && s.RowIDs[r.idx[i]] > s.RowIDs[fr]) {
			r.vals[w], r.idx[w] = r.vals[i], r.idx[i]
			i--
		} else {
			r.vals[w], r.idx[w] = fv, fr
			j--
		}
	}
}

// RowOrder returns the sample rows in ascending row-id order. Like rank's
// result it is the memo itself: read it only while the sample cannot
// change.
func (s *Sample) RowOrder() []int32 {
	s.rankMu.Lock()
	defer s.rankMu.Unlock()
	return s.rowOrderLocked()
}

// rowOrderLocked brings the row-id order up to date: entries of rewritten
// slots drop out and the rewritten slots, radix-sorted by their new row
// ids (all past every kept one), go on the end. Caller holds rankMu.
func (s *Sample) rowOrderLocked() []int32 {
	since := s.orderSeen
	if since == s.Seen {
		return s.order
	}
	keep := 0
	for _, sr := range s.order {
		if s.RowIDs[sr] < since {
			s.order[keep] = sr
			keep++
		}
	}
	buf := getSortBuf(len(s.RowIDs) - keep)
	defer sortBufs.Put(buf)
	n := 0
	for sr, id := range s.RowIDs {
		if id >= since {
			buf.keys[n], buf.slots[n] = uint64(id), int32(sr)
			n++
		}
	}
	s.order = append(s.order[:keep], buf.sort(n, (bits.Len64(uint64(s.Seen))+7)/8)...)
	s.orderSeen = s.Seen
	return s.order
}

// sortBuf is radix sort scratch: keys and the sample rows they belong
// to, plus the ping-pong twins. Pooled, so a sample keeps no scratch.
type sortBuf struct {
	keys, keysTmp   []uint64
	slots, slotsTmp []int32
}

var sortBufs = sync.Pool{New: func() any { return new(sortBuf) }}

// getSortBuf returns pooled scratch with room for n keys.
func getSortBuf(n int) *sortBuf {
	b := sortBufs.Get().(*sortBuf)
	if len(b.keys) < n {
		*b = sortBuf{make([]uint64, n), make([]uint64, n), make([]int32, n), make([]int32, n)}
	}
	return b
}

// sort radix-sorts the first n (key, slot) pairs by key over the low
// `bytes` key bytes and returns the slots in that order.
func (b *sortBuf) sort(n, bytes int) []int32 {
	radixSort(b.keys[:n], b.slots[:n], b.keysTmp[:n], b.slotsTmp[:n], bytes)
	return b.slots[:n]
}

// valueKey maps a finite float32 to a key whose unsigned order is the
// value order, with −0 and +0 on one key.
func valueKey(v float32) uint64 {
	if v == 0 {
		v = 0 // −0 → +0
	}
	b := math.Float32bits(v)
	if b>>31 != 0 {
		return uint64(^b)
	}
	return uint64(b | 1<<31)
}

// radixSort stably sorts keys ascending, moving idx along, by an LSD
// radix sort over the low `bytes` bytes. Passes on which every key has
// the same byte are skipped. tk and ti are scratch of the same length.
func radixSort(keys []uint64, idx []int32, tk []uint64, ti []int32, bytes int) {
	n := len(keys)
	if n < 2 {
		return
	}
	var counts [8][256]int
	for _, k := range keys {
		for b := 0; b < bytes; b++ {
			counts[b][byte(k>>(8*b))]++
		}
	}
	sk, si, dk, di := keys, idx, tk, ti
	for b := 0; b < bytes; b++ {
		c := &counts[b]
		shift := 8 * b
		if c[byte(sk[0]>>shift)] == n {
			continue
		}
		pos := 0
		for d, m := range c {
			c[d], pos = pos, pos+m
		}
		for i, k := range sk {
			d := byte(k >> shift)
			dk[c[d]], di[c[d]] = k, si[i]
			c[d]++
		}
		sk, si, dk, di = dk, di, sk, si
	}
	if &sk[0] != &keys[0] {
		copy(keys, sk)
		copy(idx, si)
	}
}

// Moments returns the sample mean and standard deviation over the finite
// values of a column (NaN mean when none are sampled), memoized like the
// rank structures and recomputed once the sample has seen more rows.
func (s *Sample) Moments(col int) (mean, std float64, k int64) {
	s.rankMu.Lock()
	defer s.rankMu.Unlock()
	m := &s.memoLocked(col).mom
	if !m.ok || m.seen != s.Seen {
		mean, std, k := s.colMoments(col)
		*m = moments{mean: mean, std: std, k: k, seen: s.Seen, ok: true}
	}
	return m.mean, m.std, m.k
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
