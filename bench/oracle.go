package main

import (
	"fmt"
	"math"
	"sort"
)

// table is what the harness knows about one intermediate: the values of
// the columns it queries, dumped once at set-up (or, for a stream, the
// rows the harness itself generated). Naive answers are derived from it
// off the timed path.
type table struct {
	rows  int
	cols  map[string][]float32
	order []string // the intermediate's full column order
	// growing marks a stream that is written during the window: an exact
	// answer may reflect any whole number of blocks between the rows
	// acknowledged before the request and after the reply.
	growing bool
	block   int
}

func tableKey(model, interm string) string { return model + "/" + interm }

func sameBits(a, b float32) bool {
	if a != a && b != b {
		return true // NaN payloads do not survive JSON; any NaN equals any NaN
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// rankLess is the engine's pinned TOPK order: value descending, NaN
// last, ascending row id on ties.
func rankLess(va, vb float32, ra, rb int) bool {
	an, bn := va != va, vb != vb
	switch {
	case an && bn:
		return ra < rb
	case an:
		return false
	case bn:
		return true
	case va != vb:
		return va > vb
	}
	return ra < rb
}

// naiveTopK scans col[:n] keeping the k best under rankLess.
func naiveTopK(col []float32, n, k int) []rank {
	best := make([]rank, 0, k+1)
	for r := 0; r < n; r++ {
		v := col[r]
		if len(best) == k && !rankLess(v, best[k-1].Value, r, best[k-1].Row) {
			continue
		}
		i := sort.Search(len(best), func(i int) bool { return rankLess(v, best[i].Value, r, best[i].Row) })
		best = append(best, rank{})
		copy(best[i+1:], best[i:])
		best[i] = rank{Row: r, Value: v}
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

func cmpHolds(v float32, cmp string, bound float32) bool {
	switch cmp {
	case "gt":
		return v > bound
	case "ge":
		return v >= bound
	case "lt":
		return v < bound
	case "le":
		return v <= bound
	}
	return false
}

func naiveFilter(col []float32, n int, cmp string, bound float32) []int {
	var out []int
	for r := 0; r < n; r++ {
		if cmpHolds(col[r], cmp, bound) {
			out = append(out, r)
		}
	}
	return out
}

// naiveDist computes the exact statistics of col[:n] the way a scan does.
func naiveDist(col []float32, n int) (d dist, fin []float32) {
	d.Min, d.Max = float32(math.Inf(1)), float32(math.Inf(-1))
	var sum float64
	for _, v := range col[:n] {
		switch {
		case v != v:
			d.NaN++
		case math.IsInf(float64(v), 1):
			d.PosInf++
		case math.IsInf(float64(v), -1):
			d.NegInf++
		default:
			d.Finite++
			if v < d.Min {
				d.Min = v
			}
			if v > d.Max {
				d.Max = v
			}
			sum += float64(v)
			fin = append(fin, v)
		}
	}
	d.Rows = int64(n)
	if d.Finite == 0 {
		d.Mean = math.NaN()
		return d, fin
	}
	d.Mean = sum / float64(d.Finite)
	var ss float64
	for _, v := range fin {
		dv := float64(v) - d.Mean
		ss += dv * dv
	}
	if d.Finite > 1 {
		d.Std = math.Sqrt(ss / float64(d.Finite-1))
	}
	sort.Slice(fin, func(i, j int) bool { return fin[i] < fin[j] })
	return d, fin
}

// columnQuantile is the q-quantile of the finite values among a column's
// first 64Ki rows (enough to place a filter bound; sorting a whole
// growing stream per column would dominate set-up).
func columnQuantile(col []float32, q float64) float32 {
	n := len(col)
	if n > 64<<10 {
		n = 64 << 10
	}
	_, fin := naiveDist(col, n)
	if len(fin) == 0 {
		return 0
	}
	return fin[int(q*float64(len(fin)-1))]
}

func closeTo(a, b, rel float64) bool {
	if a != a && b != b {
		return true
	}
	return math.Abs(a-b) <= rel*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// visibleRows lists the row counts an exact answer over t may reflect.
func (t *table) visibleRows(ackedBefore, ackedAfter int64) []int {
	if !t.growing || ackedBefore < 0 {
		return []int{t.rows}
	}
	lo := int(ackedBefore) / t.block * t.block
	hi := int(ackedAfter)
	if hi > t.rows {
		hi = t.rows
	}
	var out []int
	for n := lo; n <= hi; n += t.block {
		out = append(out, n)
	}
	return out
}

type oracle struct {
	tables map[string]*table
}

// check verifies one decoded reply. A nil error means the answer is
// right: exact classes bit for bit, approximate answers by "the reported
// bound contains the exact value".
func (o *oracle) check(r *request, s sample) error {
	t := o.tables[tableKey(r.Model, r.Interm)]
	if t == nil {
		return fmt.Errorf("no oracle table for %s/%s", r.Model, r.Interm)
	}
	rep := s.rep
	switch r.Class {
	case pointq:
		return t.checkMatrix(rep.Matrix, r.Cols, r.From, r.To)
	case fetch:
		n := r.NEx
		if n <= 0 || n > t.rows {
			n = t.rows
		}
		return t.checkMatrix(rep.Matrix, r.Cols, 0, n)
	case topk:
		col, err := t.col(r.Col)
		if err != nil {
			return err
		}
		if rep.Approx != nil && rep.Strategy == "SAMPLE" {
			return t.checkApproxTopK(col, rep, s)
		}
		var last error
		for _, n := range t.visibleRows(s.ackedBefore, s.ackedAfter) {
			if last = sameTopK(naiveTopK(col, n, r.K), rep.TopK); last == nil {
				return nil
			}
		}
		return last
	case filter:
		col, err := t.col(r.Col)
		if err != nil {
			return err
		}
		var last error
		for _, n := range t.visibleRows(s.ackedBefore, s.ackedAfter) {
			if last = sameInts(naiveFilter(col, n, r.Cmp, r.Bound), rep.Rows); last == nil {
				return nil
			}
		}
		return last
	case coldist:
		col, err := t.col(r.Col)
		if err != nil {
			return err
		}
		return t.checkDist(col, rep, s)
	}
	return fmt.Errorf("oracle: no check for %s", r.Class)
}

func (t *table) col(name string) ([]float32, error) {
	c, ok := t.cols[name]
	if !ok {
		return nil, fmt.Errorf("oracle table has no column %q", name)
	}
	return c, nil
}

func (t *table) checkMatrix(got [][]float32, cols []string, from, to int) error {
	if len(cols) == 0 {
		cols = t.order
	}
	if to > t.rows {
		to = t.rows
	}
	if len(got) != to-from {
		return fmt.Errorf("got %d rows, want %d", len(got), to-from)
	}
	for i, row := range got {
		if len(row) != len(cols) {
			return fmt.Errorf("row %d has %d values, want %d", from+i, len(row), len(cols))
		}
		for j, name := range cols {
			col, err := t.col(name)
			if err != nil {
				return err
			}
			if !sameBits(row[j], col[from+i]) {
				return fmt.Errorf("row %d col %s: got %v, want %v", from+i, name, row[j], col[from+i])
			}
		}
	}
	return nil
}

func sameTopK(want, got []rank) error {
	if len(want) != len(got) {
		return fmt.Errorf("topk: got %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Row != got[i].Row || !sameBits(want[i].Value, got[i].Value) {
			return fmt.Errorf("topk rank %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

func sameInts(want, got []int) error {
	if len(want) != len(got) {
		return fmt.Errorf("filter: got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("filter row %d: got %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// checkApproxTopK verifies a sampled TOPK: every entry is a real (row,
// value) pair of the population it claims to cover, and each entry's true
// rank fraction lies within the reported bound of its sample rank.
func (t *table) checkApproxTopK(col []float32, rep *reply, s sample) error {
	a := rep.Approx
	n := int(a.Rows)
	if t.growing && s.ackedBefore >= 0 {
		if a.Rows < s.ackedBefore || a.Rows > s.ackedAfter {
			return fmt.Errorf("approx topk: covers %d rows, acknowledged %d..%d", a.Rows, s.ackedBefore, s.ackedAfter)
		}
	} else if n != t.rows {
		return fmt.Errorf("approx topk: covers %d rows, want %d", n, t.rows)
	}
	if n > t.rows || a.SampleRows <= 0 {
		return fmt.Errorf("approx topk: %d rows from a sample of %d", n, a.SampleRows)
	}
	for i, e := range rep.TopK {
		if e.Row < 0 || e.Row >= n || !sameBits(col[e.Row], e.Value) {
			return fmt.Errorf("approx topk rank %d: (%d, %v) is not a stored value", i, e.Row, e.Value)
		}
		if i > 0 && rankLess(e.Value, rep.TopK[i-1].Value, e.Row, rep.TopK[i-1].Row) {
			return fmt.Errorf("approx topk rank %d out of order", i)
		}
		above := 0
		for _, v := range col[:n] {
			if v > e.Value {
				above++
			}
		}
		trueFrac, sampleFrac := float64(above)/float64(n), float64(i)/float64(a.SampleRows)
		if math.Abs(trueFrac-sampleFrac) > a.RankBound+1/float64(a.SampleRows) {
			return fmt.Errorf("approx topk rank %d: true rank fraction %v, sample %v, bound %v", i, trueFrac, sampleFrac, a.RankBound)
		}
	}
	return nil
}

func (t *table) checkDist(col []float32, rep *reply, s sample) error {
	got := rep.Dist
	if got == nil {
		return fmt.Errorf("coldist: no answer decoded")
	}
	sampled := rep.Strategy == "SAMPLE"
	n := t.rows
	if t.growing && s.ackedBefore >= 0 {
		// The sampler sees every acknowledged row; the exact path sees
		// whole blocks. Either way the answer says how many rows it covers.
		n = int(got.Rows)
		lo := s.ackedBefore
		if !sampled {
			lo = lo / int64(t.block) * int64(t.block)
		}
		if got.Rows < lo || got.Rows > s.ackedAfter || n > t.rows {
			return fmt.Errorf("coldist: covers %d rows, acknowledged %d..%d", got.Rows, s.ackedBefore, s.ackedAfter)
		}
	}
	want, fin := naiveDist(col, n)
	if got.Rows != want.Rows || got.Finite != want.Finite || got.NaN != want.NaN ||
		got.PosInf != want.PosInf || got.NegInf != want.NegInf {
		return fmt.Errorf("coldist counts: got %+v, want %+v", *got, want)
	}
	if want.Finite == 0 {
		return nil
	}
	if !sameBits(got.Min, want.Min) || !sameBits(got.Max, want.Max) {
		return fmt.Errorf("coldist min/max: got %v/%v, want %v/%v", got.Min, got.Max, want.Min, want.Max)
	}
	lower, upper := fin[(len(fin)-1)/2], fin[len(fin)/2]
	if !sampled {
		if !closeTo(got.Mean, want.Mean, 1e-9) || !closeTo(got.Std, want.Std, 1e-9) {
			return fmt.Errorf("coldist mean/std: got %v/%v, want %v/%v", got.Mean, got.Std, want.Mean, want.Std)
		}
		if got.P50 < lower || got.P50 > upper {
			return fmt.Errorf("coldist p50: got %v, want %v..%v", got.P50, lower, upper)
		}
		return nil
	}
	if math.Abs(got.Mean-want.Mean) > got.MeanBound+1e-12 {
		return fmt.Errorf("coldist mean %v ± %v does not contain %v", got.Mean, got.MeanBound, want.Mean)
	}
	// The true rank fraction of the reported median spans [below, atOrBelow].
	below := sort.Search(len(fin), func(i int) bool { return fin[i] >= got.P50 })
	atOrBelow := sort.Search(len(fin), func(i int) bool { return fin[i] > got.P50 })
	lo, hi := float64(below)/float64(len(fin)), float64(atOrBelow)/float64(len(fin))
	if hi < 0.5-got.P50RankBound || lo > 0.5+got.P50RankBound {
		return fmt.Errorf("coldist p50 %v has rank %v..%v, outside 0.5 ± %v", got.P50, lo, hi, got.P50RankBound)
	}
	return nil
}
