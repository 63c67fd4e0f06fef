// Package diag implements the diagnostic techniques of Table 1 / Table 5:
// the analyses that run on top of intermediates fetched from MISTIQUE.
// Query categories follow the paper's taxonomy — FCFR (POINTQ, TOPK), FCMR
// (COL_DIFF, COL_DIST), MCFR (KNN, ROW_DIFF) and MCMR (VIS, SVCCA,
// NETDISSECT).
package diag

import (
	"fmt"
	"math"
	"sort"

	"mistique/internal/linalg"
	"mistique/internal/tensor"
)

// PointQuery returns the value of one column at one row (POINTQ: "find the
// activation of neuron-35 for image-345"). The heavy lifting is the fetch;
// the analysis is the lookup itself.
func PointQuery(col []float32, row int) (float32, error) {
	if row < 0 || row >= len(col) {
		return 0, fmt.Errorf("diag: row %d out of range (%d rows)", row, len(col))
	}
	return col[row], nil
}

// RankLess is the pinned total order for activation ranking, shared with
// the neuron-centric index (internal/nindex) so indexed TOPK and a full
// scan produce byte-identical answers: value descending, NaN after every
// number, and ties (including ±0 and equal NaNs) broken by ascending row
// id. Without the explicit NaN arm a `>` comparator treats NaN as equal to
// everything, leaving NaN rows wherever the sort happens to put them.
func RankLess(va, vb float32, ra, rb int) bool {
	an, bn := math.IsNaN(float64(va)), math.IsNaN(float64(vb))
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

// DistLess is the pinned total order for nearest-neighbor ranking:
// distance ascending, NaN after every number, ties broken by ascending
// row id. KNN ranks by it; any accelerated KNN must too, for exact parity.
func DistLess(da, db float64, ra, rb int) bool {
	an, bn := math.IsNaN(da), math.IsNaN(db)
	switch {
	case an && bn:
		return ra < rb
	case an:
		return false
	case bn:
		return true
	case da != db:
		return da < db
	}
	return ra < rb
}

// TopK returns the indices of the k largest values in col in RankLess
// order (TOPK: "top-10 images with highest activation for neuron-35").
// The order is fully deterministic: equal values rank by ascending row id
// and NaNs rank after every number.
func TopK(col []float32, k int) []int {
	if k < 0 {
		k = 0
	}
	if k > len(col) {
		k = len(col)
	}
	idx := make([]int, len(col))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return RankLess(col[idx[a]], col[idx[b]], idx[a], idx[b]) })
	return idx[:k]
}

// ColDiff compares two prediction/error columns grouped by a categorical
// key (COL_DIFF: "compare model performance grouped by type of house").
// Returns per-group mean of a and b keyed by group label.
func ColDiff(a, b []float32, groups []string) (map[string][2]float64, error) {
	if len(a) != len(b) || len(a) != len(groups) {
		return nil, fmt.Errorf("diag: ColDiff length mismatch %d/%d/%d", len(a), len(b), len(groups))
	}
	sums := map[string][2]float64{}
	counts := map[string]int{}
	for i := range a {
		s := sums[groups[i]]
		s[0] += float64(a[i])
		s[1] += float64(b[i])
		sums[groups[i]] = s
		counts[groups[i]]++
	}
	out := make(map[string][2]float64, len(sums))
	for g, s := range sums {
		n := float64(counts[g])
		out[g] = [2]float64{s[0] / n, s[1] / n}
	}
	return out, nil
}

// Histogram is a COL_DIST result: counts per equal-width bin over
// [Min, Max].
type Histogram struct {
	Min, Max float64
	Counts   []int
}

// ColDist computes the distribution of a column (COL_DIST: "plot the error
// rates for all homes"). NaNs are skipped.
func ColDist(col []float32, bins int) Histogram {
	if bins < 1 {
		bins = 1
	}
	h := Histogram{Counts: make([]int, bins), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range col {
		f := float64(v)
		if math.IsNaN(f) {
			continue
		}
		if f < h.Min {
			h.Min = f
		}
		if f > h.Max {
			h.Max = f
		}
	}
	if h.Min > h.Max { // all NaN
		h.Min, h.Max = 0, 0
		return h
	}
	width := (h.Max - h.Min) / float64(bins)
	for _, v := range col {
		f := float64(v)
		if math.IsNaN(f) {
			continue
		}
		b := bins - 1
		if width > 0 {
			b = int((f - h.Min) / width)
			if b >= bins {
				b = bins - 1
			}
		}
		h.Counts[b]++
	}
	return h
}

// KNN returns the indices of the k nearest rows of x to the query row by
// Euclidean distance (MCFR: "find the 10 homes most similar to Home-50").
// The query row itself is excluded when selfIdx >= 0. Ranking follows
// DistLess, so rows at equal distance (and rows whose distance is NaN,
// which sort last) come out in a deterministic order.
func KNN(x *tensor.Dense, query []float32, k, selfIdx int) []int {
	type cand struct {
		idx  int
		dist float64
	}
	cands := make([]cand, 0, x.Rows)
	for i := 0; i < x.Rows; i++ {
		if i == selfIdx {
			continue
		}
		cands = append(cands, cand{idx: i, dist: tensor.L2Dist(x.Row(i), query)})
	}
	sort.Slice(cands, func(a, b int) bool {
		return DistLess(cands[a].dist, cands[b].dist, cands[a].idx, cands[b].idx)
	})
	if k < 0 {
		k = 0
	}
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].idx
	}
	return out
}

// Overlap returns |a ∩ b| / |a| — the KNN accuracy metric of Table 3.
func Overlap(a, b []int) float64 {
	if len(a) == 0 {
		return 0
	}
	set := make(map[int]bool, len(b))
	for _, v := range b {
		set[v] = true
	}
	hit := 0
	for _, v := range a {
		if set[v] {
			hit++
		}
	}
	return float64(hit) / float64(len(a))
}

// RowDiff returns the per-feature difference between two rows (MCFR:
// "compare features for Home-50 and Home-55").
func RowDiff(a, b []float32) ([]float32, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("diag: RowDiff length mismatch %d/%d", len(a), len(b))
	}
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out, nil
}

// VIS computes the per-class mean activation of every column (the ActiVis
// heat-map: average activations for all neurons across all classes).
// Returns a classes x cols matrix.
func VIS(x *tensor.Dense, labels []int, classes int) (*tensor.Dense, error) {
	if x.Rows != len(labels) {
		return nil, fmt.Errorf("diag: VIS rows %d != labels %d", x.Rows, len(labels))
	}
	out := tensor.NewDense(classes, x.Cols)
	counts := make([]int, classes)
	for i := 0; i < x.Rows; i++ {
		c := labels[i]
		if c < 0 || c >= classes {
			return nil, fmt.Errorf("diag: VIS label %d out of range", c)
		}
		counts[c]++
		row := x.Row(i)
		dst := out.Row(c)
		for j, v := range row {
			dst[j] += v
		}
	}
	for c := 0; c < classes; c++ {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float32(counts[c])
		row := out.Row(c)
		for j := range row {
			row[j] *= inv
		}
	}
	return out, nil
}

// HeatmapDistance compares two VIS heat-maps: max and mean absolute
// difference plus Spearman-style rank correlation of the flattened maps.
// This is how the Fig. 9 fidelity comparison is quantified numerically.
func HeatmapDistance(a, b *tensor.Dense) (maxAbs, meanAbs, rankCorr float64, err error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return 0, 0, 0, fmt.Errorf("diag: heatmap shape mismatch")
	}
	n := len(a.Data)
	if n == 0 {
		return 0, 0, 1, nil
	}
	var sum float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		sum += d
		if d > maxAbs {
			maxAbs = d
		}
	}
	meanAbs = sum / float64(n)
	ra := ranks(a.Data)
	rb := ranks(b.Data)
	rankCorr = linalg.Pearson(ra, rb)
	return maxAbs, meanAbs, rankCorr, nil
}

func ranks(vals []float32) []float64 {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	out := make([]float64, len(vals))
	for r, i := range idx {
		out[i] = float64(r)
	}
	return out
}

// SVCCA computes the mean canonical correlation between two activation
// matrices after projecting each onto the SVD subspace holding 99% of its
// energy (Alg. 1 / Raghu et al.). Rows are examples, columns neurons.
func SVCCA(a, b *tensor.Dense) (float64, error) {
	if a.Rows != b.Rows {
		return 0, fmt.Errorf("diag: SVCCA row mismatch %d/%d", a.Rows, b.Rows)
	}
	pa, err := svdProject(a, 0.99)
	if err != nil {
		return 0, err
	}
	pb, err := svdProject(b, 0.99)
	if err != nil {
		return 0, err
	}
	cors := linalg.CCA(pa, pb)
	if len(cors) == 0 {
		return 0, fmt.Errorf("diag: SVCCA found no correlated directions")
	}
	return linalg.Mean(cors), nil
}

func svdProject(x *tensor.Dense, energy float64) (*linalg.Mat, error) {
	if x.Rows < x.Cols {
		return nil, fmt.Errorf("diag: SVCCA needs rows >= cols (%dx%d); subsample columns first", x.Rows, x.Cols)
	}
	m := linalg.NewMat(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		dst := m.Row(i)
		for j, v := range row {
			dst[j] = float64(v)
		}
	}
	m.CenterColumns()
	u, s, _ := m.SVD()
	k := linalg.TruncateEnergy(s, energy)
	if k == 0 {
		return nil, fmt.Errorf("diag: SVCCA input has zero energy")
	}
	// Projection = U_k * diag(s_k): the data expressed in its top-k
	// singular directions.
	out := linalg.NewMat(x.Rows, k)
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < k; j++ {
			out.Set(i, j, u.At(i, j)*s[j])
		}
	}
	return out, nil
}

// NetDissect computes, for every channel of the activation tensor, the
// alpha-tail threshold T_k, binarizes the activation maps against it, and
// returns the intersection-over-union with the per-image binary concept
// masks (Alg. 3 / Bau et al.). Concept masks must share the activation
// spatial size.
func NetDissect(act *tensor.T4, concept *tensor.T4, alpha float64) ([]float64, error) {
	if concept.N != act.N || concept.H != act.H || concept.W != act.W || concept.C != 1 {
		return nil, fmt.Errorf("diag: concept mask shape (%d,%d,%d,%d) does not match activations",
			concept.N, concept.C, concept.H, concept.W)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("diag: alpha must be in (0,1)")
	}
	out := make([]float64, act.C)
	plane := act.H * act.W
	vals := make([]float32, 0, act.N*plane)
	for k := 0; k < act.C; k++ {
		vals = vals[:0]
		for n := 0; n < act.N; n++ {
			vals = append(vals, act.Plane(n, k)...)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		tk := vals[int(float64(len(vals))*(1-alpha))]
		var inter, union int
		for n := 0; n < act.N; n++ {
			a := act.Plane(n, k)
			c := concept.Plane(n, 0)
			for i := range a {
				on := a[i] > tk
				lab := c[i] > 0.5
				if on && lab {
					inter++
				}
				if on || lab {
					union++
				}
			}
		}
		if union > 0 {
			out[k] = float64(inter) / float64(union)
		}
	}
	return out, nil
}

// ConfusionMatrix tallies predicted vs true classes (FCMR: "compute the
// confusion matrix for the training dataset").
func ConfusionMatrix(pred, truth []int, classes int) ([][]int, error) {
	if len(pred) != len(truth) {
		return nil, fmt.Errorf("diag: confusion length mismatch")
	}
	m := make([][]int, classes)
	for i := range m {
		m[i] = make([]int, classes)
	}
	for i := range pred {
		if pred[i] < 0 || pred[i] >= classes || truth[i] < 0 || truth[i] >= classes {
			return nil, fmt.Errorf("diag: class out of range at %d", i)
		}
		m[truth[i]][pred[i]]++
	}
	return m, nil
}
