package diag

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mistique/internal/quant"
	"mistique/internal/tensor"
)

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float32) *tensor.Dense {
	d := tensor.NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(d.Row(i), r)
	}
	return d
}

func TestPointQuery(t *testing.T) {
	col := []float32{1, 2, 3}
	if v, err := PointQuery(col, 1); err != nil || v != 2 {
		t.Fatalf("PointQuery: %v %v", v, err)
	}
	if _, err := PointQuery(col, 5); err == nil {
		t.Fatal("out of range accepted")
	}
}

func TestTopK(t *testing.T) {
	col := []float32{5, 1, 9, 3, 9}
	got := TopK(col, 3)
	if !reflect.DeepEqual(got, []int{2, 4, 0}) {
		t.Fatalf("TopK %v", got)
	}
	if len(TopK(col, 100)) != 5 {
		t.Fatal("TopK over-length")
	}
}

func TestColDiff(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	b := []float32{2, 2, 4, 4}
	groups := []string{"x", "x", "y", "y"}
	got, err := ColDiff(a, b, groups)
	if err != nil {
		t.Fatal(err)
	}
	if got["x"] != [2]float64{1.5, 2} || got["y"] != [2]float64{3.5, 4} {
		t.Fatalf("ColDiff %v", got)
	}
	if _, err := ColDiff(a, b[:2], groups); err == nil {
		t.Fatal("mismatch accepted")
	}
}

func TestColDist(t *testing.T) {
	col := []float32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h := ColDist(col, 5)
	if h.Min != 0 || h.Max != 9 {
		t.Fatalf("range [%g,%g]", h.Min, h.Max)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 10 {
		t.Fatalf("counts %v", h.Counts)
	}
	// NaNs skipped; all-NaN degenerate.
	h2 := ColDist([]float32{float32(math.NaN())}, 3)
	if h2.Counts[0] != 0 {
		t.Fatalf("NaN counted: %v", h2.Counts)
	}
}

func TestKNNFindsNeighbors(t *testing.T) {
	x := fromRows([][]float32{
		{0, 0}, {1, 0}, {10, 10}, {0.5, 0}, {11, 10},
	})
	got := KNN(x, x.Row(0), 2, 0)
	if !reflect.DeepEqual(got, []int{3, 1}) {
		t.Fatalf("KNN %v", got)
	}
	// Without self-exclusion the query point itself wins.
	got = KNN(x, x.Row(0), 1, -1)
	if got[0] != 0 {
		t.Fatalf("KNN self %v", got)
	}
}

func TestOverlap(t *testing.T) {
	if Overlap([]int{1, 2, 3, 4}, []int{3, 4, 5, 6}) != 0.5 {
		t.Fatal("overlap")
	}
	if Overlap(nil, []int{1}) != 0 {
		t.Fatal("empty overlap")
	}
}

func TestRowDiffAndVIS(t *testing.T) {
	d, err := RowDiff([]float32{3, 5}, []float32{1, 10})
	if err != nil || d[0] != 2 || d[1] != -5 {
		t.Fatalf("RowDiff %v %v", d, err)
	}
	if _, err := RowDiff([]float32{1}, []float32{1, 2}); err == nil {
		t.Fatal("mismatch accepted")
	}

	x := fromRows([][]float32{{1, 0}, {3, 0}, {0, 10}})
	vis, err := VIS(x, []int{0, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if vis.At(0, 0) != 2 || vis.At(1, 1) != 10 {
		t.Fatalf("VIS %v", vis.Data)
	}
	if _, err := VIS(x, []int{0, 0, 5}, 2); err == nil {
		t.Fatal("bad label accepted")
	}
}

func TestHeatmapDistance(t *testing.T) {
	a := fromRows([][]float32{{1, 2, 3}})
	maxAbs, meanAbs, rank, err := HeatmapDistance(a, a.Clone())
	if err != nil || maxAbs != 0 || meanAbs != 0 || math.Abs(rank-1) > 1e-12 {
		t.Fatalf("identical heatmaps: %v %v %v %v", maxAbs, meanAbs, rank, err)
	}
	// A quantized version preserves ranks but shifts values.
	b := fromRows([][]float32{{1.1, 2.1, 3.1}})
	_, meanAbs, rank, _ = HeatmapDistance(a, b)
	if math.Abs(meanAbs-0.1) > 1e-6 || rank < 0.99 {
		t.Fatalf("shifted heatmap: mean %v rank %v", meanAbs, rank)
	}
	// Scrambled ranks drop correlation.
	c := fromRows([][]float32{{3, 1, 2}})
	_, _, rank, _ = HeatmapDistance(a, c)
	if rank > 0.5 {
		t.Fatalf("scrambled rank corr %v", rank)
	}
}

func randDense(r, c int, seed int64) *tensor.Dense {
	rng := rand.New(rand.NewSource(seed))
	d := tensor.NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = float32(rng.NormFloat64())
	}
	return d
}

func TestSVCCASelfSimilarity(t *testing.T) {
	a := randDense(200, 8, 1)
	got, err := SVCCA(a, a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.99 {
		t.Fatalf("self SVCCA %g", got)
	}
}

func TestSVCCAIndependentLow(t *testing.T) {
	a := randDense(2000, 4, 2)
	b := randDense(2000, 4, 3)
	got, err := SVCCA(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got > 0.3 {
		t.Fatalf("independent SVCCA %g", got)
	}
}

func TestSVCCAQuantizationBarelyMoves(t *testing.T) {
	// The Table 2 claim: 8BIT_QT SVCCA ~= full precision SVCCA.
	a := randDense(500, 6, 4)
	b := randDense(500, 6, 5)
	// Make b correlated with a.
	for i := range b.Data {
		b.Data[i] = 0.7*a.Data[i] + 0.3*b.Data[i]
	}
	full, err := SVCCA(a, b)
	if err != nil {
		t.Fatal(err)
	}
	q, err := quant.FitKBit(a.Data, 8)
	if err != nil {
		t.Fatal(err)
	}
	aq := a.Clone()
	copy(aq.Data, q.Apply(a.Data))
	quantized, err := SVCCA(aq, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-quantized) > 0.05 {
		t.Fatalf("8-bit quantization moved SVCCA %g -> %g", full, quantized)
	}
}

func TestSVCCAErrors(t *testing.T) {
	if _, err := SVCCA(randDense(10, 3, 1), randDense(11, 3, 2)); err == nil {
		t.Fatal("row mismatch accepted")
	}
	if _, err := SVCCA(randDense(3, 10, 1), randDense(3, 10, 2)); err == nil {
		t.Fatal("cols > rows accepted")
	}
	zero := tensor.NewDense(10, 2)
	if _, err := SVCCA(zero, zero); err == nil {
		t.Fatal("zero-energy input accepted")
	}
}

func TestNetDissect(t *testing.T) {
	// Channel 0 activates exactly on the concept pixels; channel 1 is noise.
	n, hw := 4, 8
	act := tensor.NewT4(n, 2, hw, hw)
	concept := tensor.NewT4(n, 1, hw, hw)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		cp := concept.Plane(i, 0)
		a0 := act.Plane(i, 0)
		a1 := act.Plane(i, 1)
		for j := range cp {
			if rng.Float64() < 0.1 {
				cp[j] = 1
				a0[j] = 10 + rng.Float32()
			} else {
				a0[j] = rng.Float32()
			}
			a1[j] = rng.Float32() * 10
		}
	}
	iou, err := NetDissect(act, concept, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(iou) != 2 {
		t.Fatalf("iou %v", iou)
	}
	if iou[0] < 0.5 {
		t.Fatalf("concept-aligned unit IoU %g too low", iou[0])
	}
	if iou[1] > iou[0]/2 {
		t.Fatalf("noise unit IoU %g vs aligned %g", iou[1], iou[0])
	}
	if _, err := NetDissect(act, act, 0.1); err == nil {
		t.Fatal("bad concept shape accepted")
	}
	if _, err := NetDissect(act, concept, 2); err == nil {
		t.Fatal("bad alpha accepted")
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	// Duplicate values must rank by ascending row id, every time.
	col := []float32{2, 5, 5, 1, 5, 2}
	want := []int{1, 2, 4, 0, 5, 3}
	for trial := 0; trial < 10; trial++ {
		got := TopK(col, len(col))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: TopK order %v, want %v", trial, got, want)
			}
		}
	}
	// All-equal column: pure row-id order.
	eq := []float32{7, 7, 7, 7}
	got := TopK(eq, 3)
	for i, r := range []int{0, 1, 2} {
		if got[i] != r {
			t.Fatalf("all-equal TopK %v", got)
		}
	}
	// k clamping: negative, zero and beyond-n.
	if got := TopK(col, -1); len(got) != 0 {
		t.Fatalf("TopK(-1) = %v", got)
	}
	if got := TopK(col, 100); len(got) != len(col) {
		t.Fatalf("TopK(100) len %d", len(got))
	}
}

func TestTopKNaNSortsLast(t *testing.T) {
	nan := float32(math.NaN())
	col := []float32{nan, 3, nan, float32(math.Inf(1)), -2, float32(math.Inf(-1))}
	want := []int{3, 1, 4, 5, 0, 2} // +Inf, 3, -2, -Inf, then NaNs by row id
	got := TopK(col, len(col))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK with NaN/Inf = %v, want %v", got, want)
		}
	}
}

func TestKNNDeterministicTies(t *testing.T) {
	// Three rows at identical distance from the query row: ascending row id.
	x := tensor.NewDense(4, 2)
	x.Set(0, 0, 0) // query row
	x.Set(1, 0, 1)
	x.Set(2, 0, 1)
	x.Set(3, 0, 1)
	for trial := 0; trial < 10; trial++ {
		got := KNN(x, x.Row(0), 3, 0)
		for i, r := range []int{1, 2, 3} {
			if got[i] != r {
				t.Fatalf("trial %d: KNN ties %v", trial, got)
			}
		}
	}
}

func TestKNNNaNRowsSortLast(t *testing.T) {
	nan := float32(math.NaN())
	x := tensor.NewDense(4, 2)
	x.Set(0, 0, 0)
	x.Set(1, 0, nan) // NaN distance: must rank after every finite row
	x.Set(2, 0, 5)
	x.Set(3, 0, 1)
	got := KNN(x, x.Row(0), 3, 0)
	for i, r := range []int{3, 2, 1} {
		if got[i] != r {
			t.Fatalf("KNN with NaN row = %v", got)
		}
	}
}

func TestRankDistLessTotalOrder(t *testing.T) {
	nan := float32(math.NaN())
	vals := []float32{nan, float32(math.Inf(1)), 1, 0, float32(math.Copysign(0, -1)), -1, float32(math.Inf(-1))}
	// Antisymmetry + totality over every pair (including ±0: equal value,
	// row id decides).
	for a, va := range vals {
		for b, vb := range vals {
			ab := RankLess(va, vb, a, b)
			ba := RankLess(vb, va, b, a)
			if a == b {
				if ab || ba {
					t.Fatalf("RankLess not irreflexive at %d", a)
				}
				continue
			}
			if ab == ba {
				t.Fatalf("RankLess not antisymmetric for (%v,%d) vs (%v,%d)", va, a, vb, b)
			}
		}
	}
	if !DistLess(1, math.NaN(), 5, 0) || DistLess(math.NaN(), 1, 0, 5) {
		t.Fatal("DistLess must order NaN last")
	}
	if !DistLess(2, 2, 1, 3) || DistLess(2, 2, 3, 1) {
		t.Fatal("DistLess must break ties by row id")
	}
}
