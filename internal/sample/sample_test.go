package sample

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// population generates n values from a named adversarial distribution —
// the shapes ISSUE 10's differential harness demands.
func population(t testing.TB, dist string, n int, rng *rand.Rand) []float32 {
	t.Helper()
	out := make([]float32, n)
	switch dist {
	case "uniform":
		for i := range out {
			out[i] = rng.Float32()
		}
	case "constant":
		for i := range out {
			out[i] = 42.5
		}
	case "heavytail":
		// Pareto-ish: u^-2 spans several orders of magnitude.
		for i := range out {
			u := rng.Float64()
			if u < 1e-6 {
				u = 1e-6
			}
			out[i] = float32(math.Pow(u, -2))
		}
	case "bimodal":
		for i := range out {
			if rng.Intn(2) == 0 {
				out[i] = -1000 + rng.Float32()
			} else {
				out[i] = 1000 + rng.Float32()
			}
		}
	case "nonfinite":
		for i := range out {
			switch rng.Intn(10) {
			case 0:
				out[i] = float32(math.NaN())
			case 1:
				out[i] = float32(math.Inf(1))
			case 2:
				out[i] = float32(math.Inf(-1))
			default:
				out[i] = rng.Float32()*200 - 100
			}
		}
	default:
		t.Fatalf("unknown distribution %q", dist)
	}
	return out
}

func exactMoments(vals []float32) (mean float64, finite int64, min, max float32) {
	min, max = float32(math.Inf(1)), float32(math.Inf(-1))
	var sum float64
	for _, v := range vals {
		if v != v || math.IsInf(float64(v), 0) {
			continue
		}
		sum += float64(v)
		finite++
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if finite == 0 {
		return math.NaN(), 0, min, max
	}
	return sum / float64(finite), finite, min, max
}

func buildFromColumn(vals []float32, cfg Config) *Sample {
	mb := NewMatrixBuilder([]string{"c0"}, len(vals), cfg)
	mb.SetColumn(0, vals)
	return mb.Finish()
}

// TestMeanBoundsHold is the core differential guarantee: across every
// adversarial distribution and a spread of seeds, the reported mean bound
// always contains the exact mean.
func TestMeanBoundsHold(t *testing.T) {
	dists := []string{"uniform", "constant", "heavytail", "bimodal", "nonfinite"}
	for _, dist := range dists {
		for seed := uint64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(int64(seed) * 7919))
			vals := population(t, dist, 20000, rng)
			s := buildFromColumn(vals, Config{Cap: 2048})
			est := s.MeanEstimate(0)
			exact, finite, _, _ := exactMoments(vals)
			if est.N != finite {
				t.Fatalf("%s/seed%d: N=%d, exact finite=%d", dist, seed, est.N, finite)
			}
			if math.IsInf(est.Bound, 1) {
				continue // sample caught no finite values: caller must fall back
			}
			if err := math.Abs(est.Value - exact); err > est.Bound {
				t.Errorf("%s/seed%d: |%g-%g|=%g exceeds bound %g (k=%d n=%d)",
					dist, seed, est.Value, exact, err, est.Bound, est.K, est.N)
			}
		}
	}
}

func TestConstantColumnIsExact(t *testing.T) {
	vals := make([]float32, 5000)
	for i := range vals {
		vals[i] = -7.25
	}
	s := buildFromColumn(vals, Config{Cap: 128})
	est := s.MeanEstimate(0)
	if est.Bound != 0 || est.Value != -7.25 {
		t.Fatalf("constant column: est=%+v, want exact -7.25 with bound 0", est)
	}
}

func TestCompleteSampleIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := population(t, "uniform", 500, rng)
	s := buildFromColumn(vals, Config{Cap: 1024}) // cap > n
	if !s.Complete() {
		t.Fatal("sample with cap>n not complete")
	}
	est := s.MeanEstimate(0)
	exact, _, _, _ := exactMoments(vals)
	if est.Bound != 0 || math.Abs(est.Value-exact) > 1e-9 {
		t.Fatalf("complete sample: est=%+v, exact=%g", est, exact)
	}
	if _, bound := s.TopK(0, 5, true); bound != 0 {
		t.Fatalf("complete sample TopK bound = %g, want 0", bound)
	}
	if _, bound := s.Quantile(0, 0.5); bound != 0 {
		t.Fatalf("complete sample Quantile bound = %g, want 0", bound)
	}
}

func TestAllNonFinitePopulation(t *testing.T) {
	vals := make([]float32, 1000)
	for i := range vals {
		if i%2 == 0 {
			vals[i] = float32(math.NaN())
		} else {
			vals[i] = float32(math.Inf(1))
		}
	}
	s := buildFromColumn(vals, Config{Cap: 64})
	st := s.Stats[0]
	if st.Finite != 0 || st.NaN != 500 || st.PosInf != 500 {
		t.Fatalf("stats = %+v", st)
	}
	est := s.MeanEstimate(0)
	if !math.IsNaN(est.Value) || est.Bound != 0 {
		t.Fatalf("no-finite mean: est=%+v, want NaN value (undefined both ways)", est)
	}
}

// TestTopKRankBound checks the DKW-style guarantee: each returned row's
// true rank fraction is within the reported bound of its sample rank
// fraction.
func TestTopKRankBound(t *testing.T) {
	for _, dist := range []string{"uniform", "heavytail", "bimodal", "nonfinite"} {
		for seed := uint64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			vals := population(t, dist, 20000, rng)
			s := buildFromColumn(vals, Config{Cap: 4096})
			const kTop = 20
			got, bound := s.TopK(0, kTop, true)
			if len(got) == 0 {
				continue
			}
			// Exact descending order of the finite population.
			finite := make([]float32, 0, len(vals))
			for _, v := range vals {
				if v == v && !math.IsInf(float64(v), 0) {
					finite = append(finite, v)
				}
			}
			sort.Slice(finite, func(i, j int) bool { return finite[i] > finite[j] })
			n := float64(len(finite))
			kFin := 0
			for r := 0; r < s.Rows(); r++ {
				v := s.Value(r, 0)
				if v == v && !math.IsInf(float64(v), 0) {
					kFin++
				}
			}
			for i, rv := range got {
				if vals[rv.Row] != rv.Value {
					t.Fatalf("%s/seed%d: returned row %d does not hold value %g", dist, seed, rv.Row, rv.Value)
				}
				trueRank := float64(sort.Search(len(finite), func(j int) bool { return finite[j] <= rv.Value }))
				sampleFrac := float64(i) / float64(kFin)
				if d := math.Abs(trueRank/n - sampleFrac); d > bound {
					t.Errorf("%s/seed%d: entry %d rank fraction off by %g > bound %g", dist, seed, i, d, bound)
				}
			}
		}
	}
}

func TestQuantileBound(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(int64(seed) * 31))
		vals := population(t, "heavytail", 20000, rng)
		s := buildFromColumn(vals, Config{Cap: 4096})
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
			v, bound := s.Quantile(0, q)
			// The returned value's true CDF position must be within bound of q.
			var below, n int
			for _, x := range vals {
				if x != x || math.IsInf(float64(x), 0) {
					continue
				}
				n++
				if x <= v {
					below++
				}
			}
			truePos := float64(below) / float64(n)
			// Allow one sample-grid step of slack on top of the bound.
			slack := 1.0/float64(s.Rows()) + bound
			if d := truePos - q; math.Abs(d) > slack {
				t.Errorf("seed%d q=%g: true CDF pos %g off by %g > %g", seed, q, truePos, math.Abs(d), slack)
			}
		}
	}
}

// TestConfusionBoundsHold checks every estimated cell against the exact
// contingency table.
func TestConfusionBoundsHold(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(int64(seed) * 131))
		n := 20000
		labels := make([]float32, n)
		preds := make([]float32, n)
		for i := range labels {
			labels[i] = float32(rng.Intn(5))
			if rng.Float64() < 0.8 {
				preds[i] = labels[i] // mostly correct classifier
			} else {
				preds[i] = float32(rng.Intn(5))
			}
		}
		mb := NewMatrixBuilder([]string{"label", "pred"}, n, Config{Cap: 2048})
		mb.SetColumn(0, labels)
		mb.SetColumn(1, preds)
		s := mb.Finish()

		est, err := s.Confusion(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		exact := map[[2]float32]int64{}
		for i := range labels {
			exact[[2]float32{labels[i], preds[i]}]++
		}
		for _, cell := range est.Cells {
			want := float64(exact[[2]float32{cell.Label, cell.Pred}])
			if d := math.Abs(cell.Count - want); d > cell.Bound {
				t.Errorf("seed=%d cell (%g,%g): |%g-%g|=%g > bound %g",
					seed, cell.Label, cell.Pred, cell.Count, want, d, cell.Bound)
			}
		}
		if est.MaxBound <= 0 || est.MaxBound > 1 {
			t.Fatalf("MaxBound = %g out of (0,1]", est.MaxBound)
		}
	}
}

func TestConfusionEdgeCases(t *testing.T) {
	s := buildFromColumn(nil, Config{Cap: 8})
	if _, err := s.Confusion(0, 3); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	est, err := s.Confusion(0, 0)
	if err != nil || len(est.Cells) != 0 {
		t.Fatalf("empty sample confusion: %+v, %v", est, err)
	}
	// NaN labels/preds are excluded from cells.
	mb := NewMatrixBuilder([]string{"label", "pred"}, 4, Config{Cap: 8})
	nan := float32(math.NaN())
	mb.SetColumn(0, []float32{1, nan, 1, 1})
	mb.SetColumn(1, []float32{1, 1, nan, 1})
	s2 := mb.Finish()
	est2, err := s2.Confusion(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(est2.Cells) != 1 || est2.Cells[0].Count != 2 {
		t.Fatalf("NaN exclusion: cells=%+v", est2.Cells)
	}
}

func TestBoundFunctions(t *testing.T) {
	if b := MeanBound(0, 100, 1, 1); !math.IsInf(b, 1) {
		t.Fatalf("k=0 mean bound = %g, want +Inf", b)
	}
	if b := MeanBound(100, 100, 1, 1); b != 0 {
		t.Fatalf("k=n mean bound = %g, want 0", b)
	}
	if b := MeanBound(50, 100, 1, 0); b != 0 {
		t.Fatalf("zero-width mean bound = %g, want 0", b)
	}
	if b := ProportionBound(0, 100); b != 1 {
		t.Fatalf("k=0 proportion bound = %g, want 1", b)
	}
	if b := ProportionBound(100, 100); b != 0 {
		t.Fatalf("k=n proportion bound = %g, want 0", b)
	}
	if b := RankBound(0, 10); b != 1 {
		t.Fatalf("k=0 rank bound = %g, want 1", b)
	}
	if b := RankBound(10, 10); b != 0 {
		t.Fatalf("k=n rank bound = %g, want 0", b)
	}
	// More samples → tighter bounds, monotonically.
	if MeanBound(1000, 100000, 1, 10) >= MeanBound(100, 100000, 1, 10) {
		t.Fatal("mean bound not monotone in k")
	}
	if ProportionBound(1000, 100000) >= ProportionBound(100, 100000) {
		t.Fatal("proportion bound not monotone in k")
	}
}

// TestDefaultCapMeetsOnePercent pins the sizing claim the engine's
// SLA story rests on: at the default cap over a 100k-row uniform column,
// the mean bound lands under 1% of the value range.
func TestDefaultCapMeetsOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vals := population(t, "uniform", 100000, rng)
	s := buildFromColumn(vals, Config{})
	est := s.MeanEstimate(0)
	width := float64(s.Stats[0].Max - s.Stats[0].Min)
	if est.Bound >= 0.01*width {
		t.Fatalf("default-cap bound %g ≥ 1%% of range %g", est.Bound, width)
	}
	if _, bound := s.TopK(0, 10, true); bound >= 0.01 {
		t.Fatalf("default-cap rank bound %g ≥ 1%%", bound)
	}
}

func TestColStatsAndAccessors(t *testing.T) {
	vals := []float32{1, 2, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 3}
	s := buildFromColumn(vals, Config{Cap: 16})
	st := s.Stats[0]
	if st.Finite != 3 || st.NaN != 1 || st.PosInf != 1 || st.NegInf != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Min != 1 || st.Max != 3 {
		t.Fatalf("min/max = %g/%g", st.Min, st.Max)
	}
	if st.Rows() != 6 {
		t.Fatalf("Rows() = %d", st.Rows())
	}
	if s.ColIndex("c0") != 0 || s.ColIndex("nope") != -1 {
		t.Fatal("ColIndex broken")
	}
	if s.Rows() != 6 || s.Value(5, 0) != 3 {
		t.Fatalf("accessors: rows=%d", s.Rows())
	}
	mean, std, k := s.Moments(0)
	if k != 3 || mean != 2 || std != 1 {
		t.Fatalf("moments = %g/%g/%d", mean, std, k)
	}
}
