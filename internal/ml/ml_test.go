package ml

import (
	"math"
	"math/rand"
	"testing"

	"mistique/internal/tensor"
)

// mse is the mean squared error between predictions and targets.
func mse(pred, y []float64) float64 {
	var sum float64
	for i := range pred {
		d := pred[i] - y[i]
		sum += d * d
	}
	return sum / float64(len(pred))
}

// synthData builds y = 3*x0 - 2*x1 + noise plus irrelevant features.
func synthData(n, d int, noise float64, seed int64) (*tensor.Dense, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewDense(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, float32(rng.NormFloat64()))
		}
		y[i] = 3*float64(x.At(i, 0)) - 2*float64(x.At(i, 1)) + noise*rng.NormFloat64()
	}
	return x, y
}

// stepData builds a nonlinear target trees can fit but lines cannot.
func stepData(n int, seed int64) (*tensor.Dense, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewDense(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, float32(rng.Float64()*10))
		}
		y[i] = 1
		if x.At(i, 0) > 5 {
			y[i] = 10
		}
		if x.At(i, 1) > 7 {
			y[i] += 5
		}
		y[i] += 0.1 * rng.NormFloat64()
	}
	return x, y
}

func TestTreeFitsStepFunction(t *testing.T) {
	x, y := stepData(2000, 1)
	rows := make([]int, x.Rows)
	for i := range rows {
		rows[i] = i
	}
	tr := fitTree(x, y, rows, TreeParams{MaxDepth: 3, MinSamples: 10})
	if len(tr.nodes) < 3 {
		t.Fatalf("tree did not split: %d nodes", len(tr.nodes))
	}
	pred := make([]float64, x.Rows)
	for i := range pred {
		pred[i] = tr.PredictRow(x.Row(i))
	}
	if e := mse(pred, y); e > 1.0 {
		t.Fatalf("tree MSE %g too high", e)
	}
}

func TestTreeRespectsMaxDepthAndMinSamples(t *testing.T) {
	x, y := stepData(500, 2)
	rows := make([]int, x.Rows)
	for i := range rows {
		rows[i] = i
	}
	stump := fitTree(x, y, rows, TreeParams{MaxDepth: 1, MinSamples: 10})
	if len(stump.nodes) > 3 {
		t.Fatalf("depth-1 tree has %d nodes", len(stump.nodes))
	}
	// Huge MinSamples forbids any split.
	leaf := fitTree(x, y, rows, TreeParams{MaxDepth: 5, MinSamples: 10000})
	if len(leaf.nodes) != 1 {
		t.Fatalf("no-split tree has %d nodes", len(leaf.nodes))
	}
}

func TestGBMBeatsMeanBaseline(t *testing.T) {
	x, y := stepData(3000, 3)
	g := TrainGBM(x, y, GBMParams{Rounds: 40, LearningRate: 0.2, MaxDepth: 3, Seed: 7})
	pred := g.Predict(x)
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	base := make([]float64, len(y))
	for i := range base {
		base[i] = mean
	}
	if mse(pred, y) > mse(base, y)/10 {
		t.Fatalf("GBM MSE %g vs baseline %g: not learning", mse(pred, y), mse(base, y))
	}
	if len(g.trees) != 40 {
		t.Fatalf("trees %d", len(g.trees))
	}
}

func TestGBMDeterministicWithSeed(t *testing.T) {
	x, y := stepData(500, 4)
	p := GBMParams{Rounds: 10, MaxDepth: 3, BaggingFraction: 0.8, SubFeature: 0.7, Seed: 42}
	a := TrainGBM(x, y, p).Predict(x)
	b := TrainGBM(x, y, p).Predict(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("GBM not deterministic for fixed seed")
		}
	}
}

func TestGBMHyperparametersChangeModel(t *testing.T) {
	x, y := stepData(800, 5)
	a := TrainGBM(x, y, GBMParams{Rounds: 10, MaxDepth: 2, Seed: 1}).Predict(x)
	b := TrainGBM(x, y, GBMParams{Rounds: 10, MaxDepth: 5, Seed: 1}).Predict(x)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("changing max_depth produced identical predictions")
	}
}

func TestElasticNetRecoversCoefficients(t *testing.T) {
	x, y := synthData(2000, 5, 0.01, 6)
	m := TrainElasticNet(x, y, ElasticNetParams{Alpha: 0.001, L1Ratio: 0.5, Tol: 1e-6})
	if math.Abs(m.Coef[0]-3) > 0.1 || math.Abs(m.Coef[1]+2) > 0.1 {
		t.Fatalf("coef %v", m.Coef)
	}
	for j := 2; j < 5; j++ {
		if math.Abs(m.Coef[j]) > 0.1 {
			t.Fatalf("irrelevant coef %d = %g", j, m.Coef[j])
		}
	}
}

func TestElasticNetL1Sparsifies(t *testing.T) {
	x, y := synthData(500, 10, 0.5, 8)
	dense := TrainElasticNet(x, y, ElasticNetParams{Alpha: 0.0001, L1Ratio: 0})
	sparse := TrainElasticNet(x, y, ElasticNetParams{Alpha: 0.5, L1Ratio: 1})
	nz := func(m *ElasticNet) int {
		c := 0
		for _, w := range m.Coef {
			if w != 0 {
				c++
			}
		}
		return c
	}
	if nz(sparse) >= nz(dense) {
		t.Fatalf("L1 did not sparsify: %d vs %d nonzeros", nz(sparse), nz(dense))
	}
}

func TestElasticNetNormalize(t *testing.T) {
	// One feature on a very different scale; Normalize should still fit.
	rng := rand.New(rand.NewSource(9))
	n := 1000
	x := tensor.NewDense(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, float32(rng.NormFloat64()*1e4))
		x.Set(i, 1, float32(rng.NormFloat64()))
		y[i] = 0.001*float64(x.At(i, 0)) + 2*float64(x.At(i, 1))
	}
	m := TrainElasticNet(x, y, ElasticNetParams{Alpha: 1e-5, L1Ratio: 0.5, Normalize: true})
	pred := m.Predict(x)
	if e := mse(pred, y); e > 0.05 {
		t.Fatalf("normalized fit MSE %g", e)
	}
}

func TestOLSExactOnNoiselessData(t *testing.T) {
	x, y := synthData(300, 3, 0, 10)
	m := TrainElasticNet(x, y, ElasticNetParams{Alpha: 1e-8, L1Ratio: 0, Tol: 1e-8, MaxIter: 5000})
	pred := m.Predict(x)
	if e := mse(pred, y); e > 1e-6 {
		t.Fatalf("OLS MSE %g on noiseless data", e)
	}
}

func TestPredictRowDeepTree(t *testing.T) {
	// Property: predictions are constant within a leaf region.
	x, y := stepData(1000, 11)
	rows := make([]int, x.Rows)
	for i := range rows {
		rows[i] = i
	}
	tr := fitTree(x, y, rows, TreeParams{MaxDepth: 6, MinSamples: 4})
	a := tr.PredictRow([]float32{1, 1, 1})
	b := tr.PredictRow([]float32{1, 1, 1})
	if a != b {
		t.Fatal("prediction not deterministic")
	}
}

func BenchmarkTrainGBM(b *testing.B) {
	x, y := stepData(2000, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainGBM(x, y, GBMParams{Rounds: 10, MaxDepth: 3, Seed: 1})
	}
}
