package ml

import (
	"math/rand"

	"mistique/internal/tensor"
)

// GBMParams configures gradient-boosted regression trees. The two pipeline
// flavors map onto it as:
//
//	XGBoost:  eta -> LearningRate, lambda -> Lambda, alpha -> Alpha,
//	          max_depth -> MaxDepth
//	LightGBM: learning_rate -> LearningRate, sub_feature -> SubFeature,
//	          min_data -> MinSamples, bagging_fraction -> BaggingFraction
type GBMParams struct {
	Rounds          int
	LearningRate    float64
	MaxDepth        int
	MinSamples      int
	SubFeature      float64
	Lambda          float64
	Alpha           float64
	BaggingFraction float64
	Seed            int64
}

func (p GBMParams) withDefaults() GBMParams {
	if p.Rounds <= 0 {
		p.Rounds = 30
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.1
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 4
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 20
	}
	if p.SubFeature <= 0 || p.SubFeature > 1 {
		p.SubFeature = 1
	}
	if p.BaggingFraction <= 0 || p.BaggingFraction > 1 {
		p.BaggingFraction = 1
	}
	return p
}

// GBM is a fitted gradient-boosted tree ensemble for regression.
type GBM struct {
	base  float64
	lr    float64
	trees []*Tree
}

// TrainGBM fits an ensemble minimizing squared loss: each round fits a
// tree to the current residuals on a bagged row sample.
func TrainGBM(x *tensor.Dense, y []float64, p GBMParams) *GBM {
	p = p.withDefaults()
	if x.Rows != len(y) {
		panic("ml: TrainGBM row mismatch")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := &GBM{lr: p.LearningRate}
	var sum float64
	for _, v := range y {
		sum += v
	}
	if len(y) > 0 {
		g.base = sum / float64(len(y))
	}
	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = g.base
	}
	resid := make([]float64, len(y))
	tp := TreeParams{
		MaxDepth:   p.MaxDepth,
		MinSamples: p.MinSamples,
		SubFeature: p.SubFeature,
		Lambda:     p.Lambda,
		Alpha:      p.Alpha,
	}
	for round := 0; round < p.Rounds; round++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		rows := bagRows(len(y), p.BaggingFraction, rng)
		tp.Seed = rng.Int63()
		tr := fitTree(x, resid, rows, tp)
		g.trees = append(g.trees, tr)
		for i := 0; i < x.Rows; i++ {
			pred[i] += p.LearningRate * tr.PredictRow(x.Row(i))
		}
	}
	return g
}

func bagRows(n int, frac float64, rng *rand.Rand) []int {
	if frac >= 1 {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	k := int(frac * float64(n))
	if k < 1 {
		k = 1
	}
	return rng.Perm(n)[:k]
}

// Predict evaluates the ensemble for every row of x.
func (g *GBM) Predict(x *tensor.Dense) []float64 {
	out := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		v := g.base
		for _, t := range g.trees {
			v += g.lr * t.PredictRow(row)
		}
		out[i] = v
	}
	return out
}
