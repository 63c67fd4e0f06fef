// Package ml implements the model-fitting stages the Zillow pipelines use:
// ordinary least squares, coordinate-descent ElasticNet, and
// gradient-boosted regression trees in two flavors whose hyperparameters
// mirror the XGBoost (eta, lambda, alpha, max_depth) and LightGBM
// (learning_rate, sub_feature, min_data, bagging_fraction) knobs the
// paper's pipeline templates vary (Table 4).
package ml

import (
	"math"
	"math/rand"

	"mistique/internal/tensor"
)

// TreeParams controls a single regression tree fit.
type TreeParams struct {
	// MaxDepth bounds tree depth (root = depth 0).
	MaxDepth int
	// MinSamples is the minimum number of examples to split a node
	// (LightGBM's min_data).
	MinSamples int
	// SubFeature is the fraction of features considered per split in
	// (0, 1]; 1 means all (LightGBM's sub_feature).
	SubFeature float64
	// Lambda is the L2 leaf regularization (XGBoost's lambda).
	Lambda float64
	// Alpha is the L1 leaf regularization (XGBoost's alpha).
	Alpha float64
	// Seed drives feature subsampling.
	Seed int64
}

func (p TreeParams) withDefaults() TreeParams {
	if p.MaxDepth <= 0 {
		p.MaxDepth = 4
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 20
	}
	if p.SubFeature <= 0 || p.SubFeature > 1 {
		p.SubFeature = 1
	}
	if p.Lambda < 0 {
		p.Lambda = 0
	}
	if p.Alpha < 0 {
		p.Alpha = 0
	}
	return p
}

// treeNode is one node of a fitted regression tree. Leaves have
// feature == -1.
type treeNode struct {
	feature     int
	threshold   float32
	left, right int32 // child indices; -1 for none
	value       float64
}

// Tree is a fitted regression tree predicting a residual target.
type Tree struct {
	nodes []treeNode
}

// fitTree fits a tree to targets using squared loss with XGBoost-style
// regularized leaf weights: w = -soft(G, alpha) / (H + lambda) where
// G = -sum(target), H = n.
func fitTree(x *tensor.Dense, target []float64, rows []int, p TreeParams) *Tree {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	t := &Tree{}
	t.build(x, target, rows, 0, p, rng)
	return t
}

func leafWeight(sum float64, n int, p TreeParams) float64 {
	g := -sum // gradient of 1/2(pred-y)^2 at pred=0 summed over node
	var soft float64
	switch {
	case g > p.Alpha:
		soft = g - p.Alpha
	case g < -p.Alpha:
		soft = g + p.Alpha
	}
	return -soft / (float64(n) + p.Lambda)
}

// gain is the split score improvement for sums/counts of a candidate
// split, following the XGBoost structure score -G^2/(H+lambda) (up to the
// constant complexity term, which we fold into MinSamples/MaxDepth).
func gain(sumL float64, nL int, sumR float64, nR int, p TreeParams) float64 {
	score := func(sum float64, n int) float64 {
		g := -sum
		return g * g / (float64(n) + p.Lambda)
	}
	return score(sumL, nL) + score(sumR, nR) - score(sumL+sumR, nL+nR)
}

func (t *Tree) build(x *tensor.Dense, target []float64, rows []int, depth int, p TreeParams, rng *rand.Rand) int32 {
	var sum float64
	for _, r := range rows {
		sum += target[r]
	}
	nodeIdx := int32(len(t.nodes))
	t.nodes = append(t.nodes, treeNode{feature: -1, left: -1, right: -1, value: leafWeight(sum, len(rows), p)})
	if depth >= p.MaxDepth || len(rows) < p.MinSamples {
		return nodeIdx
	}

	feats := sampleFeatures(x.Cols, p.SubFeature, rng)
	bestGain := 1e-12
	bestFeat := -1
	var bestThresh float32
	pairs := make([]pair, len(rows))
	for _, f := range feats {
		for i, r := range rows {
			pairs[i] = pair{v: x.At(r, f), t: target[r]}
		}
		sortPairs(pairs)
		var sumL float64
		for i := 0; i < len(pairs)-1; i++ {
			sumL += pairs[i].t
			if pairs[i].v == pairs[i+1].v {
				continue // cannot split between equal values
			}
			nL := i + 1
			nR := len(pairs) - nL
			if nL < p.MinSamples/2 || nR < p.MinSamples/2 {
				continue
			}
			if g := gain(sumL, nL, sum-sumL, nR, p); g > bestGain {
				bestGain = g
				bestFeat = f
				bestThresh = (pairs[i].v + pairs[i+1].v) / 2
			}
		}
	}
	if bestFeat < 0 {
		return nodeIdx
	}

	var lRows, rRows []int
	for _, r := range rows {
		if x.At(r, bestFeat) <= bestThresh {
			lRows = append(lRows, r)
		} else {
			rRows = append(rRows, r)
		}
	}
	if len(lRows) == 0 || len(rRows) == 0 {
		return nodeIdx
	}
	left := t.build(x, target, lRows, depth+1, p, rng)
	right := t.build(x, target, rRows, depth+1, p, rng)
	t.nodes[nodeIdx].feature = bestFeat
	t.nodes[nodeIdx].threshold = bestThresh
	t.nodes[nodeIdx].left = left
	t.nodes[nodeIdx].right = right
	return nodeIdx
}

func sampleFeatures(total int, frac float64, rng *rand.Rand) []int {
	k := int(math.Ceil(frac * float64(total)))
	if k >= total {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := rng.Perm(total)
	return perm[:k]
}

// pair couples a feature value with its boosting target during split search.
type pair struct {
	v float32
	t float64
}

// sortPairs sorts by value ascending. Shell sort keeps the hot split-search
// path allocation-free (sort.Slice would allocate a closure per node).
func sortPairs(p []pair) {
	if len(p) < 2 {
		return
	}
	// Shell sort: in-place, allocation-free, fine for node sizes here.
	for gap := len(p) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(p); i++ {
			tmp := p[i]
			j := i
			for ; j >= gap && p[j-gap].v > tmp.v; j -= gap {
				p[j] = p[j-gap]
			}
			p[j] = tmp
		}
	}
}

// PredictRow evaluates the tree on one feature row.
func (t *Tree) PredictRow(row []float32) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if row[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}
