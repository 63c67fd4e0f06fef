package ml

import (
	"math"

	"mistique/internal/tensor"
)

// ElasticNetParams mirrors scikit-learn's ElasticNet knobs used by the
// Zillow templates: l1_ratio, tol and normalize.
type ElasticNetParams struct {
	// Alpha is the overall penalty strength (sklearn alpha, default 1.0).
	Alpha float64
	// L1Ratio in [0,1] blends L1 (1) and L2 (0) penalties.
	L1Ratio float64
	// Tol is the coordinate-descent convergence tolerance on the max
	// coefficient update.
	Tol float64
	// Normalize standardizes features to unit variance before fitting.
	Normalize bool
	// MaxIter bounds coordinate-descent sweeps.
	MaxIter int
}

func (p ElasticNetParams) withDefaults() ElasticNetParams {
	if p.Alpha <= 0 {
		p.Alpha = 1.0
	}
	if p.L1Ratio < 0 {
		p.L1Ratio = 0
	}
	if p.L1Ratio > 1 {
		p.L1Ratio = 1
	}
	if p.Tol <= 0 {
		p.Tol = 1e-4
	}
	if p.MaxIter <= 0 {
		p.MaxIter = 1000
	}
	return p
}

// ElasticNet is a fitted linear model with intercept.
type ElasticNet struct {
	Coef      []float64
	Intercept float64
	// feature standardization recorded at fit time
	means, scales []float64
	normalize     bool
}

// TrainElasticNet fits by cyclic coordinate descent on the standard
// elastic-net objective 1/(2n)||y - Xw||^2 + alpha*l1_ratio*||w||_1 +
// alpha*(1-l1_ratio)/2*||w||_2^2.
func TrainElasticNet(x *tensor.Dense, y []float64, p ElasticNetParams) *ElasticNet {
	p = p.withDefaults()
	n, d := x.Rows, x.Cols
	if n != len(y) {
		panic("ml: TrainElasticNet row mismatch")
	}
	m := &ElasticNet{Coef: make([]float64, d), normalize: p.Normalize}

	// Center y and (optionally standardized) X; intercept recovered after.
	xf := make([][]float64, d)
	m.means = make([]float64, d)
	m.scales = make([]float64, d)
	for j := 0; j < d; j++ {
		col := make([]float64, n)
		var mean float64
		for i := 0; i < n; i++ {
			col[i] = float64(x.At(i, j))
			mean += col[i]
		}
		mean /= float64(max(n, 1))
		m.means[j] = mean
		var varsum float64
		for i := range col {
			col[i] -= mean
			varsum += col[i] * col[i]
		}
		scale := 1.0
		if p.Normalize {
			if sd := math.Sqrt(varsum / float64(max(n, 1))); sd > 1e-12 {
				scale = sd
			}
			for i := range col {
				col[i] /= scale
			}
		}
		m.scales[j] = scale
		xf[j] = col
	}
	var yMean float64
	for _, v := range y {
		yMean += v
	}
	yMean /= float64(max(n, 1))
	resid := make([]float64, n)
	for i := range resid {
		resid[i] = y[i] - yMean
	}

	// Per-feature squared norms.
	norms := make([]float64, d)
	for j := range xf {
		for _, v := range xf[j] {
			norms[j] += v * v
		}
	}
	l1 := p.Alpha * p.L1Ratio * float64(n)
	l2 := p.Alpha * (1 - p.L1Ratio) * float64(n)

	for iter := 0; iter < p.MaxIter; iter++ {
		var maxDelta float64
		for j := 0; j < d; j++ {
			if norms[j] == 0 {
				continue
			}
			col := xf[j]
			old := m.Coef[j]
			// rho = X_j . (resid + X_j * w_j)
			var rho float64
			for i := range col {
				rho += col[i] * resid[i]
			}
			rho += old * norms[j]
			var w float64
			switch {
			case rho > l1:
				w = (rho - l1) / (norms[j] + l2)
			case rho < -l1:
				w = (rho + l1) / (norms[j] + l2)
			}
			if w != old {
				diff := w - old
				for i := range col {
					resid[i] -= diff * col[i]
				}
				m.Coef[j] = w
				if ad := math.Abs(diff); ad > maxDelta {
					maxDelta = ad
				}
			}
		}
		if maxDelta < p.Tol {
			break
		}
	}
	// Fold standardization back: w_orig = w/scale, intercept = yMean - sum(w_orig*mean).
	m.Intercept = yMean
	for j := 0; j < d; j++ {
		m.Coef[j] /= m.scales[j]
		m.Intercept -= m.Coef[j] * m.means[j]
	}
	m.means, m.scales = nil, nil
	return m
}

// Predict evaluates the linear model for every row of x.
func (m *ElasticNet) Predict(x *tensor.Dense) []float64 {
	out := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		v := m.Intercept
		for j, w := range m.Coef {
			if w != 0 {
				v += w * float64(row[j])
			}
		}
		out[i] = v
	}
	return out
}
