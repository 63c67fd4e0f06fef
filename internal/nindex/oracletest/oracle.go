// Package oracletest is the differential-testing harness for the
// neuron-centric indexes: every indexed query shape (TOPK, FilterRows) is
// replayed against a naive full-scan oracle built on internal/diag's
// pinned comparators, over randomized columns that include the
// adversarial shapes — NaN and ±Inf, constant columns, duplicate
// values, all-equal ties, signed zeros — and the results are asserted
// byte-identical, not approximately equal. Tie-breaking is pinned to
// ascending row id on both sides, so any divergence is a real bug, never
// flake.
package oracletest

import (
	"math"
	"math/rand"

	"mistique/internal/diag"
	"mistique/internal/nindex"
)

// ColumnKind names one generator shape.
type ColumnKind string

const (
	// Uniform draws i.i.d. uniform values.
	Uniform ColumnKind = "uniform"
	// Duplicates draws from a tiny value set, forcing heavy ties.
	Duplicates ColumnKind = "duplicates"
	// Constant repeats one value (an all-equal column: every rank and
	// every boundary predicate is a tie).
	Constant ColumnKind = "constant"
	// Special mixes NaN, ±Inf, ±0 and duplicates into uniform noise.
	Special ColumnKind = "special"
	// Sorted is ascending (segment ranges collapse to disjoint runs).
	Sorted ColumnKind = "sorted"
	// Reversed is descending (priority order equals row order).
	Reversed ColumnKind = "reversed"
)

// Kinds lists every generator shape, for table-driven sweeps.
var Kinds = []ColumnKind{Uniform, Duplicates, Constant, Special, Sorted, Reversed}

// Column generates n values of the given shape from rng.
func Column(rng *rand.Rand, kind ColumnKind, n int) []float32 {
	out := make([]float32, n)
	switch kind {
	case Duplicates:
		vals := []float32{-2, 0, 0.5, 3}
		for i := range out {
			out[i] = vals[rng.Intn(len(vals))]
		}
	case Constant:
		v := float32(rng.NormFloat64())
		for i := range out {
			out[i] = v
		}
	case Special:
		specials := []float32{
			float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
			0, float32(math.Copysign(0, -1)), 1, 1, -1,
		}
		for i := range out {
			if rng.Intn(3) == 0 {
				out[i] = specials[rng.Intn(len(specials))]
			} else {
				out[i] = float32(rng.NormFloat64())
			}
		}
	case Sorted:
		v := float32(-100)
		for i := range out {
			v += float32(rng.Float64())
			out[i] = v
		}
	case Reversed:
		v := float32(100)
		for i := range out {
			v -= float32(rng.Float64())
			out[i] = v
		}
	default:
		for i := range out {
			out[i] = float32(rng.Float64()*200 - 100)
		}
	}
	return out
}

// Bounds returns predicate bounds worth probing against col: exact stored
// values (duplicate-boundary ties), midpoints, the extremes, ±Inf, NaN
// (which must match nothing), and zero.
func Bounds(rng *rand.Rand, col []float32) []float32 {
	bounds := []float32{
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 0,
	}
	finite := make([]float32, 0, len(col))
	for _, v := range col {
		if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
			finite = append(finite, v)
		}
	}
	if len(finite) > 0 {
		for i := 0; i < 3; i++ {
			bounds = append(bounds, finite[rng.Intn(len(finite))]) // exact hit
		}
		a, b := finite[rng.Intn(len(finite))], finite[rng.Intn(len(finite))]
		bounds = append(bounds, (a+b)/2)
	}
	return bounds
}

// TopK is the naive oracle: rank the whole column with diag.TopK (value
// descending, NaN last, ascending row id on ties) and keep k.
func TopK(col []float32, k int) []nindex.Entry {
	ranked := diag.TopK(col, k)
	out := make([]nindex.Entry, len(ranked))
	for i, r := range ranked {
		out[i] = nindex.Entry{Row: r, Value: col[r]}
	}
	return out
}

// FilterRows is the naive oracle: test every value, ascending row order.
// NaN matches no predicate.
func FilterRows(col []float32, op nindex.Op, bound float32) []int {
	out := []int{}
	for i, v := range col {
		var match bool
		switch op {
		case nindex.Gt:
			match = v > bound
		case nindex.Ge:
			match = v >= bound
		case nindex.Lt:
			match = v < bound
		default:
			match = v <= bound
		}
		if match {
			out = append(out, i)
		}
	}
	return out
}
