// Package pipeline implements MISTIQUE's PipelineExecutor substrate for
// traditional (TRAD) ML pipelines: a library of scikit-learn-style
// transformer ops, a staged executor that records every intermediate it
// produces, and a YAML-subset specification format (modeled, like the
// paper's, after Airflow-style configs) for declaring pipelines.
//
// Each stage fits its transformer on the first (logging) run and stores the
// fitted state; later re-runs — the RERUN strategy of the cost model —
// execute the stored transformers without refitting, matching Eq. 2's
// "read transformer, read input, execute" decomposition.
package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"mistique/internal/frame"
)

// Op is a pipeline transformer. Apply consumes input frames and produces
// one or more output frames. fit is true on the logging run (the op may
// learn state, e.g. category vocabularies, means, model weights) and false
// on re-runs, which must reuse the stored state and write nothing.
type Op interface {
	// Apply transforms inputs into outputs. The number of outputs must
	// match the stage's declared output names.
	Apply(inputs []*frame.Frame, fit bool) ([]*frame.Frame, error)
}

// predictor is implemented by train ops so predict stages can find them.
type predictor interface {
	predictFrame(f *frame.Frame) (*frame.Frame, error)
}

// opFactory builds an op from stage params.
type opFactory func(params map[string]any) (Op, error)

var opRegistry = map[string]opFactory{
	"read_table":           newReadTable,
	"join":                 newJoin,
	"select_columns":       newSelectColumns,
	"drop_columns":         newDropColumns,
	"onehot":               newOneHot,
	"fillna":               newFillNA,
	"scale":                newScale,
	"group_avg":            newGroupAvg,
	"construction_recency": newConstructionRecency,
	"neighborhood":         newNeighborhood,
	"is_residential":       newIsResidential,
	"split":                newSplit,
	"train_xgb":            newTrainXGB,
	"train_lgbm":           newTrainLGBM,
	"train_elastic":        newTrainElastic,
	"predict":              newPredict,
	"blend":                newBlend,
	"log_transform":        newLogTransform,
	"clip":                 newClip,
	"select_k_best":        newSelectKBest,
}

// ---- param helpers ----

func pStr(params map[string]any, key string) (string, error) {
	v, ok := params[key]
	if !ok {
		return "", fmt.Errorf("pipeline: missing param %q", key)
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("pipeline: param %q is %T, want string", key, v)
	}
	return s, nil
}

func pStrDefault(params map[string]any, key, def string) string {
	if v, ok := params[key].(string); ok {
		return v
	}
	return def
}

func pFloatDefault(params map[string]any, key string, def float64) float64 {
	switch v := params[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case int64:
		return float64(v)
	}
	return def
}

func pIntDefault(params map[string]any, key string, def int) int {
	switch v := params[key].(type) {
	case int:
		return v
	case int64:
		return int(v)
	case float64:
		return int(v)
	}
	return def
}

func pStrList(params map[string]any, key string) ([]string, error) {
	v, ok := params[key]
	if !ok {
		return nil, fmt.Errorf("pipeline: missing param %q", key)
	}
	switch list := v.(type) {
	case []any:
		out := make([]string, len(list))
		for i, e := range list {
			s, ok := e.(string)
			if !ok {
				return nil, fmt.Errorf("pipeline: param %q element %d is %T", key, i, e)
			}
			out[i] = s
		}
		return out, nil
	case []string:
		return list, nil
	case string:
		return []string{list}, nil
	}
	return nil, fmt.Errorf("pipeline: param %q is %T, want list", key, v)
}

func one(f *frame.Frame) []*frame.Frame { return []*frame.Frame{f} }

func needInputs(inputs []*frame.Frame, n int, op string) error {
	if len(inputs) != n {
		return fmt.Errorf("pipeline: %s needs %d inputs, got %d", op, n, len(inputs))
	}
	return nil
}

// ---- read_table ----

// readTable emits a named table of the run's environment, which the
// executor hands it as its one input.
type readTable struct{ table string }

func newReadTable(params map[string]any) (Op, error) {
	t, err := pStr(params, "table")
	if err != nil {
		return nil, err
	}
	return &readTable{table: t}, nil
}

func (o *readTable) Apply(inputs []*frame.Frame, _ bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "read_table"); err != nil {
		return nil, err
	}
	return inputs, nil
}

// ---- join ----

type join struct{ on string }

func newJoin(params map[string]any) (Op, error) {
	on, err := pStr(params, "on")
	if err != nil {
		return nil, err
	}
	return &join{on: on}, nil
}

func (o *join) Apply(inputs []*frame.Frame, _ bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 2, "join"); err != nil {
		return nil, err
	}
	return one(inputs[0].JoinInner(inputs[1], o.on)), nil
}

// ---- select/drop ----

type selectColumns struct{ cols []string }

func newSelectColumns(params map[string]any) (Op, error) {
	cols, err := pStrList(params, "cols")
	if err != nil {
		return nil, err
	}
	return &selectColumns{cols: cols}, nil
}

func (o *selectColumns) Apply(inputs []*frame.Frame, _ bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "select_columns"); err != nil {
		return nil, err
	}
	for _, c := range o.cols {
		if !inputs[0].Has(c) {
			return nil, fmt.Errorf("pipeline: select_columns: no column %q", c)
		}
	}
	return one(inputs[0].Select(o.cols...)), nil
}

type dropColumns struct{ cols []string }

func newDropColumns(params map[string]any) (Op, error) {
	cols, err := pStrList(params, "cols")
	if err != nil {
		return nil, err
	}
	return &dropColumns{cols: cols}, nil
}

func (o *dropColumns) Apply(inputs []*frame.Frame, _ bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "drop_columns"); err != nil {
		return nil, err
	}
	return one(inputs[0].Drop(o.cols...)), nil
}

// ---- onehot ----

type oneHot struct {
	cols  []string
	vocab map[string][]string // fitted categories per column
}

func newOneHot(params map[string]any) (Op, error) {
	cols, err := pStrList(params, "cols")
	if err != nil {
		return nil, err
	}
	return &oneHot{cols: cols}, nil
}

func (o *oneHot) Apply(inputs []*frame.Frame, fit bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "onehot"); err != nil {
		return nil, err
	}
	in := inputs[0]
	if fit {
		o.vocab = make(map[string][]string, len(o.cols))
		for _, cname := range o.cols {
			c := in.Col(cname)
			if c == nil || c.Type != frame.String {
				return nil, fmt.Errorf("pipeline: onehot needs string column %q", cname)
			}
			seen := map[string]bool{}
			var cats []string
			for _, v := range c.S {
				if v != "" && !seen[v] {
					seen[v] = true
					cats = append(cats, v)
				}
			}
			sort.Strings(cats)
			o.vocab[cname] = cats
		}
	}
	out := in.Drop(o.cols...)
	for _, cname := range o.cols {
		c := in.Col(cname)
		if c == nil {
			return nil, fmt.Errorf("pipeline: onehot column %q missing at transform time", cname)
		}
		for _, cat := range o.vocab[cname] {
			ind := make([]float64, in.NumRows())
			for i, v := range c.S {
				if v == cat {
					ind[i] = 1
				}
			}
			out.AddFloats(cname+"="+cat, ind)
		}
	}
	return one(out), nil
}

// ---- fillna ----

type fillNA struct {
	strategy string
	means    map[string]float64
}

func newFillNA(params map[string]any) (Op, error) {
	s := pStrDefault(params, "strategy", "mean")
	if s != "mean" && s != "zero" {
		return nil, fmt.Errorf("pipeline: fillna strategy %q not supported", s)
	}
	return &fillNA{strategy: s}, nil
}

func (o *fillNA) Apply(inputs []*frame.Frame, fit bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "fillna"); err != nil {
		return nil, err
	}
	in := inputs[0].Clone()
	if fit {
		o.means = make(map[string]float64)
		for i := 0; i < in.NumCols(); i++ {
			c := in.ColAt(i)
			if c.Type != frame.Float {
				continue
			}
			var sum float64
			n := 0
			for _, v := range c.F {
				if !math.IsNaN(v) {
					sum += v
					n++
				}
			}
			if n > 0 {
				o.means[c.Name] = sum / float64(n)
			}
		}
	}
	for i := 0; i < in.NumCols(); i++ {
		c := in.ColAt(i)
		if c.Type != frame.Float {
			continue
		}
		fill := 0.0
		if o.strategy == "mean" {
			fill = o.means[c.Name]
		}
		for j, v := range c.F {
			if math.IsNaN(v) {
				c.F[j] = fill
			}
		}
	}
	return one(in), nil
}

// ---- scale ----

type scale struct {
	stats map[string][2]float64 // mean, std
}

func newScale(map[string]any) (Op, error) { return &scale{}, nil }

func (o *scale) Apply(inputs []*frame.Frame, fit bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "scale"); err != nil {
		return nil, err
	}
	in := inputs[0].Clone()
	if fit {
		o.stats = make(map[string][2]float64)
		for i := 0; i < in.NumCols(); i++ {
			c := in.ColAt(i)
			if c.Type != frame.Float {
				continue
			}
			var sum, sq float64
			n := 0
			for _, v := range c.F {
				if !math.IsNaN(v) {
					sum += v
					sq += v * v
					n++
				}
			}
			if n == 0 {
				continue
			}
			mean := sum / float64(n)
			std := math.Sqrt(sq/float64(n) - mean*mean)
			if std < 1e-12 {
				std = 1
			}
			o.stats[c.Name] = [2]float64{mean, std}
		}
	}
	for i := 0; i < in.NumCols(); i++ {
		c := in.ColAt(i)
		if c.Type != frame.Float {
			continue
		}
		st, ok := o.stats[c.Name]
		if !ok {
			continue
		}
		for j, v := range c.F {
			c.F[j] = (v - st[0]) / st[1]
		}
	}
	return one(in), nil
}

// ---- group_avg (the templates' "Avg" feature-engineering stage) ----

type groupAvg struct {
	group, col, name string
	avgs             map[string]float64
	global           float64
}

func newGroupAvg(params map[string]any) (Op, error) {
	g, err := pStr(params, "group")
	if err != nil {
		return nil, err
	}
	c, err := pStr(params, "col")
	if err != nil {
		return nil, err
	}
	name := pStrDefault(params, "name", "avg_"+c+"_by_"+g)
	return &groupAvg{group: g, col: c, name: name}, nil
}

func (o *groupAvg) Apply(inputs []*frame.Frame, fit bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "group_avg"); err != nil {
		return nil, err
	}
	in := inputs[0]
	gc := in.Col(o.group)
	vc := in.Col(o.col)
	if gc == nil || gc.Type != frame.String || vc == nil {
		return nil, fmt.Errorf("pipeline: group_avg needs string group %q and numeric col %q", o.group, o.col)
	}
	vals, ok := vc.AsFloats()
	if !ok {
		return nil, fmt.Errorf("pipeline: group_avg col %q not numeric", o.col)
	}
	if fit {
		sums := map[string]float64{}
		counts := map[string]int{}
		var gsum float64
		gn := 0
		for i, g := range gc.S {
			if math.IsNaN(vals[i]) {
				continue
			}
			sums[g] += vals[i]
			counts[g]++
			gsum += vals[i]
			gn++
		}
		o.avgs = make(map[string]float64, len(sums))
		for g, s := range sums {
			o.avgs[g] = s / float64(counts[g])
		}
		if gn > 0 {
			o.global = gsum / float64(gn)
		}
	}
	out := make([]float64, in.NumRows())
	for i, g := range gc.S {
		if v, ok := o.avgs[g]; ok {
			out[i] = v
		} else {
			out[i] = o.global
		}
	}
	res := in.Clone()
	res.AddFloats(o.name, out)
	return one(res), nil
}

// ---- feature engineering specific to the Zillow templates ----

type constructionRecency struct{ refYear float64 }

func newConstructionRecency(params map[string]any) (Op, error) {
	return &constructionRecency{refYear: pFloatDefault(params, "ref_year", 2017)}, nil
}

func (o *constructionRecency) Apply(inputs []*frame.Frame, _ bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "construction_recency"); err != nil {
		return nil, err
	}
	in := inputs[0]
	yc := in.Col("yearbuilt")
	if yc == nil {
		return nil, fmt.Errorf("pipeline: construction_recency needs yearbuilt")
	}
	years, _ := yc.AsFloats()
	rec := make([]float64, len(years))
	for i, y := range years {
		rec[i] = o.refYear - y
	}
	out := in.Clone()
	out.AddFloats("construction_recency", rec)
	return one(out), nil
}

type neighborhood struct {
	bins                           int
	latMin, latMax, lonMin, lonMax float64
}

func newNeighborhood(params map[string]any) (Op, error) {
	return &neighborhood{bins: pIntDefault(params, "bins", 8)}, nil
}

func (o *neighborhood) Apply(inputs []*frame.Frame, fit bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "neighborhood"); err != nil {
		return nil, err
	}
	in := inputs[0]
	latC, lonC := in.Col("latitude"), in.Col("longitude")
	if latC == nil || lonC == nil {
		return nil, fmt.Errorf("pipeline: neighborhood needs latitude/longitude")
	}
	lats, _ := latC.AsFloats()
	lons, _ := lonC.AsFloats()
	if fit {
		o.latMin, o.latMax = minMax(lats)
		o.lonMin, o.lonMax = minMax(lons)
	}
	ids := make([]float64, len(lats))
	for i := range lats {
		ids[i] = float64(bucket(lats[i], o.latMin, o.latMax, o.bins)*o.bins + bucket(lons[i], o.lonMin, o.lonMax, o.bins))
	}
	out := in.Clone()
	out.AddFloats("neighborhood", ids)
	return one(out), nil
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func bucket(v, lo, hi float64, bins int) int {
	if math.IsNaN(v) || hi <= lo {
		return 0
	}
	b := int((v - lo) / (hi - lo) * float64(bins))
	if b < 0 {
		b = 0
	}
	if b >= bins {
		b = bins - 1
	}
	return b
}

type isResidential struct{}

func newIsResidential(map[string]any) (Op, error) { return &isResidential{}, nil }

func (o *isResidential) Apply(inputs []*frame.Frame, _ bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "is_residential"); err != nil {
		return nil, err
	}
	in := inputs[0]
	tc := in.Col("propertytype")
	if tc == nil || tc.Type != frame.String {
		return nil, fmt.Errorf("pipeline: is_residential needs propertytype")
	}
	ind := make([]float64, in.NumRows())
	for i, v := range tc.S {
		switch strings.ToLower(v) {
		case "house", "victorian", "townhouse", "duplex":
			ind[i] = 1
		}
	}
	out := in.Clone()
	out.AddFloats("is_residential", ind)
	return one(out), nil
}

// ---- blend ----

// blend combines the "pred" columns of two prediction frames with the
// given weights (the P5 template's XGBoost+LightGBM ensemble).
type blend struct{ wa, wb float64 }

func newBlend(params map[string]any) (Op, error) {
	wa := pFloatDefault(params, "weight_a", 0.5)
	wb := pFloatDefault(params, "weight_b", 0.5)
	if wa+wb == 0 {
		return nil, fmt.Errorf("pipeline: blend weights sum to zero")
	}
	return &blend{wa: wa / (wa + wb), wb: wb / (wa + wb)}, nil
}

func (o *blend) Apply(inputs []*frame.Frame, _ bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 2, "blend"); err != nil {
		return nil, err
	}
	a, b := inputs[0].Col("pred"), inputs[1].Col("pred")
	if a == nil || b == nil {
		return nil, fmt.Errorf("pipeline: blend inputs need a pred column")
	}
	if len(a.F) != len(b.F) {
		return nil, fmt.Errorf("pipeline: blend length mismatch %d/%d", len(a.F), len(b.F))
	}
	out := make([]float64, len(a.F))
	for i := range out {
		out[i] = o.wa*a.F[i] + o.wb*b.F[i]
	}
	res := frame.WithRowIDs(inputs[0].RowIDs())
	res.AddFloats("pred", out)
	return one(res), nil
}

// ---- split ----

type split struct {
	frac float64
	seed int64
	perm []int // fitted permutation so re-runs reproduce the split
}

func newSplit(params map[string]any) (Op, error) {
	return &split{
		frac: pFloatDefault(params, "frac", 0.8),
		seed: int64(pIntDefault(params, "seed", 0)),
	}, nil
}

func (o *split) Apply(inputs []*frame.Frame, fit bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "split"); err != nil {
		return nil, err
	}
	in := inputs[0]
	if fit {
		rng := rand.New(rand.NewSource(o.seed))
		o.perm = rng.Perm(in.NumRows())
	} else if len(o.perm) != in.NumRows() {
		return nil, fmt.Errorf("pipeline: split fitted on %d rows, got %d", len(o.perm), in.NumRows())
	}
	cut := int(o.frac * float64(in.NumRows()))
	return []*frame.Frame{in.Gather(o.perm[:cut]), in.Gather(o.perm[cut:])}, nil
}

// ---- value transforms ----

// logTransform applies log1p(|x|)*sign(x) to the given float columns, a
// standard skew-reducing step in the Kaggle scripts the templates mirror.
type logTransform struct{ cols []string }

func newLogTransform(params map[string]any) (Op, error) {
	cols, err := pStrList(params, "cols")
	if err != nil {
		return nil, err
	}
	return &logTransform{cols: cols}, nil
}

func (o *logTransform) Apply(inputs []*frame.Frame, _ bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "log_transform"); err != nil {
		return nil, err
	}
	out := inputs[0].Clone()
	for _, cname := range o.cols {
		c := out.Col(cname)
		if c == nil || c.Type != frame.Float {
			return nil, fmt.Errorf("pipeline: log_transform needs float column %q", cname)
		}
		for i, v := range c.F {
			s := 1.0
			if v < 0 {
				s = -1
			}
			c.F[i] = s * math.Log1p(math.Abs(v))
		}
	}
	return one(out), nil
}

// clip winsorizes float columns to [lo, hi].
type clip struct {
	lo, hi float64
	cols   []string
}

func newClip(params map[string]any) (Op, error) {
	lo := pFloatDefault(params, "lo", math.Inf(-1))
	hi := pFloatDefault(params, "hi", math.Inf(1))
	if lo > hi {
		return nil, fmt.Errorf("pipeline: clip lo %g > hi %g", lo, hi)
	}
	cols, err := pStrList(params, "cols")
	if err != nil {
		return nil, err
	}
	return &clip{lo: lo, hi: hi, cols: cols}, nil
}

func (o *clip) Apply(inputs []*frame.Frame, _ bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "clip"); err != nil {
		return nil, err
	}
	out := inputs[0].Clone()
	for _, cname := range o.cols {
		c := out.Col(cname)
		if c == nil || c.Type != frame.Float {
			return nil, fmt.Errorf("pipeline: clip needs float column %q", cname)
		}
		for i, v := range c.F {
			if v < o.lo {
				c.F[i] = o.lo
			} else if v > o.hi {
				c.F[i] = o.hi
			}
		}
	}
	return one(out), nil
}

// selectKBest keeps the k numeric features most correlated (absolute
// Pearson) with the target — the feature-selection stage of the paper's
// workflow description. The selection is fitted on the first run and
// reused on re-runs.
type selectKBest struct {
	target string
	k      int
	keep   []string
}

func newSelectKBest(params map[string]any) (Op, error) {
	target, err := pStr(params, "target")
	if err != nil {
		return nil, err
	}
	k := pIntDefault(params, "k", 10)
	if k < 1 {
		return nil, fmt.Errorf("pipeline: select_k_best k must be >= 1")
	}
	return &selectKBest{target: target, k: k}, nil
}

func (o *selectKBest) Apply(inputs []*frame.Frame, fit bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "select_k_best"); err != nil {
		return nil, err
	}
	in := inputs[0]
	if !fit && o.keep == nil {
		return nil, fmt.Errorf("pipeline: select_k_best not fitted")
	}
	if fit {
		tc := in.Col(o.target)
		if tc == nil {
			return nil, fmt.Errorf("pipeline: select_k_best: no target %q", o.target)
		}
		y, ok := tc.AsFloats()
		if !ok {
			return nil, fmt.Errorf("pipeline: select_k_best: target %q not numeric", o.target)
		}
		type scored struct {
			name string
			abs  float64
		}
		var cands []scored
		for i := 0; i < in.NumCols(); i++ {
			c := in.ColAt(i)
			if c.Name == o.target || c.Name == "parcelid" {
				continue
			}
			vals, ok := c.AsFloats()
			if !ok {
				continue
			}
			cands = append(cands, scored{name: c.Name, abs: math.Abs(safePearson(vals, y))})
		}
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].abs > cands[b].abs })
		k := min(o.k, len(cands))
		o.keep = nil
		for _, c := range cands[:k] {
			o.keep = append(o.keep, c.name)
		}
	}
	cols := append([]string{}, o.keep...)
	// Always carry the target through (and any string columns are dropped,
	// mirroring sklearn's SelectKBest operating on the numeric matrix).
	if in.Has(o.target) {
		cols = append(cols, o.target)
	}
	return one(in.Select(cols...)), nil
}

// safePearson is Pearson correlation that treats NaNs as zero and returns
// 0 for degenerate columns.
func safePearson(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	var ma, mb float64
	for i := 0; i < n; i++ {
		x, y := a[i], b[i]
		if math.IsNaN(x) {
			x = 0
		}
		if math.IsNaN(y) {
			y = 0
		}
		ma += x
		mb += y
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		x, y := a[i], b[i]
		if math.IsNaN(x) {
			x = 0
		}
		if math.IsNaN(y) {
			y = 0
		}
		cov += (x - ma) * (y - mb)
		va += (x - ma) * (x - ma)
		vb += (y - mb) * (y - mb)
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}
