// Package zillow builds the paper's TRAD evaluation workload: the ten
// pipeline templates of Table 4 (P1..P10), each instantiated with five
// hyperparameter settings, for fifty pipelines total. Pipelines are
// declared in the YAML specification format and share long prefixes
// (identical reads, joins and feature stages), which is precisely the
// redundancy MISTIQUE's de-duplication exploits in Fig. 6a.
package zillow

import (
	"fmt"
	"strings"

	"mistique/internal/data"
	"mistique/internal/frame"
	"mistique/internal/pipeline"
)

// Env builds the synthetic Zillow tables shared by every pipeline.
func Env(nProps, nTrain int, seed int64) map[string]*frame.Frame {
	h := data.Housing(nProps, nTrain, seed)
	return map[string]*frame.Frame{
		"properties": h.Properties,
		"train":      h.Train,
		"test":       h.Test,
	}
}

// header emits the shared read stages.
func header() string {
	return `
  - name: props_raw
    op: read_table
    params: {table: properties}
  - name: sales
    op: read_table
    params: {table: train}
  - name: holdout
    op: read_table
    params: {table: test}
`
}

// propStages chains property-table feature stages (each applied pre-join,
// as in the Table 4 templates) and returns the YAML plus the name of the
// final property frame.
func propStages(stages ...string) (string, string) {
	var sb strings.Builder
	last := "props_raw"
	for i, s := range stages {
		name := fmt.Sprintf("props_fe%d", i+1)
		sb.WriteString(strings.ReplaceAll(strings.ReplaceAll(s, "$IN", last), "$NAME", name))
		last = name
	}
	return sb.String(), last
}

// tail emits the join/drop/split/train/predict stages shared by the
// single-model templates.
func tail(props, trainOp, trainParams string) string {
	return fmt.Sprintf(`
  - name: joined
    op: join
    inputs: [sales, %[1]s]
    params: {on: parcelid}
  - name: joined_test
    op: join
    inputs: [holdout, %[1]s]
    params: {on: parcelid}
  - name: dropped
    op: drop_columns
    inputs: [joined]
    params: {cols: [regionidzip, propertytype]}
  - name: dropped_test
    op: drop_columns
    inputs: [joined_test]
    params: {cols: [regionidzip, propertytype]}
  - name: splits
    op: split
    inputs: [dropped]
    params: {frac: 0.8, seed: 17}
    outputs: [train_split, eval_split]
  - name: model
    op: %[2]s
    inputs: [train_split]
    params: {target: logerror%[3]s}
  - name: pred_eval
    op: predict
    inputs: [eval_split]
    params: {model: model}
  - name: pred_holdout
    op: predict
    inputs: [dropped_test]
    params: {model: model}
`, props, trainOp, trainParams)
}

const feFillNA = `
  - name: $NAME
    op: fillna
    inputs: [$IN]
    params: {strategy: mean}
`

const feOneHot = `
  - name: $NAME
    op: onehot
    inputs: [$IN]
    params: {cols: [propertytype]}
`

const feGroupAvg = `
  - name: $NAME
    op: group_avg
    inputs: [$IN]
    params: {group: regionidzip, col: taxvaluedollarcnt, name: region_avg_tax}
`

const feRecency = `
  - name: $NAME
    op: construction_recency
    inputs: [$IN]
`

const feNeighborhood = `
  - name: $NAME
    op: neighborhood
    inputs: [$IN]
    params: {bins: $BINS}
`

const feResidential = `
  - name: $NAME
    op: is_residential
    inputs: [$IN]
`

// Variant is one hyperparameter setting of a template.
type Variant map[string]float64

// rounds is kept small so the full 50-pipeline workload runs in seconds on
// one core; the storage/dedup behaviour is unaffected by ensemble size.
const rounds = 12

func lgbmParams(v Variant) string {
	return fmt.Sprintf(", rounds: %d, learning_rate: %g, sub_feature: %g, min_data: %d, max_depth: 4, seed: 1",
		rounds, v["learning_rate"], v["sub_feature"], int(v["min_data"]))
}

func xgbParams(v Variant) string {
	return fmt.Sprintf(", rounds: %d, eta: %g, lambda: %g, alpha: %g, max_depth: %d, seed: 2",
		rounds, v["eta"], v["lambda"], v["alpha"], int(v["max_depth"]))
}

func elasticParams(v Variant) string {
	s := fmt.Sprintf(", alpha: 0.001, l1_ratio: %g, tol: %g", v["l1_ratio"], v["tol"])
	if v["normalize"] != 0 {
		s += ", normalize: 1"
	}
	return s
}

// template builds one pipeline YAML.
type template struct {
	id       string
	variants []Variant
	build    func(name string, v Variant) string
}

func simpleTemplate(trainOp string, paramFn func(Variant) string, fe ...string) func(string, Variant) string {
	return func(name string, v Variant) string {
		feYAML, last := propStages(fe...)
		return "name: " + name + "\nstages:" + header() + feYAML + tail(last, trainOp, paramFn(v))
	}
}

// p5Build is the two-model ensemble template.
func p5Build(name string, v Variant) string {
	feYAML, last := propStages()
	base := "name: " + name + "\nstages:" + header() + feYAML + fmt.Sprintf(`
  - name: joined
    op: join
    inputs: [sales, %[1]s]
    params: {on: parcelid}
  - name: joined_test
    op: join
    inputs: [holdout, %[1]s]
    params: {on: parcelid}
  - name: dropped
    op: drop_columns
    inputs: [joined]
    params: {cols: [regionidzip, propertytype]}
  - name: dropped_test
    op: drop_columns
    inputs: [joined_test]
    params: {cols: [regionidzip, propertytype]}
  - name: splits
    op: split
    inputs: [dropped]
    params: {frac: 0.8, seed: 17}
    outputs: [train_split, eval_split]
  - name: model_xgb
    op: train_xgb
    inputs: [train_split]
    params: {target: logerror%[2]s}
  - name: model_lgbm
    op: train_lgbm
    inputs: [train_split]
    params: {target: logerror, rounds: %[3]d, learning_rate: 0.1, max_depth: 4, seed: 3}
  - name: pred_xgb
    op: predict
    inputs: [dropped_test]
    params: {model: model_xgb}
  - name: pred_lgbm
    op: predict
    inputs: [dropped_test]
    params: {model: model_lgbm}
  - name: pred_holdout
    op: blend
    inputs: [pred_xgb, pred_lgbm]
    params: {weight_a: %[4]g, weight_b: %[5]g}
`, last, xgbParams(v), rounds, v["xgb_weight"], v["lgbm_weight"])
	return base
}

func templates() []template {
	lgbmVars := []Variant{
		{"learning_rate": 0.05, "sub_feature": 0.5, "min_data": 20},
		{"learning_rate": 0.1, "sub_feature": 0.5, "min_data": 20},
		{"learning_rate": 0.1, "sub_feature": 0.8, "min_data": 40},
		{"learning_rate": 0.2, "sub_feature": 0.8, "min_data": 20},
		{"learning_rate": 0.2, "sub_feature": 1.0, "min_data": 60},
	}
	xgbVars := []Variant{
		{"eta": 0.05, "lambda": 1, "alpha": 0, "max_depth": 3},
		{"eta": 0.1, "lambda": 1, "alpha": 0, "max_depth": 4},
		{"eta": 0.1, "lambda": 5, "alpha": 0.1, "max_depth": 4},
		{"eta": 0.2, "lambda": 1, "alpha": 0.5, "max_depth": 5},
		{"eta": 0.3, "lambda": 10, "alpha": 0, "max_depth": 3},
	}
	elasticVars := []Variant{
		{"l1_ratio": 0.1, "tol": 1e-4},
		{"l1_ratio": 0.3, "tol": 1e-4},
		{"l1_ratio": 0.5, "tol": 1e-5},
		{"l1_ratio": 0.7, "tol": 1e-4},
		{"l1_ratio": 0.9, "tol": 1e-5},
	}
	elasticNormVars := []Variant{
		{"l1_ratio": 0.1, "tol": 1e-4, "normalize": 1},
		{"l1_ratio": 0.3, "tol": 1e-4, "normalize": 1},
		{"l1_ratio": 0.5, "tol": 1e-5, "normalize": 0},
		{"l1_ratio": 0.7, "tol": 1e-4, "normalize": 1},
		{"l1_ratio": 0.9, "tol": 1e-5, "normalize": 0},
	}
	ensembleVars := []Variant{
		{"eta": 0.1, "lambda": 1, "alpha": 0, "max_depth": 4, "xgb_weight": 0.5, "lgbm_weight": 0.5},
		{"eta": 0.1, "lambda": 1, "alpha": 0, "max_depth": 4, "xgb_weight": 0.7, "lgbm_weight": 0.3},
		{"eta": 0.2, "lambda": 5, "alpha": 0.1, "max_depth": 3, "xgb_weight": 0.3, "lgbm_weight": 0.7},
		{"eta": 0.1, "lambda": 1, "alpha": 0.5, "max_depth": 5, "xgb_weight": 0.6, "lgbm_weight": 0.4},
		{"eta": 0.05, "lambda": 1, "alpha": 0, "max_depth": 4, "xgb_weight": 0.4, "lgbm_weight": 0.6},
	}

	neighborhoodFE := strings.ReplaceAll(feNeighborhood, "$BINS", "8")

	return []template{
		{id: "p1", variants: lgbmVars, build: simpleTemplate("train_lgbm", lgbmParams)},
		{id: "p2", variants: xgbVars, build: simpleTemplate("train_xgb", xgbParams)},
		{id: "p3", variants: elasticVars, build: simpleTemplate("train_elastic", elasticParams, feOneHot, feFillNA)},
		{id: "p4", variants: elasticNormVars, build: simpleTemplate("train_elastic", elasticParams, feGroupAvg, feOneHot, feFillNA)},
		{id: "p5", variants: ensembleVars, build: p5Build},
		{id: "p6", variants: lgbmVars, build: simpleTemplate("train_lgbm", lgbmParams, feGroupAvg)},
		{id: "p7", variants: elasticVars, build: simpleTemplate("train_elastic", elasticParams, feGroupAvg, feFillNA)},
		{id: "p8", variants: elasticNormVars, build: simpleTemplate("train_elastic", elasticParams, feGroupAvg, feRecency, feOneHot, feFillNA)},
		{id: "p9", variants: elasticNormVars, build: simpleTemplate("train_elastic", elasticParams, feGroupAvg, feRecency, neighborhoodFE, feOneHot, feFillNA)},
		{id: "p10", variants: elasticNormVars, build: simpleTemplate("train_elastic", elasticParams, feGroupAvg, feRecency, feResidential, feOneHot, feFillNA)},
	}
}

// YAMLs returns all fifty pipeline specifications keyed by pipeline name
// (p1_v0 .. p10_v4) in deterministic order.
func YAMLs() (names []string, byName map[string]string) {
	byName = make(map[string]string, 50)
	for _, t := range templates() {
		for vi, v := range t.variants {
			name := fmt.Sprintf("%s_v%d", t.id, vi)
			names = append(names, name)
			byName[name] = t.build(name, v)
		}
	}
	return names, byName
}

// Specs parses all fifty pipeline YAMLs into specs.
func Specs() ([]pipeline.Spec, error) {
	names, byName := YAMLs()
	out := make([]pipeline.Spec, 0, len(names))
	for _, n := range names {
		spec, err := pipeline.SpecFromYAML(byName[n])
		if err != nil {
			return nil, fmt.Errorf("zillow: template %s: %w", n, err)
		}
		out = append(out, spec)
	}
	return out, nil
}

// Build instantiates every pipeline. Pipelines take their tables per run
// (Run(env)), so env is unused: the parameter stays because the benchmark
// harness calls Build(env) and program changes keep its identifiers (ROADMAP
// rule iii) until a benchmark change re-surfaces it.
func Build(_ map[string]*frame.Frame) ([]*pipeline.Pipeline, error) {
	specs, err := Specs()
	if err != nil {
		return nil, err
	}
	out := make([]*pipeline.Pipeline, 0, len(specs))
	for _, spec := range specs {
		p, err := pipeline.New(spec)
		if err != nil {
			return nil, fmt.Errorf("zillow: build %s: %w", spec.Name, err)
		}
		out = append(out, p)
	}
	return out, nil
}
