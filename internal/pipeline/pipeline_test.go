package pipeline

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mistique/internal/data"
	"mistique/internal/frame"
)

func env(t *testing.T) map[string]*frame.Frame {
	t.Helper()
	h := data.Housing(300, 900, 1)
	return map[string]*frame.Frame{
		"properties": h.Properties,
		"train":      h.Train,
		"test":       h.Test,
	}
}

func buildDemo(t *testing.T) *Pipeline {
	t.Helper()
	spec, err := SpecFromYAML(sampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// intermediateNames lists every intermediate a run produced, in order.
func intermediateNames(r *RunResult) []string {
	var out []string
	for _, s := range r.Stages {
		for _, o := range s.Outputs {
			out = append(out, o.Name)
		}
	}
	return out
}

func TestPipelineEndToEnd(t *testing.T) {
	p := buildDemo(t)
	e := env(t)
	res, err := p.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 7 {
		t.Fatalf("stages %d", len(res.Stages))
	}
	// Intermediates all present.
	names := intermediateNames(res)
	want := []string{"props", "sales", "joined", "filled", "train_split", "test_split", "model", "pred_test"}
	if len(names) != len(want) {
		t.Fatalf("intermediates %v", names)
	}
	joined := res.Intermediate("joined")
	if joined == nil || joined.NumRows() != 900 {
		t.Fatalf("joined rows %v", joined)
	}
	// fillna removed all NaNs from float columns.
	filled := res.Intermediate("filled")
	for i := 0; i < filled.NumCols(); i++ {
		c := filled.ColAt(i)
		if c.Type != frame.Float {
			continue
		}
		for _, v := range c.F {
			if math.IsNaN(v) {
				t.Fatalf("NaN survived fillna in %s", c.Name)
			}
		}
	}
	// Split fractions.
	tr := res.Intermediate("train_split")
	te := res.Intermediate("test_split")
	if tr.NumRows() != 675 || te.NumRows() != 225 {
		t.Fatalf("split %d/%d", tr.NumRows(), te.NumRows())
	}
	// Model output has predictions; test predictions exist for every row.
	modelOut := res.Intermediate("model")
	if !modelOut.Has("pred") || !modelOut.Has("logerror") {
		t.Fatalf("model output cols %v", modelOut.Names())
	}
	pt := res.Intermediate("pred_test")
	if pt.NumRows() != 225 || !pt.Has("pred") {
		t.Fatalf("pred_test %v", pt.Names())
	}
}

func TestPipelineRerunIsDeterministicWithoutRefit(t *testing.T) {
	p := buildDemo(t)
	e := env(t)
	first, err := p.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Run(e) // transform-only re-run
	if err != nil {
		t.Fatal(err)
	}
	a := first.Intermediate("pred_test").Col("pred").F
	b := second.Intermediate("pred_test").Col("pred").F
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("re-run diverged at %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestPipelineRunToPartial(t *testing.T) {
	p := buildDemo(t)
	e := env(t)
	if _, err := p.Run(e); err != nil {
		t.Fatal(err)
	}
	res, err := p.RunTo(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 3 || res.Intermediate("joined") == nil {
		t.Fatalf("partial run: %v", intermediateNames(res))
	}
	if _, err := p.RunTo(e, 99); err == nil {
		t.Fatal("out of range RunTo accepted")
	}
}

// statefulSpec chains every op that fits state on the logging run.
const statefulSpec = `
name: stateful
stages:
  - name: props
    op: read_table
    params: {table: properties}
  - name: sales
    op: read_table
    params: {table: train}
  - name: joined
    op: join
    inputs: [sales, props]
    params: {on: parcelid}
  - name: hood
    op: neighborhood
    inputs: [joined]
  - name: avg
    op: group_avg
    inputs: [hood]
    params: {group: regionidzip, col: taxvaluedollarcnt}
  - name: hot
    op: onehot
    inputs: [avg]
    params: {cols: [propertytype]}
  - name: filled
    op: fillna
    inputs: [hot]
  - name: scaled
    op: scale
    inputs: [filled]
  - name: selected
    op: select_k_best
    inputs: [scaled]
    params: {target: logerror, k: 6}
  - name: splits
    op: split
    inputs: [selected]
    outputs: [train_split, test_split]
  - name: model
    op: train_lgbm
    inputs: [train_split]
    params: {target: logerror, rounds: 3}
  - name: pred_test
    op: predict
    inputs: [test_split]
    params: {model: model}
`

// TestTransformOnlyRunWritesNothing: once a pipeline is fitted, its runs
// write no op state, so concurrent re-runs need no lock. Each pipeline is
// compared against a twin fitted on the same tables; a run on tables the
// split was not fitted on fails instead of refitting.
func TestTransformOnlyRunWritesNothing(t *testing.T) {
	e := env(t)
	h := data.Housing(300, 600, 2)
	other := map[string]*frame.Frame{"properties": h.Properties, "train": h.Train}
	for _, src := range []string{sampleSpec, statefulSpec} {
		spec, err := SpecFromYAML(src)
		if err != nil {
			t.Fatal(err)
		}
		var ps [2]*Pipeline
		for i := range ps {
			if ps[i], err = New(spec); err != nil {
				t.Fatal(err)
			}
			if _, err := ps[i].Run(e); err != nil {
				t.Fatal(err)
			}
		}
		p, twin := ps[0], ps[1]
		if !reflect.DeepEqual(p, twin) {
			t.Fatalf("%s: twins differ after fitting", spec.Name)
		}
		for upTo := range p.stages {
			if _, err := p.RunTo(e, upTo); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p, twin) {
				t.Fatalf("%s: transform-only RunTo(%d) changed the pipeline", spec.Name, upTo)
			}
		}
		if _, err := p.Run(other); err == nil || !strings.Contains(err.Error(), "split fitted on") {
			t.Fatalf("%s: run on 600 sales rows after fitting on 900: %v", spec.Name, err)
		}
		if !reflect.DeepEqual(p, twin) {
			t.Fatalf("%s: a failed run changed the pipeline", spec.Name)
		}
	}
}

func TestPipelineValidation(t *testing.T) {
	cases := map[string]Spec{
		"no-name":    {Stages: []StageSpec{{Name: "a", Op: "read_table", Params: map[string]any{"table": "t"}}}},
		"no-stages":  {Name: "x"},
		"unknown-op": {Name: "x", Stages: []StageSpec{{Name: "a", Op: "wat"}}},
		"dup-stage": {Name: "x", Stages: []StageSpec{
			{Name: "a", Op: "read_table", Params: map[string]any{"table": "t"}},
			{Name: "a", Op: "read_table", Params: map[string]any{"table": "t"}},
		}},
		"undefined-input": {Name: "x", Stages: []StageSpec{
			{Name: "a", Op: "join", Inputs: []string{"ghost", "ghost2"}, Params: map[string]any{"on": "k"}},
		}},
		"bad-params": {Name: "x", Stages: []StageSpec{{Name: "a", Op: "join"}}},
	}
	for name, spec := range cases {
		if _, err := New(spec); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestPipelineMissingTable(t *testing.T) {
	p := buildDemo(t)
	if _, err := p.Run(map[string]*frame.Frame{}); err == nil {
		t.Fatal("run with empty env accepted")
	}
}

func TestPredictBeforeTrainFails(t *testing.T) {
	spec := Spec{Name: "x", Stages: []StageSpec{
		{Name: "src", Op: "read_table", Params: map[string]any{"table": "train"}},
		{Name: "pred", Op: "predict", Inputs: []string{"src"}, Params: map[string]any{"model": "src"}},
	}}
	p, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	e := env(t)
	if _, err := p.Run(e); err == nil {
		t.Fatal("predict against non-model stage accepted")
	}
}

func TestFeatureEngineeringOps(t *testing.T) {
	spec, err := SpecFromYAML(`
name: fe
stages:
  - name: props
    op: read_table
    params: {table: properties}
  - name: rec
    op: construction_recency
    inputs: [props]
  - name: hood
    op: neighborhood
    inputs: [rec]
    params: {bins: 4}
  - name: res
    op: is_residential
    inputs: [hood]
  - name: avg
    op: group_avg
    inputs: [res]
    params: {group: regionidzip, col: taxvaluedollarcnt, name: region_tax}
  - name: hot
    op: onehot
    inputs: [avg]
    params: {cols: [propertytype]}
  - name: scaled
    op: scale
    inputs: [hot]
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	e := env(t)
	res, err := p.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Intermediate("scaled")
	for _, col := range []string{"construction_recency", "neighborhood", "is_residential", "region_tax", "propertytype=house"} {
		if !out.Has(col) {
			t.Fatalf("missing engineered column %s (have %v)", col, out.Names())
		}
	}
	if out.Has("propertytype") {
		t.Fatal("onehot kept original column")
	}
	// recency = 2017 - yearbuilt before scaling; after scaling it's
	// standardized, so check the pre-scale intermediate.
	rec := res.Intermediate("rec")
	year, _ := rec.Col("yearbuilt").AsFloats()
	recv := rec.Col("construction_recency").F
	for i := range year {
		if recv[i] != 2017-year[i] {
			t.Fatalf("recency[%d] = %v, want %v", i, recv[i], 2017-year[i])
		}
	}
}

func TestOpsRegistryList(t *testing.T) {
	if len(opRegistry) < 15 {
		t.Fatalf("registry has only %d ops", len(opRegistry))
	}
	if _, ok := opRegistry["train_lgbm"]; !ok {
		t.Fatal("train_lgbm missing from registry")
	}
}

func TestElasticPipelineVariant(t *testing.T) {
	spec, err := SpecFromYAML(`
name: elastic
stages:
  - name: props
    op: read_table
    params: {table: properties}
  - name: sales
    op: read_table
    params: {table: train}
  - name: joined
    op: join
    inputs: [sales, props]
    params: {on: parcelid}
  - name: hot
    op: onehot
    inputs: [joined]
    params: {cols: [propertytype, regionidzip]}
  - name: filled
    op: fillna
    inputs: [hot]
  - name: model
    op: train_elastic
    inputs: [filled]
    params: {target: logerror, alpha: 0.01, l1_ratio: 0.5, normalize: 1}
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	e := env(t)
	res, err := p.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	preds := res.Intermediate("model").Col("pred").F
	for _, v := range preds {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("elastic predictions contain NaN/Inf")
		}
	}
}
