package pipeline

import (
	"testing"

	"mistique/internal/frame"
)

func mini() *frame.Frame {
	f := frame.New(4)
	f.AddFloats("a", []float64{1, 2, 3, 4})
	f.AddFloats("b", []float64{10, 20, 30, 40})
	f.AddStrings("s", []string{"x", "y", "x", "y"})
	return f
}

func apply1(t *testing.T, op Op, in *frame.Frame, fit bool) *frame.Frame {
	t.Helper()
	outs, err := op.Apply([]*frame.Frame{in}, fit)
	if err != nil {
		t.Fatal(err)
	}
	return outs[0]
}

func TestSelectColumnsOp(t *testing.T) {
	op, err := newSelectColumns(map[string]any{"cols": []any{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	out := apply1(t, op, mini(), true)
	if out.NumCols() != 1 || !out.Has("b") {
		t.Fatalf("select got %v", out.Names())
	}
	// Unknown column errors.
	op2, _ := newSelectColumns(map[string]any{"cols": "ghost"})
	if _, err := op2.Apply([]*frame.Frame{mini()}, true); err == nil {
		t.Fatal("select of unknown column accepted")
	}
	if _, err := newSelectColumns(map[string]any{}); err == nil {
		t.Fatal("missing cols accepted")
	}
}

func TestDropColumnsOp(t *testing.T) {
	op, err := newDropColumns(map[string]any{"cols": []any{"a", "ghost"}})
	if err != nil {
		t.Fatal(err)
	}
	out := apply1(t, op, mini(), true)
	if out.Has("a") || !out.Has("b") {
		t.Fatalf("drop got %v", out.Names())
	}
	if _, err := op.Apply(nil, true); err == nil {
		t.Fatal("wrong input count accepted")
	}
}

func TestBlendOp(t *testing.T) {
	mkPred := func(vals []float64) *frame.Frame {
		f := frame.New(len(vals))
		f.AddFloats("pred", vals)
		return f
	}
	op, err := newBlend(map[string]any{"weight_a": 1.0, "weight_b": 3.0})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := op.Apply([]*frame.Frame{mkPred([]float64{4, 8}), mkPred([]float64{0, 4})}, true)
	if err != nil {
		t.Fatal(err)
	}
	got := outs[0].Col("pred").F
	// Normalized weights 0.25/0.75: 0.25*4 = 1; 0.25*8 + 0.75*4 = 5.
	if got[0] != 1 || got[1] != 5 {
		t.Fatalf("blend %v", got)
	}
	if _, err := newBlend(map[string]any{"weight_a": 0.0, "weight_b": 0.0}); err == nil {
		t.Fatal("zero weights accepted")
	}
	if _, err := op.Apply([]*frame.Frame{mkPred([]float64{1}), mkPred([]float64{1, 2})}, true); err == nil {
		t.Fatal("length mismatch accepted")
	}
	noPred := frame.New(1)
	noPred.AddFloats("x", []float64{1})
	if _, err := op.Apply([]*frame.Frame{noPred, noPred}, true); err == nil {
		t.Fatal("missing pred column accepted")
	}
}

func TestTrainLGBMOpParams(t *testing.T) {
	op, err := newTrainLGBM(map[string]any{"target": "y", "rounds": 3, "learning_rate": 0.3, "min_data": 5})
	if err != nil {
		t.Fatal(err)
	}
	f := frame.New(60)
	xs := make([]float64, 60)
	ys := make([]float64, 60)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 2 * float64(i)
	}
	f.AddFloats("x", xs)
	f.AddFloats("y", ys)
	outs, err := op.Apply([]*frame.Frame{f}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0].Has("pred") || !outs[0].Has("y") {
		t.Fatalf("lgbm output %v", outs[0].Names())
	}
	if _, err := newTrainLGBM(map[string]any{}); err == nil {
		t.Fatal("missing target accepted")
	}
}

func TestPipelineIntrospection(t *testing.T) {
	spec, _ := SpecFromYAML(sampleSpec)
	p, _ := New(spec)
	if len(p.stages) != 7 {
		t.Fatalf("stages %d", len(p.stages))
	}
	if first, last := p.stages[0].spec.Name, p.stages[6].spec.Name; first != "props" || last != "pred_test" {
		t.Fatalf("stages run %s .. %s", first, last)
	}
}

func TestLogTransformOp(t *testing.T) {
	op, err := newLogTransform(map[string]any{"cols": []any{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	f := frame.New(3)
	f.AddFloats("a", []float64{0, 9, -9})
	out := apply1(t, op, f, true)
	got := out.Col("a").F
	if got[0] != 0 || got[1] < 2.3 || got[1] > 2.31 || got[2] != -got[1] {
		t.Fatalf("log transform %v", got)
	}
	// Source unchanged.
	if f.Col("a").F[1] != 9 {
		t.Fatal("log_transform mutated input")
	}
	if _, err := op.Apply([]*frame.Frame{mini()}, true); err != nil {
		t.Fatal(err)
	}
	bad, _ := newLogTransform(map[string]any{"cols": "s"})
	if _, err := bad.Apply([]*frame.Frame{mini()}, true); err == nil {
		t.Fatal("log of string column accepted")
	}
}

func TestClipOp(t *testing.T) {
	op, err := newClip(map[string]any{"cols": []any{"a"}, "lo": 1.5, "hi": 3.0})
	if err != nil {
		t.Fatal(err)
	}
	out := apply1(t, op, mini(), true)
	got := out.Col("a").F
	if got[0] != 1.5 || got[1] != 2 || got[3] != 3 {
		t.Fatalf("clip %v", got)
	}
	if _, err := newClip(map[string]any{"cols": "a", "lo": 5.0, "hi": 1.0}); err == nil {
		t.Fatal("inverted bounds accepted")
	}
}

func TestSelectKBestOp(t *testing.T) {
	// y correlates perfectly with "good", not with "noise".
	f := frame.New(50)
	good := make([]float64, 50)
	noise := make([]float64, 50)
	y := make([]float64, 50)
	for i := range y {
		good[i] = float64(i)
		noise[i] = float64((i * 7919) % 13)
		y[i] = 3 * float64(i)
	}
	f.AddFloats("good", good)
	f.AddFloats("noise", noise)
	f.AddFloats("y", y)

	op, err := newSelectKBest(map[string]any{"target": "y", "k": 1})
	if err != nil {
		t.Fatal(err)
	}
	out := apply1(t, op, f, true)
	if !out.Has("good") || out.Has("noise") || !out.Has("y") {
		t.Fatalf("select_k_best kept %v", out.Names())
	}
	// Re-run (fit=false) keeps the fitted selection.
	out2 := apply1(t, op, f, false)
	if !out2.Has("good") || out2.Has("noise") {
		t.Fatal("selection not sticky across re-runs")
	}
	if _, err := newSelectKBest(map[string]any{"target": "y", "k": 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := newSelectKBest(map[string]any{}); err == nil {
		t.Fatal("missing target accepted")
	}
}

func TestSelectKBestInPipelineYAML(t *testing.T) {
	spec, err := SpecFromYAML(`
name: fs
stages:
  - name: sales
    op: read_table
    params: {table: train}
  - name: props
    op: read_table
    params: {table: properties}
  - name: joined
    op: join
    inputs: [sales, props]
    params: {on: parcelid}
  - name: logged
    op: log_transform
    inputs: [joined]
    params: {cols: [taxvaluedollarcnt]}
  - name: clipped
    op: clip
    inputs: [logged]
    params: {cols: [finishedsquarefeet], lo: 0, hi: 4000}
  - name: selected
    op: select_k_best
    inputs: [clipped]
    params: {target: logerror, k: 5}
  - name: model
    op: train_xgb
    inputs: [selected]
    params: {target: logerror, rounds: 3}
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(envTables(t))
	if err != nil {
		t.Fatal(err)
	}
	sel := res.Intermediate("selected")
	if sel.NumCols() != 6 { // 5 features + target
		t.Fatalf("selected %d cols: %v", sel.NumCols(), sel.Names())
	}
	if !res.Intermediate("model").Has("pred") {
		t.Fatal("model stage failed downstream of feature selection")
	}
}

func envTables(t *testing.T) map[string]*frame.Frame {
	t.Helper()
	return env(t)
}
