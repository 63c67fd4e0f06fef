package pipeline

import (
	"fmt"
	"math"

	"mistique/internal/frame"
	"mistique/internal/ml"
	"mistique/internal/tensor"
)

// featureMatrix extracts the numeric feature matrix for model fitting,
// excluding the target and identifier columns.
func featureMatrix(f *frame.Frame, target string) (*tensor.Dense, []string) {
	drop := map[string]bool{target: true, "parcelid": true}
	numeric := f.Clone()
	var keep []string
	for _, n := range numeric.Names() {
		if !drop[n] {
			keep = append(keep, n)
		}
	}
	x, names := numeric.Select(keep...).FloatMatrix()
	// NaNs poison tree splits and coordinate descent; models expect a
	// fillna stage upstream, but guard anyway by zeroing stragglers.
	for i, v := range x.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			x.Data[i] = 0
		}
	}
	return x, names
}

// model is the common fitted-regressor interface of the train ops.
type model interface {
	Predict(x *tensor.Dense) []float64
}

// trainOp fits a regressor on its input frame and emits the training-set
// predictions as its intermediate. Downstream predict stages reference the
// fitted model through the executor.
type trainOp struct {
	target string
	flavor string
	// params is the regressor's ml.GBMParams or ml.ElasticNetParams.
	params   any
	m        model
	features []string
}

func (o *trainOp) train(x *tensor.Dense, y []float64) model {
	if p, ok := o.params.(ml.ElasticNetParams); ok {
		return ml.TrainElasticNet(x, y, p)
	}
	return ml.TrainGBM(x, y, o.params.(ml.GBMParams))
}

func (o *trainOp) Apply(inputs []*frame.Frame, fit bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "train_"+o.flavor); err != nil {
		return nil, err
	}
	in := inputs[0]
	tc := in.Col(o.target)
	if tc == nil {
		return nil, fmt.Errorf("pipeline: train_%s: no target column %q", o.flavor, o.target)
	}
	y, ok := tc.AsFloats()
	if !ok {
		return nil, fmt.Errorf("pipeline: train_%s: target %q not numeric", o.flavor, o.target)
	}
	x, names := featureMatrix(in, o.target)
	if fit {
		o.m = o.train(x, y)
		o.features = names
	} else if o.m == nil {
		return nil, fmt.Errorf("pipeline: train_%s not fitted", o.flavor)
	}
	pred := o.m.Predict(x)
	out := frame.WithRowIDs(in.RowIDs())
	out.AddFloats("pred", pred)
	out.AddFloats(o.target, y)
	return one(out), nil
}

// predictFrame applies the fitted model to an arbitrary frame, aligning
// feature columns by name (missing features are zero-filled).
func (o *trainOp) predictFrame(f *frame.Frame) (*frame.Frame, error) {
	if o.m == nil {
		return nil, fmt.Errorf("pipeline: predict before train_%s ran", o.flavor)
	}
	x := tensor.NewDense(f.NumRows(), len(o.features))
	for j, name := range o.features {
		c := f.Col(name)
		if c == nil {
			continue // zero-filled
		}
		vals, ok := c.AsFloats()
		if !ok {
			continue
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			x.Set(i, j, float32(v))
		}
	}
	pred := o.m.Predict(x)
	out := frame.WithRowIDs(f.RowIDs())
	out.AddFloats("pred", pred)
	return out, nil
}

func newTrainXGB(params map[string]any) (Op, error) {
	target, err := pStr(params, "target")
	if err != nil {
		return nil, err
	}
	p := ml.GBMParams{
		Rounds:       pIntDefault(params, "rounds", 30),
		LearningRate: pFloatDefault(params, "eta", 0.1),
		Lambda:       pFloatDefault(params, "lambda", 1),
		Alpha:        pFloatDefault(params, "alpha", 0),
		MaxDepth:     pIntDefault(params, "max_depth", 4),
		Seed:         int64(pIntDefault(params, "seed", 1)),
	}
	return &trainOp{target: target, flavor: "xgb", params: p}, nil
}

func newTrainLGBM(params map[string]any) (Op, error) {
	target, err := pStr(params, "target")
	if err != nil {
		return nil, err
	}
	p := ml.GBMParams{
		Rounds:          pIntDefault(params, "rounds", 30),
		LearningRate:    pFloatDefault(params, "learning_rate", 0.1),
		SubFeature:      pFloatDefault(params, "sub_feature", 1),
		MinSamples:      pIntDefault(params, "min_data", 20),
		BaggingFraction: pFloatDefault(params, "bagging_fraction", 1),
		MaxDepth:        pIntDefault(params, "max_depth", 5),
		Seed:            int64(pIntDefault(params, "seed", 2)),
	}
	return &trainOp{target: target, flavor: "lgbm", params: p}, nil
}

func newTrainElastic(params map[string]any) (Op, error) {
	target, err := pStr(params, "target")
	if err != nil {
		return nil, err
	}
	p := ml.ElasticNetParams{
		Alpha:     pFloatDefault(params, "alpha", 0.001),
		L1Ratio:   pFloatDefault(params, "l1_ratio", 0.5),
		Tol:       pFloatDefault(params, "tol", 1e-4),
		Normalize: pIntDefault(params, "normalize", 0) != 0,
	}
	return &trainOp{target: target, flavor: "elastic", params: p}, nil
}

// predictOp applies a previously trained stage's model to its input frame.
type predictOp struct {
	modelStage string
	p          *Pipeline // the pipeline the op belongs to, set by New
}

func newPredict(params map[string]any) (Op, error) {
	m, err := pStr(params, "model")
	if err != nil {
		return nil, err
	}
	return &predictOp{modelStage: m}, nil
}

func (o *predictOp) Apply(inputs []*frame.Frame, _ bool) ([]*frame.Frame, error) {
	if err := needInputs(inputs, 1, "predict"); err != nil {
		return nil, err
	}
	p, err := o.p.resolvePredictor(o.modelStage)
	if err != nil {
		return nil, err
	}
	out, err := p.predictFrame(inputs[0])
	if err != nil {
		return nil, err
	}
	return one(out), nil
}
