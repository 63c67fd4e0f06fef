package pipeline

import (
	"fmt"
	"time"

	"mistique/internal/frame"
)

// StageSpec declares one pipeline stage.
type StageSpec struct {
	// Name uniquely identifies the stage within the pipeline.
	Name string
	// Op is the registered transformer type.
	Op string
	// Inputs are names of outputs of earlier stages.
	Inputs []string
	// Outputs names the frames this stage produces; defaults to [Name].
	Outputs []string
	// Params configure the op.
	Params map[string]any
}

// Spec declares a whole pipeline.
type Spec struct {
	Name   string
	Stages []StageSpec
}

type stage struct {
	spec StageSpec
	op   Op
}

// Pipeline is an instantiated, runnable pipeline. Fitted transformer state
// lives inside the stage ops, so a pipeline logged once can be re-run
// (transform-only) at query time. Only fitting writes that state: once a
// full run has fitted the pipeline, runs write nothing and may execute
// concurrently.
type Pipeline struct {
	Name   string
	stages []*stage
	fitted bool
}

// New instantiates a pipeline from its spec, validating op names and
// dataflow (every input must be produced by an earlier stage).
func New(spec Spec) (*Pipeline, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("pipeline: spec needs a name")
	}
	p := &Pipeline{Name: spec.Name}
	produced := map[string]bool{}
	seen := map[string]bool{}
	for i, ss := range spec.Stages {
		if ss.Name == "" {
			return nil, fmt.Errorf("pipeline %s: stage %d has no name", spec.Name, i)
		}
		if seen[ss.Name] {
			return nil, fmt.Errorf("pipeline %s: duplicate stage %q", spec.Name, ss.Name)
		}
		seen[ss.Name] = true
		factory, ok := opRegistry[ss.Op]
		if !ok {
			return nil, fmt.Errorf("pipeline %s: stage %q: unknown op %q", spec.Name, ss.Name, ss.Op)
		}
		for _, in := range ss.Inputs {
			if !produced[in] {
				return nil, fmt.Errorf("pipeline %s: stage %q input %q not produced by an earlier stage", spec.Name, ss.Name, in)
			}
		}
		if len(ss.Outputs) == 0 {
			ss.Outputs = []string{ss.Name}
		}
		op, err := factory(ss.Params)
		if err != nil {
			return nil, fmt.Errorf("pipeline %s: stage %q: %w", spec.Name, ss.Name, err)
		}
		if po, ok := op.(*predictOp); ok {
			po.p = p
		}
		for _, out := range ss.Outputs {
			produced[out] = true
		}
		p.stages = append(p.stages, &stage{spec: ss, op: op})
	}
	if len(p.stages) == 0 {
		return nil, fmt.Errorf("pipeline %s: no stages", spec.Name)
	}
	return p, nil
}

func (p *Pipeline) resolvePredictor(stageName string) (predictor, error) {
	for _, s := range p.stages {
		if s.spec.Name == stageName {
			if pr, ok := s.op.(predictor); ok {
				return pr, nil
			}
			return nil, fmt.Errorf("pipeline %s: stage %q is not a model stage", p.Name, stageName)
		}
	}
	return nil, fmt.Errorf("pipeline %s: no stage %q", p.Name, stageName)
}

// StageResult records one executed stage.
type StageResult struct {
	Name    string
	Op      string
	Seconds float64
	// Outputs pairs each declared output name with the produced frame.
	Outputs []NamedFrame
}

// NamedFrame is an intermediate: a named dataframe.
type NamedFrame struct {
	Name  string
	Frame *frame.Frame
}

// RunResult is a full pipeline execution trace.
type RunResult struct {
	Pipeline string
	Stages   []StageResult
}

// Intermediate returns the named intermediate from the trace, or nil.
func (r *RunResult) Intermediate(name string) *frame.Frame {
	for _, s := range r.Stages {
		for _, o := range s.Outputs {
			if o.Name == name {
				return o.Frame
			}
		}
	}
	return nil
}

// Run executes the full pipeline over env, which maps each read_table
// stage's table name to its frame. The first Run fits transformer state;
// subsequent runs are transform-only re-executions of the stored
// transformers (RERUN in the cost model).
func (p *Pipeline) Run(env map[string]*frame.Frame) (*RunResult, error) {
	return p.RunTo(env, len(p.stages)-1)
}

// RunTo executes stages [0, upTo] over env and returns their trace.
func (p *Pipeline) RunTo(env map[string]*frame.Frame, upTo int) (*RunResult, error) {
	if upTo < 0 || upTo >= len(p.stages) {
		return nil, fmt.Errorf("pipeline %s: RunTo(%d) out of range", p.Name, upTo)
	}
	fit := !p.fitted
	res := &RunResult{Pipeline: p.Name}
	frames := map[string]*frame.Frame{}
	for i := 0; i <= upTo; i++ {
		s := p.stages[i]
		inputs := make([]*frame.Frame, len(s.spec.Inputs))
		for j, in := range s.spec.Inputs {
			f, ok := frames[in]
			if !ok {
				return nil, fmt.Errorf("pipeline %s: stage %q: input %q not available", p.Name, s.spec.Name, in)
			}
			inputs[j] = f
		}
		if rt, ok := s.op.(*readTable); ok {
			f, ok := env[rt.table]
			if !ok {
				return nil, fmt.Errorf("pipeline %s: stage %q: no table %q in environment", p.Name, s.spec.Name, rt.table)
			}
			inputs = []*frame.Frame{f}
		}
		start := time.Now()
		outs, err := s.op.Apply(inputs, fit)
		if err != nil {
			return nil, fmt.Errorf("pipeline %s: stage %q: %w", p.Name, s.spec.Name, err)
		}
		elapsed := time.Since(start).Seconds()
		if len(outs) != len(s.spec.Outputs) {
			return nil, fmt.Errorf("pipeline %s: stage %q produced %d outputs, declared %d",
				p.Name, s.spec.Name, len(outs), len(s.spec.Outputs))
		}
		sr := StageResult{Name: s.spec.Name, Op: s.spec.Op, Seconds: elapsed}
		for j, f := range outs {
			name := s.spec.Outputs[j]
			frames[name] = f
			sr.Outputs = append(sr.Outputs, NamedFrame{Name: name, Frame: f})
		}
		res.Stages = append(res.Stages, sr)
	}
	if fit && upTo == len(p.stages)-1 {
		p.fitted = true
	}
	return res, nil
}
