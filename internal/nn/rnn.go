package nn

import (
	"fmt"
	"math"
	"math/rand"

	"mistique/internal/tensor"
)

// This file implements the paper's future-work extension to recurrent
// models: an Elman RNN expressed as a stack of shared-weight step layers,
// so every timestep's hidden state is a layer output — i.e. a model
// intermediate MISTIQUE can log, de-duplicate and query like any other.
//
// The sequence tensor layout is (N, seqLen*inputDim + hidden, 1, 1): the
// flattened input sequence followed by the carried hidden state. Each
// RNNStep consumes x_t from the sequence region and rewrites the hidden
// tail; TakeHidden extracts the final state for the classifier head.

// RNNStep is one unrolled timestep of an Elman RNN. All steps of a network
// share the same Wx/Wh/b parameters.
type RNNStep struct {
	name             string
	Step             int
	InputDim, Hidden int
	SeqLen           int
	Wx, Wh, B        *Param
	Frozen           bool
}

// NewRNNStep creates step t sharing the given parameters.
func NewRNNStep(name string, step, seqLen, inputDim, hidden int, wx, wh, b *Param) *RNNStep {
	return &RNNStep{
		name: name, Step: step, SeqLen: seqLen,
		InputDim: inputDim, Hidden: hidden,
		Wx: wx, Wh: wh, B: b,
	}
}

func (r *RNNStep) Name() string { return r.name }

func (r *RNNStep) Params() []*Param {
	if r.Frozen {
		return nil
	}
	return []*Param{r.Wx, r.Wh, r.B}
}

func (r *RNNStep) width() int { return r.SeqLen*r.InputDim + r.Hidden }

// Forward computes h_t = tanh(Wx x_t + Wh h_{t-1} + b) and rewrites the
// hidden tail; the sequence region passes through unchanged.
func (r *RNNStep) Forward(x *tensor.T4) *tensor.T4 {
	if x.C != r.width() || x.H != 1 || x.W != 1 {
		panic(fmt.Sprintf("nn: %s expects (%d,1,1) input, got (%d,%d,%d)", r.name, r.width(), x.C, x.H, x.W))
	}
	out := x.Clone()
	seqBytes := r.SeqLen * r.InputDim
	for n := 0; n < x.N; n++ {
		in := x.Example(n)
		xt := in[r.Step*r.InputDim : (r.Step+1)*r.InputDim]
		hPrev := in[seqBytes:]
		dst := out.Example(n)[seqBytes:]
		for j := 0; j < r.Hidden; j++ {
			sum := r.B.W[j]
			wxRow := r.Wx.W[j*r.InputDim : (j+1)*r.InputDim]
			for i, v := range xt {
				sum += wxRow[i] * v
			}
			whRow := r.Wh.W[j*r.Hidden : (j+1)*r.Hidden]
			for i, v := range hPrev {
				sum += whRow[i] * v
			}
			dst[j] = float32(math.Tanh(float64(sum)))
		}
	}
	return out
}

// Backward propagates through the tanh recurrence (one BPTT step; chaining
// step layers yields full backpropagation through time). The post-tanh
// activations h_t are out's hidden tail.
func (r *RNNStep) Backward(x, out, grad *tensor.T4) *tensor.T4 {
	dx := grad.Clone() // sequence region gradient passes through
	seqBytes := r.SeqLen * r.InputDim
	for n := 0; n < x.N; n++ {
		in := x.Example(n)
		xt := in[r.Step*r.InputDim : (r.Step+1)*r.InputDim]
		hPrev := in[seqBytes:]
		hOut := out.Example(n)[seqBytes:]
		gOut := grad.Example(n)[seqBytes:]
		gIn := dx.Example(n)
		gxt := gIn[r.Step*r.InputDim : (r.Step+1)*r.InputDim]
		ghPrev := gIn[seqBytes:]
		for j := range ghPrev {
			ghPrev[j] = 0 // replaced, not passed through
		}
		for j := 0; j < r.Hidden; j++ {
			h := hOut[j]
			dpre := gOut[j] * (1 - h*h)
			if dpre == 0 {
				continue
			}
			r.B.G[j] += dpre
			wxRow := r.Wx.W[j*r.InputDim : (j+1)*r.InputDim]
			gwxRow := r.Wx.G[j*r.InputDim : (j+1)*r.InputDim]
			for i, v := range xt {
				gwxRow[i] += dpre * v
				gxt[i] += dpre * wxRow[i]
			}
			whRow := r.Wh.W[j*r.Hidden : (j+1)*r.Hidden]
			gwhRow := r.Wh.G[j*r.Hidden : (j+1)*r.Hidden]
			for i, v := range hPrev {
				gwhRow[i] += dpre * v
				ghPrev[i] += dpre * whRow[i]
			}
		}
	}
	return dx
}

// PadHidden widens the input (N, C, 1, 1) to (N, C+Hidden, 1, 1) with a
// zero-initialized hidden tail.
type PadHidden struct {
	name   string
	Hidden int
}

// NewPadHidden creates the hidden-state initializer layer.
func NewPadHidden(name string, hidden int) *PadHidden {
	return &PadHidden{name: name, Hidden: hidden}
}

func (p *PadHidden) Name() string     { return p.name }
func (p *PadHidden) Params() []*Param { return nil }
func (p *PadHidden) Forward(x *tensor.T4) *tensor.T4 {
	out := tensor.NewT4(x.N, x.C+p.Hidden, 1, 1)
	for n := 0; n < x.N; n++ {
		copy(out.Example(n), x.Example(n))
	}
	return out
}

func (p *PadHidden) Backward(in, _, grad *tensor.T4) *tensor.T4 {
	dx := tensor.NewT4(grad.N, in.C, 1, 1)
	for n := 0; n < grad.N; n++ {
		copy(dx.Example(n), grad.Example(n)[:in.C])
	}
	return dx
}

// TakeHidden extracts the trailing Hidden entries (the final state).
type TakeHidden struct {
	name   string
	Hidden int
}

// NewTakeHidden creates the final-state extraction layer.
func NewTakeHidden(name string, hidden int) *TakeHidden {
	return &TakeHidden{name: name, Hidden: hidden}
}

func (t *TakeHidden) Name() string     { return t.name }
func (t *TakeHidden) Params() []*Param { return nil }
func (t *TakeHidden) Forward(x *tensor.T4) *tensor.T4 {
	out := tensor.NewT4(x.N, t.Hidden, 1, 1)
	for n := 0; n < x.N; n++ {
		copy(out.Example(n), x.Example(n)[x.C-t.Hidden:])
	}
	return out
}

func (t *TakeHidden) Backward(in, _, grad *tensor.T4) *tensor.T4 {
	dx := tensor.NewT4(grad.N, in.C, 1, 1)
	for n := 0; n < grad.N; n++ {
		copy(dx.Example(n)[in.C-t.Hidden:], grad.Example(n))
	}
	return dx
}

// ElmanRNN builds a sequence classifier: PadHidden, seqLen shared-weight
// RNN steps (each step's output — containing h_t — is a loggable
// intermediate), TakeHidden and a Dense head. The input tensor shape is
// (N, seqLen*inputDim, 1, 1).
func ElmanRNN(name string, seqLen, inputDim, hidden, classes int, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	wx := newParam(hidden * inputDim)
	wh := newParam(hidden * hidden)
	b := newParam(hidden)
	stdX := float32(math.Sqrt(1.0 / float64(inputDim)))
	stdH := float32(math.Sqrt(1.0 / float64(hidden)))
	for i := range wx.W {
		wx.W[i] = float32(rng.NormFloat64()) * stdX
	}
	for i := range wh.W {
		wh.W[i] = float32(rng.NormFloat64()) * stdH
	}

	n := &Network{Name: name, InC: seqLen * inputDim, InH: 1, InW: 1}
	n.Layers = append(n.Layers, NewPadHidden("init_h", hidden))
	for t := 0; t < seqLen; t++ {
		n.Layers = append(n.Layers, NewRNNStep(fmt.Sprintf("step%d", t), t, seqLen, inputDim, hidden, wx, wh, b))
	}
	n.Layers = append(n.Layers, NewTakeHidden("final_h", hidden))
	n.Layers = append(n.Layers, NewDense("logits", hidden, classes, rng))
	return n
}
