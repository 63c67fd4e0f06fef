package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"mistique/internal/durable"
	"mistique/internal/tensor"
)

// Network is an ordered stack of layers with a fixed input shape.
type Network struct {
	Name          string
	InC, InH, InW int
	Layers        []Layer
}

// NumLayers returns the layer count.
func (n *Network) NumLayers() int { return len(n.Layers) }

// LayerNames returns layer names in order.
func (n *Network) LayerNames() []string {
	out := make([]string, len(n.Layers))
	for i, l := range n.Layers {
		out[i] = l.Name()
	}
	return out
}

// Forward runs the input through layers [0, upTo] and returns the final
// activation. upTo = NumLayers()-1 gives the network output.
func (n *Network) Forward(x *tensor.T4, upTo int) *tensor.T4 {
	if upTo < 0 || upTo >= len(n.Layers) {
		panic(fmt.Sprintf("nn: Forward upTo %d out of range", upTo))
	}
	cur := x
	for i := 0; i <= upTo; i++ {
		cur = n.Layers[i].Forward(cur)
	}
	return cur
}

// ForwardAll runs the input through the whole network and returns every
// layer's activation — the model intermediates MISTIQUE logs.
func (n *Network) ForwardAll(x *tensor.T4) []*tensor.T4 {
	out := make([]*tensor.T4, len(n.Layers))
	cur := x
	for i, l := range n.Layers {
		cur = l.Forward(cur)
		out[i] = cur
	}
	return out
}

// ForwardBatched runs Forward over the examples of x in batches (the
// paper's DNN queries run with a prediction batch size) and concatenates
// the layer-upTo activations.
func (n *Network) ForwardBatched(x *tensor.T4, upTo, batch int) *tensor.T4 {
	if batch <= 0 || batch >= x.N {
		return n.Forward(x, upTo)
	}
	var out *tensor.T4
	for start := 0; start < x.N; start += batch {
		end := min(start+batch, x.N)
		part := n.Forward(x.SliceN(start, end), upTo)
		if out == nil {
			out = tensor.NewT4(x.N, part.C, part.H, part.W)
		}
		copy(out.Data[start*part.C*part.H*part.W:], part.Data)
	}
	return out
}

// Params returns all trainable (unfrozen) parameters. Parameters shared by
// multiple layers (e.g. the weights of unrolled RNN steps) appear exactly
// once, so SGD applies each gradient a single time.
func (n *Network) Params() []*Param {
	var out []*Param
	seen := make(map[*Param]bool)
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// FreezeConv freezes every convolutional layer (the paper's VGG16
// fine-tuning: the 13 pre-trained conv layers are frozen, only the new FC
// head trains).
func (n *Network) FreezeConv() {
	for _, l := range n.Layers {
		if c, ok := l.(*Conv2D); ok {
			c.Frozen = true
		}
	}
}

// TrainStep runs one SGD step of softmax cross-entropy on a batch and
// returns the batch loss.
func (n *Network) TrainStep(x *tensor.T4, labels []int, lr float32) float64 {
	if x.N != len(labels) {
		panic("nn: TrainStep batch size mismatch")
	}
	acts := n.ForwardAll(x)
	logits := acts[len(acts)-1]
	if logits.H != 1 || logits.W != 1 {
		panic("nn: TrainStep needs a (classes,1,1) output head")
	}
	grad := tensor.NewT4(logits.N, logits.C, 1, 1)
	var loss float64
	for i := 0; i < logits.N; i++ {
		row := logits.Example(i)
		g := grad.Example(i)
		p := softmax(row)
		loss += -math.Log(math.Max(float64(p[labels[i]]), 1e-12))
		for c := range p {
			g[c] = p[c]
			if c == labels[i] {
				g[c] -= 1
			}
			g[c] /= float32(logits.N)
		}
	}
	n.backward(x, acts, grad)
	for _, p := range n.Params() {
		for i := range p.W {
			p.W[i] -= lr * p.G[i]
			p.G[i] = 0
		}
	}
	return loss / float64(x.N)
}

// backward propagates grad, dL/d(output), from the last layer to the
// first, given the input x and the per-layer activations ForwardAll
// returned for it, and returns dL/d(input).
func (n *Network) backward(x *tensor.T4, acts []*tensor.T4, grad *tensor.T4) *tensor.T4 {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		in := x
		if i > 0 {
			in = acts[i-1]
		}
		grad = n.Layers[i].Backward(in, acts[i], grad)
	}
	return grad
}

func softmax(row []float32) []float32 {
	mx := row[0]
	for _, v := range row {
		if v > mx {
			mx = v
		}
	}
	out := make([]float32, len(row))
	var sum float64
	for i, v := range row {
		e := math.Exp(float64(v - mx))
		out[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// Predict returns the argmax class per example.
func (n *Network) Predict(x *tensor.T4) []int {
	logits := n.Forward(x, len(n.Layers)-1)
	out := make([]int, x.N)
	for i := 0; i < x.N; i++ {
		row := logits.Example(i)
		best := 0
		for c, v := range row {
			if v > row[best] {
				best = c
			}
		}
		out[i] = best
	}
	return out
}

// Accuracy computes classification accuracy against labels.
func (n *Network) Accuracy(x *tensor.T4, labels []int) float64 {
	pred := n.Predict(x)
	hit := 0
	for i, p := range pred {
		if p == labels[i] {
			hit++
		}
	}
	if len(labels) == 0 {
		return 0
	}
	return float64(hit) / float64(len(labels))
}

// ---- model builders ----

// SimpleCNN builds the paper's CIFAR10_CNN shape: 4 conv layers in two
// blocks with pooling, then two dense layers.
func SimpleCNN(name string, classes int, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	n := &Network{Name: name, InC: 3, InH: 32, InW: 32}
	add := func(l Layer) { n.Layers = append(n.Layers, l) }
	add(NewConv2D("conv1_1", 3, 8, 3, rng))
	add(NewReLU("relu1_1"))
	add(NewConv2D("conv1_2", 8, 8, 3, rng))
	add(NewReLU("relu1_2"))
	add(NewMaxPool("pool1"))
	add(NewConv2D("conv2_1", 8, 16, 3, rng))
	add(NewReLU("relu2_1"))
	add(NewConv2D("conv2_2", 16, 16, 3, rng))
	add(NewReLU("relu2_2"))
	add(NewMaxPool("pool2"))
	add(NewFlatten("flatten"))
	add(NewDense("fc1", 16*8*8, 64, rng))
	add(NewReLU("relu_fc1"))
	add(NewDense("logits", 64, classes, rng))
	return n
}

// VGG16 builds a width-scaled VGG16: the canonical 13-conv/5-pool stack
// followed by the paper's fine-tuning head (two small dense layers). width
// scales the channel counts (width=8 gives 8..64 channels; the real VGG16
// is width=64). Layer indices: conv block outputs sit at the same relative
// depths as the paper's Layer1 (first conv), Layer11 (mid conv stack) and
// Layer21 (last FC) reference points.
func VGG16(name string, classes, width int, seed int64) *Network {
	if width <= 0 {
		width = 8
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Network{Name: name, InC: 3, InH: 32, InW: 32}
	add := func(l Layer) { n.Layers = append(n.Layers, l) }
	cfg := []int{1, 1, -1, 2, 2, -1, 4, 4, 4, -1, 8, 8, 8, -1, 8, 8, 8, -1}
	inC := 3
	convIdx := 0
	blockIdx := 1
	poolIdx := 1
	sub := 1
	for _, c := range cfg {
		if c < 0 {
			add(NewMaxPool(fmt.Sprintf("pool%d", poolIdx)))
			poolIdx++
			blockIdx++
			sub = 1
			continue
		}
		outC := c * width
		convIdx++
		add(NewConv2D(fmt.Sprintf("conv%d_%d", blockIdx, sub), inC, outC, 3, rng))
		add(NewReLU(fmt.Sprintf("relu%d_%d", blockIdx, sub)))
		sub++
		inC = outC
	}
	add(NewFlatten("flatten"))
	add(NewDense("fc1", inC*1*1, 64, rng))
	add(NewReLU("relu_fc1"))
	add(NewDense("logits", 64, classes, rng))
	return n
}

// ---- checkpoints ----

const ckptMagic = "MQNN"

// SaveWeights serializes all layer parameters (frozen included) to bytes.
func (n *Network) SaveWeights() []byte {
	out := []byte(ckptMagic)
	params := n.allParams()
	out = binary.LittleEndian.AppendUint32(out, uint32(len(params)))
	for _, p := range params {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p.W)))
		for _, w := range p.W {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(w))
		}
	}
	return out
}

// LoadWeights restores parameters saved by SaveWeights into this network.
// A blob that is not a checkpoint, is cut short, or was saved from a
// different architecture is durable.ErrCorrupt.
func (n *Network) LoadWeights(blob []byte) error {
	_, r, err := durable.OpenUnsealed(blob, ckptMagic, 0, 0)
	if err != nil {
		return fmt.Errorf("nn: %w", err)
	}
	params := n.allParams()
	if cnt := int(r.U32()); cnt != len(params) {
		r.Failf("checkpoint has %d params, network has %d", cnt, len(params))
	}
	for _, p := range params {
		if k := int(r.U32()); k != len(p.W) {
			r.Failf("checkpoint param size %d, want %d", k, len(p.W))
		}
		copy(p.W, r.Floats(len(p.W)))
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("nn: %w", err)
	}
	return nil
}

// Clone returns a network with the same layers whose parameters are
// copies: training either one leaves the other's weights alone. Parameters
// that layers share (an RNN's steps) stay shared within the clone.
func (n *Network) Clone() *Network {
	params := make(map[*Param]*Param)
	dup := func(p *Param) *Param {
		if c, ok := params[p]; ok {
			return c
		}
		c := &Param{W: append([]float32(nil), p.W...), G: append([]float32(nil), p.G...)}
		params[p] = c
		return c
	}
	out := &Network{Name: n.Name, InC: n.InC, InH: n.InH, InW: n.InW, Layers: make([]Layer, len(n.Layers))}
	for i, l := range n.Layers {
		switch t := l.(type) {
		case *Conv2D:
			c := *t
			c.Weight, c.Bias = dup(t.Weight), dup(t.Bias)
			out.Layers[i] = &c
		case *Dense:
			d := *t
			d.Weight, d.Bias = dup(t.Weight), dup(t.Bias)
			out.Layers[i] = &d
		case *RNNStep:
			r := *t
			r.Wx, r.Wh, r.B = dup(t.Wx), dup(t.Wh), dup(t.B)
			out.Layers[i] = &r
		default:
			out.Layers[i] = l // no parameters and no state: nothing to copy
		}
	}
	return out
}

// allParams returns every parameter, including frozen ones (checkpoints
// must capture the full model). Shared parameters appear once.
func (n *Network) allParams() []*Param {
	var out []*Param
	seen := make(map[*Param]bool)
	add := func(ps ...*Param) {
		for _, p := range ps {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Conv2D:
			add(t.Weight, t.Bias)
		case *Dense:
			add(t.Weight, t.Bias)
		case *RNNStep:
			add(t.Wx, t.Wh, t.B)
		}
	}
	return out
}

// TrainEpochs trains for the given number of epochs over (x, labels) with
// the given batch size, invoking onEpoch (if non-nil) after each epoch
// with the epoch index and mean loss. This produces the per-epoch
// checkpoint stream the paper's storage experiments log.
func (n *Network) TrainEpochs(x *tensor.T4, labels []int, epochs, batch int, lr float32, onEpoch func(epoch int, loss float64)) {
	if batch <= 0 {
		batch = 32
	}
	for e := 0; e < epochs; e++ {
		var total float64
		steps := 0
		for start := 0; start < x.N; start += batch {
			end := min(start+batch, x.N)
			total += n.TrainStep(x.SliceN(start, end), labels[start:end], lr)
			steps++
		}
		if onEpoch != nil {
			onEpoch(e, total/float64(max(steps, 1)))
		}
	}
}
