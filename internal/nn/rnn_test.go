package nn

import (
	"math"
	"testing"

	"mistique/internal/data"
	"mistique/internal/tensor"
)

func TestRNNShapes(t *testing.T) {
	n := ElmanRNN("rnn", 6, 3, 8, 4, 1)
	// PadHidden + 6 steps + TakeHidden + Dense = 9 layers.
	if n.NumLayers() != 9 {
		t.Fatalf("layers %d", n.NumLayers())
	}
	c, h, w := outShape(n, n.NumLayers()-1)
	if c != 4 || h != 1 || w != 1 {
		t.Fatalf("output shape %d,%d,%d", c, h, w)
	}
	// Step outputs carry the sequence plus hidden state.
	c, _, _ = outShape(n, 1)
	if c != 6*3+8 {
		t.Fatalf("step output width %d", c)
	}
}

func TestRNNSharedParamsAppearOnce(t *testing.T) {
	n := ElmanRNN("rnn", 5, 2, 4, 3, 2)
	params := n.Params()
	// wx, wh, b shared across steps + dense weight/bias = 5 distinct.
	if len(params) != 5 {
		t.Fatalf("distinct params %d, want 5", len(params))
	}
	if got := len(n.allParams()); got != 5 {
		t.Fatalf("allParams %d, want 5", got)
	}
}

func TestRNNGradientCheck(t *testing.T) {
	n := ElmanRNN("rnn", 4, 2, 3, 2, 3)
	x, _ := data.Sequences(3, 4, 2, 2, 4)

	loss := func() float64 {
		y := n.Forward(x, n.NumLayers()-1)
		var s float64
		for _, v := range y.Data {
			s += float64(v) * float64(v)
		}
		return s / 2
	}
	acts := n.ForwardAll(x)
	grad := n.backward(x, acts, acts[len(acts)-1].Clone())
	// Input gradient check.
	const eps = 1e-3
	for _, i := range []int{0, 5, 17} {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data[i])) > 2e-2*(1+math.Abs(num)) {
			t.Fatalf("input grad %d: numeric %g analytic %g", i, num, grad.Data[i])
		}
	}
	// Shared weight gradient check (BPTT accumulates across steps).
	var step *RNNStep
	for _, l := range n.Layers {
		if s, ok := l.(*RNNStep); ok {
			step = s
			break
		}
	}
	for _, i := range []int{0, 3} {
		// Reset accumulated grads, recompute analytically.
		for _, p := range n.allParams() {
			for j := range p.G {
				p.G[j] = 0
			}
		}
		acts := n.ForwardAll(x)
		n.backward(x, acts, acts[len(acts)-1].Clone())
		want := float64(step.Wh.G[i])
		orig := step.Wh.W[i]
		step.Wh.W[i] = orig + eps
		lp := loss()
		step.Wh.W[i] = orig - eps
		lm := loss()
		step.Wh.W[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-want) > 2e-2*(1+math.Abs(num)) {
			t.Fatalf("Wh grad %d: numeric %g analytic %g", i, num, want)
		}
	}
}

func TestRNNTrainingLearns(t *testing.T) {
	x, labels := data.Sequences(80, 8, 2, 2, 5)
	n := ElmanRNN("rnn", 8, 2, 12, 2, 6)
	var first, last float64
	n.TrainEpochs(x, labels, 30, 16, 0.05, func(e int, loss float64) {
		if e == 0 {
			first = loss
		}
		last = loss
	})
	if last >= first {
		t.Fatalf("RNN loss did not decrease: %g -> %g", first, last)
	}
	if acc := n.Accuracy(x, labels); acc < 0.8 {
		t.Fatalf("RNN training accuracy %g", acc)
	}
}

func TestRNNCheckpointRoundTrip(t *testing.T) {
	n := ElmanRNN("rnn", 5, 2, 6, 3, 7)
	x, _ := data.Sequences(4, 5, 2, 3, 8)
	want := n.Forward(x, n.NumLayers()-1).Clone()
	blob := n.SaveWeights()
	m := ElmanRNN("rnn", 5, 2, 6, 3, 99)
	if err := m.LoadWeights(blob); err != nil {
		t.Fatal(err)
	}
	got := m.Forward(x, m.NumLayers()-1)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("restored RNN differs at %d", i)
		}
	}
}

func TestPadAndTakeHidden(t *testing.T) {
	p := NewPadHidden("p", 3)
	x := tensor.NewT4(2, 4, 1, 1)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	y := p.Forward(x)
	if y.C != 7 || y.At(0, 3, 0, 0) != 3 || y.At(0, 4, 0, 0) != 0 {
		t.Fatalf("pad forward wrong: %v", y.Data)
	}
	g := y.Clone()
	back := p.Backward(x, y, g)
	if back.C != 4 || back.At(1, 2, 0, 0) != y.At(1, 2, 0, 0) {
		t.Fatal("pad backward wrong")
	}

	tk := NewTakeHidden("t", 3)
	z := tk.Forward(y)
	if z.C != 3 || z.At(0, 0, 0, 0) != y.At(0, 4, 0, 0) {
		t.Fatal("take forward wrong")
	}
	gz := z.Clone()
	for i := range gz.Data {
		gz.Data[i] = 1
	}
	bz := tk.Backward(y, z, gz)
	if bz.C != 7 || bz.At(0, 4, 0, 0) != 1 || bz.At(0, 0, 0, 0) != 0 {
		t.Fatal("take backward wrong")
	}
}
