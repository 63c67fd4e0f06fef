package nn

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mistique/internal/data"
	"mistique/internal/tensor"
)

func randT4(n, c, h, w int, seed int64) *tensor.T4 {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewT4(n, c, h, w)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	return x
}

func TestConvIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D("c", 1, 1, 3, rng)
	for i := range c.Weight.W {
		c.Weight.W[i] = 0
	}
	c.Weight.W[c.wAt(0, 0, 1, 1)] = 1 // center tap = identity
	x := randT4(2, 1, 5, 5, 2)
	y := c.Forward(x)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatalf("identity conv changed data at %d", i)
		}
	}
}

func TestConvKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D("c", 1, 1, 3, rng)
	for i := range c.Weight.W {
		c.Weight.W[i] = 1 // box filter
	}
	c.Bias.W[0] = 0.5
	x := tensor.NewT4(1, 1, 3, 3)
	for i := range x.Data {
		x.Data[i] = 1
	}
	y := c.Forward(x)
	// Center cell sees all 9 ones; corner sees 4.
	if y.At(0, 0, 1, 1) != 9.5 {
		t.Fatalf("center %v", y.At(0, 0, 1, 1))
	}
	if y.At(0, 0, 0, 0) != 4.5 {
		t.Fatalf("corner %v", y.At(0, 0, 0, 0))
	}
}

// numericalGrad checks analytic gradients against finite differences.
func TestConvGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D("c", 2, 3, 3, rng)
	x := randT4(2, 2, 4, 4, 4)

	loss := func() float64 {
		y := c.Forward(x)
		var s float64
		for _, v := range y.Data {
			s += float64(v) * float64(v)
		}
		return s / 2
	}
	// Analytic gradient: dL/dy = y.
	y := c.Forward(x)
	grad := y.Clone()
	dx := c.Backward(x, y, grad)

	const eps = 1e-3
	// Check a few input gradients.
	for _, i := range []int{0, 7, 31} {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(dx.Data[i])) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("input grad %d: numeric %g analytic %g", i, num, dx.Data[i])
		}
	}
	// Check a few weight gradients.
	for _, i := range []int{0, 10, 50} {
		want := float64(c.Weight.G[i])
		orig := c.Weight.W[i]
		c.Weight.W[i] = orig + eps
		lp := loss()
		c.Weight.W[i] = orig - eps
		lm := loss()
		c.Weight.W[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-want) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("weight grad %d: numeric %g analytic %g", i, num, want)
		}
	}
}

func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDense("d", 6, 4, rng)
	x := randT4(3, 6, 1, 1, 6)
	loss := func() float64 {
		y := d.Forward(x)
		var s float64
		for _, v := range y.Data {
			s += float64(v) * float64(v)
		}
		return s / 2
	}
	y := d.Forward(x)
	dx := d.Backward(x, y, y.Clone())
	const eps = 1e-3
	for _, i := range []int{0, 5, 17} {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(dx.Data[i])) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("dense input grad %d: numeric %g analytic %g", i, num, dx.Data[i])
		}
	}
	for _, i := range []int{0, 11, 23} {
		want := float64(d.Weight.G[i])
		orig := d.Weight.W[i]
		d.Weight.W[i] = orig + eps
		lp := loss()
		d.Weight.W[i] = orig - eps
		lm := loss()
		d.Weight.W[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-want) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("dense weight grad %d: numeric %g analytic %g", i, num, want)
		}
	}
}

func TestReLUAndPool(t *testing.T) {
	r := NewReLU("r")
	x := tensor.NewT4(1, 1, 2, 2)
	copy(x.Data, []float32{-1, 2, -3, 4})
	y := r.Forward(x)
	if y.Data[0] != 0 || y.Data[1] != 2 || y.Data[3] != 4 {
		t.Fatalf("relu %v", y.Data)
	}
	g := tensor.NewT4(1, 1, 2, 2)
	copy(g.Data, []float32{10, 10, 10, 10})
	dx := r.Backward(x, y, g)
	if dx.Data[0] != 0 || dx.Data[1] != 10 {
		t.Fatalf("relu grad %v", dx.Data)
	}

	p := NewMaxPool("p")
	x2 := tensor.NewT4(1, 1, 2, 2)
	copy(x2.Data, []float32{1, 5, 3, 2})
	y2 := p.Forward(x2)
	if y2.H != 1 || y2.W != 1 || y2.Data[0] != 5 {
		t.Fatalf("pool %v", y2.Data)
	}
	g2 := tensor.NewT4(1, 1, 1, 1)
	g2.Data[0] = 7
	dx2 := p.Backward(x2, y2, g2)
	if dx2.Data[1] != 7 || dx2.Data[0] != 0 {
		t.Fatalf("pool grad routes to argmax: %v", dx2.Data)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("f")
	x := randT4(2, 3, 4, 4, 7)
	y := f.Forward(x)
	if y.C != 48 || y.H != 1 {
		t.Fatalf("flatten shape %d,%d,%d", y.C, y.H, y.W)
	}
	back := f.Backward(x, y, y)
	for i := range x.Data {
		if back.Data[i] != x.Data[i] {
			t.Fatal("flatten backward not inverse")
		}
	}
}

// outShape runs a 1-row input through layers 0..i and returns the
// (c, h, w) shape of layer i's output.
func outShape(n *Network, i int) (c, h, w int) {
	y := n.Forward(randT4(1, n.InC, n.InH, n.InW, 1), i)
	return y.C, y.H, y.W
}

func TestNetworkShapes(t *testing.T) {
	n := SimpleCNN("cnn", 10, 1)
	c, h, w := outShape(n, n.NumLayers()-1)
	if c != 10 || h != 1 || w != 1 {
		t.Fatalf("output shape %d,%d,%d", c, h, w)
	}
	v := VGG16("vgg", 10, 4, 1)
	// 13 convs + 13 relus + 5 pools + flatten + fc1 + relu + logits = 35.
	if v.NumLayers() != 35 {
		t.Fatalf("vgg layers %d", v.NumLayers())
	}
	c, h, w = outShape(v, v.NumLayers()-1)
	if c != 10 || h != 1 || w != 1 {
		t.Fatalf("vgg output %d,%d,%d", c, h, w)
	}
	// After 5 pools the 32x32 map is 1x1.
	names := v.LayerNames()
	if names[0] != "conv1_1" || names[len(names)-1] != "logits" {
		t.Fatalf("names %v", names)
	}
}

func TestForwardAllMatchesForward(t *testing.T) {
	n := SimpleCNN("cnn", 10, 2)
	x := randT4(3, 3, 32, 32, 9)
	all := n.ForwardAll(x)
	if len(all) != n.NumLayers() {
		t.Fatalf("ForwardAll returned %d", len(all))
	}
	for _, li := range []int{0, 5, n.NumLayers() - 1} {
		direct := n.Forward(x, li)
		for i := range direct.Data {
			if direct.Data[i] != all[li].Data[i] {
				t.Fatalf("layer %d mismatch at %d", li, i)
			}
		}
	}
}

func TestForwardBatchedMatchesUnbatched(t *testing.T) {
	n := SimpleCNN("cnn", 10, 3)
	x := randT4(10, 3, 32, 32, 10)
	a := n.Forward(x, 4)
	b := n.ForwardBatched(x, 4, 3)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("batched forward differs at %d", i)
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	x, labels := data.Images(64, 2, 11)
	n := SimpleCNN("cnn", 2, 12)
	var first, last float64
	n.TrainEpochs(x, labels, 25, 16, 0.05, func(e int, loss float64) {
		if e == 0 {
			first = loss
		}
		last = loss
	})
	if last >= first {
		t.Fatalf("loss did not decrease: %g -> %g", first, last)
	}
	if acc := n.Accuracy(x, labels); acc < 0.9 {
		t.Fatalf("training accuracy %g after 25 epochs", acc)
	}
}

func TestFreezeConvKeepsWeights(t *testing.T) {
	x, labels := data.Images(32, 2, 13)
	n := VGG16("vgg", 2, 2, 14)
	n.FreezeConv()
	var convBefore []float32
	for _, l := range n.Layers {
		if c, ok := l.(*Conv2D); ok {
			convBefore = append(convBefore, c.Weight.W...)
		}
	}
	n.TrainEpochs(x, labels, 2, 16, 0.05, nil)
	var convAfter []float32
	var fcChanged bool
	for _, l := range n.Layers {
		if c, ok := l.(*Conv2D); ok {
			convAfter = append(convAfter, c.Weight.W...)
		}
	}
	fc := n.Layers[n.NumLayers()-1].(*Dense)
	for _, g := range fc.Weight.W {
		if g != 0 {
			fcChanged = true
			break
		}
	}
	for i := range convBefore {
		if convBefore[i] != convAfter[i] {
			t.Fatal("frozen conv weights changed")
		}
	}
	if !fcChanged {
		t.Fatal("fc head weights all zero (did not train)")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	n := SimpleCNN("cnn", 10, 20)
	x := randT4(2, 3, 32, 32, 21)
	before := n.Forward(x, n.NumLayers()-1).Clone()
	blob := n.SaveWeights()

	// Perturb, then restore.
	m := SimpleCNN("cnn", 10, 99)
	if err := m.LoadWeights(blob); err != nil {
		t.Fatal(err)
	}
	after := m.Forward(x, m.NumLayers()-1)
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatalf("restored network differs at %d", i)
		}
	}
	// Corrupt header and mismatched architecture fail.
	if err := m.LoadWeights([]byte("nope")); err == nil {
		t.Fatal("bad header accepted")
	}
	other := VGG16("vgg", 10, 2, 1)
	if err := other.LoadWeights(blob); err == nil {
		t.Fatal("architecture mismatch accepted")
	}
}

func TestPredictAndAccuracy(t *testing.T) {
	n := SimpleCNN("cnn", 3, 30)
	x := randT4(5, 3, 32, 32, 31)
	pred := n.Predict(x)
	if len(pred) != 5 {
		t.Fatalf("pred len %d", len(pred))
	}
	for _, p := range pred {
		if p < 0 || p >= 3 {
			t.Fatalf("class %d out of range", p)
		}
	}
	if acc := n.Accuracy(x, pred); acc != 1 {
		t.Fatalf("self accuracy %g", acc)
	}
}

// TestInferenceWritesNothing: a forward pass leaves the network exactly as
// it was, so concurrent inference on one network needs no lock. Each
// network is compared against a twin built from the same seed.
func TestInferenceWritesNothing(t *testing.T) {
	seqs, _ := data.Sequences(5, 4, 2, 2, 4)
	for _, c := range []struct {
		build func() *Network
		x     *tensor.T4
	}{
		{func() *Network { return SimpleCNN("cnn", 4, 1) }, randT4(5, 3, 32, 32, 2)},
		{func() *Network { return VGG16("vgg", 4, 2, 1) }, randT4(5, 3, 32, 32, 3)},
		{func() *Network { return ElmanRNN("rnn", 4, 2, 3, 2, 1) }, seqs},
	} {
		n, twin := c.build(), c.build()
		if !reflect.DeepEqual(n, twin) {
			t.Fatalf("%s: twins differ before any call", n.Name)
		}
		last := n.NumLayers() - 1
		n.Forward(c.x, last)
		if !reflect.DeepEqual(n, twin) {
			t.Fatalf("%s: Forward changed the network", n.Name)
		}
		n.ForwardBatched(c.x, last, 2)
		if !reflect.DeepEqual(n, twin) {
			t.Fatalf("%s: ForwardBatched changed the network", n.Name)
		}
	}
}

// TestCloneOwnsItsWeights: a clone computes what its source computes, and
// training one leaves the other's weights alone. An RNN's steps keep
// sharing one set of weights inside the clone.
func TestCloneOwnsItsWeights(t *testing.T) {
	x, labels := data.Images(16, 2, 5)
	n := SimpleCNN("cnn", 2, 6)
	c := n.Clone()
	if !reflect.DeepEqual(n, c) {
		t.Fatal("clone differs from its source")
	}
	before := n.SaveWeights()
	c.TrainEpochs(x, labels, 1, 8, 0.05, nil)
	if !bytes.Equal(n.SaveWeights(), before) {
		t.Fatal("training the clone changed the source")
	}
	if bytes.Equal(c.SaveWeights(), before) {
		t.Fatal("training the clone changed nothing")
	}

	r := ElmanRNN("rnn", 4, 2, 3, 2, 1)
	rc := r.Clone()
	if got := len(rc.allParams()); got != 5 {
		t.Fatalf("clone has %d distinct params, want 5", got)
	}
	for i, p := range rc.allParams() {
		if p == r.allParams()[i] {
			t.Fatalf("clone shares param %d with its source", i)
		}
	}
}

func BenchmarkVGGForward8(b *testing.B) {
	n := VGG16("vgg", 10, 4, 1)
	x := randT4(8, 3, 32, 32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(x, n.NumLayers()-1)
	}
}
