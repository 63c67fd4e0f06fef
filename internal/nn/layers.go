// Package nn implements the deep-neural-network substrate MISTIQUE logs
// intermediates from: a pure-Go NCHW inference and training engine with
// Conv2D, ReLU, MaxPool, Flatten, Dense and softmax cross-entropy; VGG16-
// and simple-CNN-shaped model builders matching the paper's two CIFAR10
// models; SGD training with per-layer freezing (the VGG16 fine-tuning
// setup, whose frozen conv stack is what makes cross-epoch DEDUP pay off);
// and binary checkpointing of weights after every epoch.
//
// Inference is pure: Forward is a function of the weights and the input
// and writes nothing, so one Network may serve any number of concurrent
// forward passes. Only TrainStep writes: it accumulates gradients into
// each Param and applies them to the weights, so a network must not run
// inference while it trains (Clone it first).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"mistique/internal/tensor"
)

// Param is one trainable weight tensor with its gradient accumulator.
type Param struct {
	W []float32
	G []float32
}

func newParam(n int) *Param { return &Param{W: make([]float32, n), G: make([]float32, n)} }

// Layer is one network stage. A layer keeps no per-call state: Forward
// writes nothing, and Backward is handed the forward pass's input and
// output instead of a cache, so concurrent Forward calls are safe.
type Layer interface {
	// Name is a short human-readable identifier, e.g. "conv3_1".
	Name() string
	// Forward computes the layer output for a batch.
	Forward(x *tensor.T4) *tensor.T4
	// Backward consumes dL/d(output) for the forward pass that mapped in
	// to out and returns dL/d(input), adding weight gradients into Params.
	Backward(in, out, grad *tensor.T4) *tensor.T4
	// Params returns trainable parameters (nil for activation layers).
	Params() []*Param
}

// ---- Conv2D ----

// Conv2D is a stride-1, same-padded 2-D convolution.
type Conv2D struct {
	name         string
	InC, OutC, K int
	Weight, Bias *Param
	Frozen       bool
}

// NewConv2D creates a Conv2D with He-initialized weights.
func NewConv2D(name string, inC, outC, k int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{name: name, InC: inC, OutC: outC, K: k}
	c.Weight = newParam(outC * inC * k * k)
	c.Bias = newParam(outC)
	std := float32(math.Sqrt(2.0 / float64(inC*k*k)))
	for i := range c.Weight.W {
		c.Weight.W[i] = float32(rng.NormFloat64()) * std
	}
	return c
}

func (c *Conv2D) Name() string { return c.name }

func (c *Conv2D) Params() []*Param {
	if c.Frozen {
		return nil
	}
	return []*Param{c.Weight, c.Bias}
}

// wAt indexes the weight tensor [outC][inC][k][k].
func (c *Conv2D) wAt(oc, ic, ky, kx int) int {
	return ((oc*c.InC+ic)*c.K+ky)*c.K + kx
}

// Forward computes the same-padded convolution.
func (c *Conv2D) Forward(x *tensor.T4) *tensor.T4 {
	if x.C != c.InC {
		panic(fmt.Sprintf("nn: %s expects %d channels, got %d", c.name, c.InC, x.C))
	}
	pad := c.K / 2
	out := tensor.NewT4(x.N, c.OutC, x.H, x.W)
	for n := 0; n < x.N; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			dst := out.Plane(n, oc)
			bias := c.Bias.W[oc]
			for i := range dst {
				dst[i] = bias
			}
			for ic := 0; ic < c.InC; ic++ {
				src := x.Plane(n, ic)
				for ky := 0; ky < c.K; ky++ {
					for kx := 0; kx < c.K; kx++ {
						w := c.Weight.W[c.wAt(oc, ic, ky, kx)]
						if w == 0 {
							continue
						}
						dy := ky - pad
						dx := kx - pad
						y0 := max(0, -dy)
						y1 := min(x.H, x.H-dy)
						x0 := max(0, -dx)
						x1 := min(x.W, x.W-dx)
						for y := y0; y < y1; y++ {
							srow := src[(y+dy)*x.W : (y+dy)*x.W+x.W]
							drow := dst[y*x.W : y*x.W+x.W]
							for xx := x0; xx < x1; xx++ {
								drow[xx] += w * srow[xx+dx]
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Backward computes input gradients and accumulates weight/bias gradients.
func (c *Conv2D) Backward(x, _, grad *tensor.T4) *tensor.T4 {
	pad := c.K / 2
	dx := tensor.NewT4(x.N, x.C, x.H, x.W)
	for n := 0; n < x.N; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			g := grad.Plane(n, oc)
			// Bias gradient.
			var bsum float32
			for _, v := range g {
				bsum += v
			}
			c.Bias.G[oc] += bsum
			for ic := 0; ic < c.InC; ic++ {
				src := x.Plane(n, ic)
				dsrc := dx.Plane(n, ic)
				for ky := 0; ky < c.K; ky++ {
					for kx := 0; kx < c.K; kx++ {
						dyo := ky - pad
						dxo := kx - pad
						var wg float32
						w := c.Weight.W[c.wAt(oc, ic, ky, kx)]
						y0 := max(0, -dyo)
						y1 := min(x.H, x.H-dyo)
						x0 := max(0, -dxo)
						x1 := min(x.W, x.W-dxo)
						for y := y0; y < y1; y++ {
							grow := g[y*x.W : y*x.W+x.W]
							srow := src[(y+dyo)*x.W : (y+dyo)*x.W+x.W]
							drow := dsrc[(y+dyo)*x.W : (y+dyo)*x.W+x.W]
							for xx := x0; xx < x1; xx++ {
								gv := grow[xx]
								wg += gv * srow[xx+dxo]
								drow[xx+dxo] += gv * w
							}
						}
						c.Weight.G[c.wAt(oc, ic, ky, kx)] += wg
					}
				}
			}
		}
	}
	return dx
}

// ---- ReLU ----

// ReLU is the rectified-linear activation.
type ReLU struct{ name string }

// NewReLU creates a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

func (r *ReLU) Name() string     { return r.name }
func (r *ReLU) Params() []*Param { return nil }
func (r *ReLU) Forward(x *tensor.T4) *tensor.T4 {
	out := tensor.NewT4(x.N, x.C, x.H, x.W)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

func (r *ReLU) Backward(in, _, grad *tensor.T4) *tensor.T4 {
	dx := tensor.NewT4(grad.N, grad.C, grad.H, grad.W)
	for i, v := range in.Data {
		if v > 0 {
			dx.Data[i] = grad.Data[i]
		}
	}
	return dx
}

// ---- MaxPool 2x2 ----

// MaxPool is a 2x2, stride-2 max pooling layer.
type MaxPool struct{ name string }

// NewMaxPool creates a 2x2 max pooling layer.
func NewMaxPool(name string) *MaxPool { return &MaxPool{name: name} }

func (m *MaxPool) Name() string     { return m.name }
func (m *MaxPool) Params() []*Param { return nil }
func (m *MaxPool) Forward(x *tensor.T4) *tensor.T4 {
	oh, ow := x.H/2, x.W/2
	out := tensor.NewT4(x.N, x.C, oh, ow)
	for n := 0; n < x.N; n++ {
		for ch := 0; ch < x.C; ch++ {
			src := x.Plane(n, ch)
			dst := out.Plane(n, ch)
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					dst[oy*ow+ox] = src[poolArgmax(src, x.W, 2*oy*x.W+2*ox)]
				}
			}
		}
	}
	return out
}

// Backward routes each output gradient to the input its window's maximum
// came from, found again by the same scan Forward makes.
func (m *MaxPool) Backward(in, _, grad *tensor.T4) *tensor.T4 {
	dx := tensor.NewT4(in.N, in.C, in.H, in.W)
	for n := 0; n < in.N; n++ {
		for ch := 0; ch < in.C; ch++ {
			src := in.Plane(n, ch)
			g := grad.Plane(n, ch)
			dsrc := dx.Plane(n, ch)
			for oy := 0; oy < grad.H; oy++ {
				for ox := 0; ox < grad.W; ox++ {
					dsrc[poolArgmax(src, in.W, 2*oy*in.W+2*ox)] += g[oy*grad.W+ox]
				}
			}
		}
	}
	return dx
}

// poolArgmax returns the index in src of the maximum of the 2x2 window
// whose top-left corner is at bi in a plane w wide. The scan order and the
// strict > fix which element a tie or a NaN picks.
func poolArgmax(src []float32, w, bi int) int {
	best, at := src[bi], bi
	for _, off := range [3]int{1, w, w + 1} {
		if v := src[bi+off]; v > best {
			best, at = v, bi+off
		}
	}
	return at
}

// ---- Flatten ----

// Flatten reshapes (C, H, W) feature volumes into (C*H*W, 1, 1) vectors.
type Flatten struct{ name string }

// NewFlatten creates a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

func (f *Flatten) Name() string     { return f.name }
func (f *Flatten) Params() []*Param { return nil }
func (f *Flatten) Forward(x *tensor.T4) *tensor.T4 {
	out := tensor.NewT4(x.N, x.C*x.H*x.W, 1, 1)
	copy(out.Data, x.Data)
	return out
}

func (f *Flatten) Backward(in, _, grad *tensor.T4) *tensor.T4 {
	dx := tensor.NewT4(in.N, in.C, in.H, in.W)
	copy(dx.Data, grad.Data)
	return dx
}

// ---- Dense ----

// Dense is a fully connected layer on (C, 1, 1) inputs.
type Dense struct {
	name    string
	In, Out int
	Weight  *Param // Out x In, row-major
	Bias    *Param
	Frozen  bool
}

// NewDense creates a Dense layer with He initialization.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	d := &Dense{name: name, In: in, Out: out, Weight: newParam(in * out), Bias: newParam(out)}
	std := float32(math.Sqrt(2.0 / float64(in)))
	for i := range d.Weight.W {
		d.Weight.W[i] = float32(rng.NormFloat64()) * std
	}
	return d
}

func (d *Dense) Name() string { return d.name }

func (d *Dense) Params() []*Param {
	if d.Frozen {
		return nil
	}
	return []*Param{d.Weight, d.Bias}
}

func (d *Dense) Forward(x *tensor.T4) *tensor.T4 {
	if x.C != d.In || x.H != 1 || x.W != 1 {
		panic(fmt.Sprintf("nn: %s expects (%d,1,1) input, got (%d,%d,%d)", d.name, d.In, x.C, x.H, x.W))
	}
	out := tensor.NewT4(x.N, d.Out, 1, 1)
	for n := 0; n < x.N; n++ {
		src := x.Example(n)
		dst := out.Example(n)
		for o := 0; o < d.Out; o++ {
			sum := d.Bias.W[o]
			row := d.Weight.W[o*d.In : (o+1)*d.In]
			for i, v := range src {
				sum += row[i] * v
			}
			dst[o] = sum
		}
	}
	return out
}

func (d *Dense) Backward(x, _, grad *tensor.T4) *tensor.T4 {
	dx := tensor.NewT4(x.N, d.In, 1, 1)
	for n := 0; n < x.N; n++ {
		src := x.Example(n)
		g := grad.Example(n)
		dsrc := dx.Example(n)
		for o := 0; o < d.Out; o++ {
			gv := g[o]
			if gv == 0 {
				continue
			}
			d.Bias.G[o] += gv
			wRow := d.Weight.W[o*d.In : (o+1)*d.In]
			gRow := d.Weight.G[o*d.In : (o+1)*d.In]
			for i, v := range src {
				gRow[i] += gv * v
				dsrc[i] += gv * wRow[i]
			}
		}
	}
	return dx
}
