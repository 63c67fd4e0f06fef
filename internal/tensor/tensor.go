// Package tensor provides the dense float32 containers used throughout the
// system: Dense (a 2-D row-major matrix holding intermediates as
// rows=examples, cols=features/neurons) and T4 (an NCHW 4-D tensor used by
// the convolutional layers of the DNN substrate).
package tensor

import (
	"fmt"
	"math"
)

// Dense is a dense row-major float32 matrix. The zero value is an empty
// matrix; use NewDense to allocate.
type Dense struct {
	Rows, Cols int
	Data       []float32 // len Rows*Cols, row-major
}

// NewDense allocates a zeroed rows x cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns the element at (i, j).
func (d *Dense) At(i, j int) float32 { return d.Data[i*d.Cols+j] }

// Set assigns the element at (i, j).
func (d *Dense) Set(i, j int, v float32) { d.Data[i*d.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (d *Dense) Row(i int) []float32 { return d.Data[i*d.Cols : (i+1)*d.Cols] }

// Col copies column j into a new slice.
func (d *Dense) Col(j int) []float32 {
	return d.ColInto(make([]float32, 0, d.Rows), j)
}

// ColInto appends column j to dst and returns it — the allocation-free
// form for callers that reuse a column buffer.
func (d *Dense) ColInto(dst []float32, j int) []float32 {
	if cap(dst)-len(dst) < d.Rows {
		dst = append(make([]float32, 0, len(dst)+d.Rows), dst...)
	}
	for i := 0; i < d.Rows; i++ {
		dst = append(dst, d.Data[i*d.Cols+j])
	}
	return dst
}

// SetCol overwrites column j with v.
func (d *Dense) SetCol(j int, v []float32) {
	if len(v) != d.Rows {
		panic("tensor: SetCol length mismatch")
	}
	for i := 0; i < d.Rows; i++ {
		d.Data[i*d.Cols+j] = v[i]
	}
}

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := NewDense(d.Rows, d.Cols)
	copy(c.Data, d.Data)
	return c
}

// SliceRows returns a new matrix containing rows [from, to).
func (d *Dense) SliceRows(from, to int) *Dense {
	if from < 0 || to > d.Rows || from > to {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) of %d rows", from, to, d.Rows))
	}
	s := NewDense(to-from, d.Cols)
	copy(s.Data, d.Data[from*d.Cols:to*d.Cols])
	return s
}

// SelectCols gathers the given column indices into a new matrix.
func (d *Dense) SelectCols(idx []int) *Dense {
	s := NewDense(d.Rows, len(idx))
	for i := 0; i < d.Rows; i++ {
		src := d.Row(i)
		dst := s.Row(i)
		for k, j := range idx {
			dst[k] = src[j]
		}
	}
	return s
}

// Apply replaces every element x with f(x).
func (d *Dense) Apply(f func(float32) float32) {
	for i, v := range d.Data {
		d.Data[i] = f(v)
	}
}

// T4 is a dense NCHW 4-D tensor: N examples, C channels, H x W spatial map.
type T4 struct {
	N, C, H, W int
	Data       []float32
}

// NewT4 allocates a zeroed NCHW tensor.
func NewT4(n, c, h, w int) *T4 {
	return &T4{N: n, C: c, H: h, W: w, Data: make([]float32, n*c*h*w)}
}

// At returns element (n, c, h, w).
func (t *T4) At(n, c, h, w int) float32 {
	return t.Data[((n*t.C+c)*t.H+h)*t.W+w]
}

// Set assigns element (n, c, h, w).
func (t *T4) Set(n, c, h, w int, v float32) {
	t.Data[((n*t.C+c)*t.H+h)*t.W+w] = v
}

// Plane returns the (n, c) spatial plane as a slice aliasing the tensor.
func (t *T4) Plane(n, c int) []float32 {
	base := (n*t.C + c) * t.H * t.W
	return t.Data[base : base+t.H*t.W]
}

// Example returns the full feature volume of example n as an aliasing slice.
func (t *T4) Example(n int) []float32 {
	sz := t.C * t.H * t.W
	return t.Data[n*sz : (n+1)*sz]
}

// Clone returns a deep copy.
func (t *T4) Clone() *T4 {
	c := NewT4(t.N, t.C, t.H, t.W)
	copy(c.Data, t.Data)
	return c
}

// Flatten reinterprets the tensor as an N x (C*H*W) matrix. This is how DNN
// intermediates enter the column store: one column per (channel, y, x) cell.
func (t *T4) Flatten() *Dense {
	return &Dense{Rows: t.N, Cols: t.C * t.H * t.W, Data: t.Data}
}

// SliceN returns examples [from, to) as a new tensor sharing no storage.
func (t *T4) SliceN(from, to int) *T4 {
	s := NewT4(to-from, t.C, t.H, t.W)
	sz := t.C * t.H * t.W
	copy(s.Data, t.Data[from*sz:to*sz])
	return s
}

// L2Dist returns the Euclidean distance between two equal-length vectors.
func L2Dist(a, b []float32) float64 {
	var sum float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
	}
	return math.Sqrt(sum)
}
