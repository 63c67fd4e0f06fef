package tensor

import (
	"math"
	"slices"
	"testing"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(0, 0, 1)
	d.Set(1, 2, 5)
	if d.At(0, 0) != 1 || d.At(1, 2) != 5 || d.At(0, 1) != 0 {
		t.Fatalf("At/Set broken: %+v", d)
	}
	if got := d.Row(1); got[2] != 5 {
		t.Fatalf("Row: %v", got)
	}
	if got := d.Col(2); got[0] != 0 || got[1] != 5 {
		t.Fatalf("Col: %v", got)
	}
}

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float32) *Dense {
	d := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(d.Row(i), r)
	}
	return d
}

// equal reports whether two matrices have identical shape and contents.
func equal(a, b *Dense) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.Data, b.Data)
}

func TestFromRowsAndClone(t *testing.T) {
	d := fromRows([][]float32{{1, 2}, {3, 4}})
	c := d.Clone()
	c.Set(0, 0, 99)
	if d.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
	if !equal(d, fromRows([][]float32{{1, 2}, {3, 4}})) {
		t.Fatal("Clone changed the source")
	}
}

func TestSelectRowsCols(t *testing.T) {
	d := fromRows([][]float32{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	c := d.SelectCols([]int{1})
	if !equal(c, fromRows([][]float32{{2}, {5}, {8}})) {
		t.Fatalf("SelectCols: %v", c.Data)
	}
	s := d.SliceRows(1, 3)
	if s.Rows != 2 || s.At(0, 0) != 4 {
		t.Fatalf("SliceRows: %v", s.Data)
	}
}

func TestT4IndexingAndFlatten(t *testing.T) {
	x := NewT4(2, 3, 4, 5)
	x.Set(1, 2, 3, 4, 42)
	if x.At(1, 2, 3, 4) != 42 {
		t.Fatal("T4 At/Set broken")
	}
	f := x.Flatten()
	if f.Rows != 2 || f.Cols != 60 {
		t.Fatalf("Flatten shape %dx%d", f.Rows, f.Cols)
	}
	// element (1,2,3,4) lands at flat column 2*20+3*5+4 = 59
	if f.At(1, 59) != 42 {
		t.Fatal("Flatten layout mismatch")
	}
}

func TestT4PlaneAliases(t *testing.T) {
	x := NewT4(1, 2, 2, 2)
	p := x.Plane(0, 1)
	p[3] = 7
	if x.At(0, 1, 1, 1) != 7 {
		t.Fatal("Plane does not alias storage")
	}
	if got := len(x.Example(0)); got != 8 {
		t.Fatalf("Example len %d", got)
	}
}

func TestL2Dist(t *testing.T) {
	d := L2Dist([]float32{0, 0}, []float32{3, 4})
	if math.Abs(d-5) > 1e-12 {
		t.Fatalf("L2Dist = %v", d)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	a := NewDense(2, 3)
	mustPanic("SetCol len", func() { a.SetCol(0, []float32{1}) })
}
