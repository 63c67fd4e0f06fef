// Package frame implements the dataframe abstraction MISTIQUE uses for
// model intermediates: an ordered collection of named, typed columns plus a
// row_id column that persists across pipeline stages. The paper represents
// every intermediate (including source data and predictions) as such a
// dataframe before handing its columns to the column store.
package frame

import (
	"fmt"

	"mistique/internal/tensor"
)

// ColType enumerates the supported column types.
type ColType int

const (
	// Float is a float64-valued column; NaN marks a missing value.
	Float ColType = iota
	// Int is an int64-valued column.
	Int
	// String is a string-valued (categorical) column; "" marks missing.
	String
)

func (t ColType) String() string {
	switch t {
	case Float:
		return "float"
	case Int:
		return "int"
	case String:
		return "string"
	}
	return fmt.Sprintf("ColType(%d)", int(t))
}

// Column is a single named, typed column. Exactly one of F, I, S is
// populated according to Type.
type Column struct {
	Name string
	Type ColType
	F    []float64
	I    []int64
	S    []string
}

// Len returns the number of values in the column.
func (c *Column) Len() int {
	switch c.Type {
	case Float:
		return len(c.F)
	case Int:
		return len(c.I)
	default:
		return len(c.S)
	}
}

// Clone returns a deep copy of the column.
func (c *Column) Clone() *Column {
	out := &Column{Name: c.Name, Type: c.Type}
	switch c.Type {
	case Float:
		out.F = append([]float64(nil), c.F...)
	case Int:
		out.I = append([]int64(nil), c.I...)
	default:
		out.S = append([]string(nil), c.S...)
	}
	return out
}

// AsFloats returns the column as float64s, converting ints; string columns
// return ok=false.
func (c *Column) AsFloats() (vals []float64, ok bool) {
	switch c.Type {
	case Float:
		return c.F, true
	case Int:
		out := make([]float64, len(c.I))
		for i, v := range c.I {
			out[i] = float64(v)
		}
		return out, true
	default:
		return nil, false
	}
}

// gather returns a new column containing rows idx in order.
func (c *Column) gather(idx []int) *Column {
	out := &Column{Name: c.Name, Type: c.Type}
	switch c.Type {
	case Float:
		out.F = make([]float64, len(idx))
		for k, i := range idx {
			out.F[k] = c.F[i]
		}
	case Int:
		out.I = make([]int64, len(idx))
		for k, i := range idx {
			out.I[k] = c.I[i]
		}
	default:
		out.S = make([]string, len(idx))
		for k, i := range idx {
			out.S[k] = c.S[i]
		}
	}
	return out
}

// Frame is an ordered set of columns sharing a row count, plus row ids.
type Frame struct {
	rowIDs []int64
	cols   []*Column
	index  map[string]int
}

// New creates an empty frame with n rows and row ids 0..n-1.
func New(n int) *Frame {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return WithRowIDs(ids)
}

// WithRowIDs creates an empty frame using the supplied row ids.
func WithRowIDs(ids []int64) *Frame {
	return &Frame{rowIDs: ids, index: make(map[string]int)}
}

// NumRows returns the number of rows.
func (f *Frame) NumRows() int { return len(f.rowIDs) }

// NumCols returns the number of columns (excluding the row_id column).
func (f *Frame) NumCols() int { return len(f.cols) }

// RowIDs returns the row id column (aliasing internal storage).
func (f *Frame) RowIDs() []int64 { return f.rowIDs }

// Names returns the column names in order.
func (f *Frame) Names() []string {
	out := make([]string, len(f.cols))
	for i, c := range f.cols {
		out[i] = c.Name
	}
	return out
}

// Has reports whether a column with the given name exists.
func (f *Frame) Has(name string) bool {
	_, ok := f.index[name]
	return ok
}

// Col returns the named column or nil if absent.
func (f *Frame) Col(name string) *Column {
	if i, ok := f.index[name]; ok {
		return f.cols[i]
	}
	return nil
}

// ColAt returns the i-th column.
func (f *Frame) ColAt(i int) *Column { return f.cols[i] }

// Add appends a column. It panics on duplicate names or length mismatch.
func (f *Frame) Add(c *Column) *Frame {
	if _, dup := f.index[c.Name]; dup {
		panic(fmt.Sprintf("frame: duplicate column %q", c.Name))
	}
	if c.Len() != f.NumRows() {
		panic(fmt.Sprintf("frame: column %q has %d rows, frame has %d", c.Name, c.Len(), f.NumRows()))
	}
	f.index[c.Name] = len(f.cols)
	f.cols = append(f.cols, c)
	return f
}

// AddFloats appends a float column.
func (f *Frame) AddFloats(name string, vals []float64) *Frame {
	return f.Add(&Column{Name: name, Type: Float, F: vals})
}

// AddInts appends an int column.
func (f *Frame) AddInts(name string, vals []int64) *Frame {
	return f.Add(&Column{Name: name, Type: Int, I: vals})
}

// AddStrings appends a string column.
func (f *Frame) AddStrings(name string, vals []string) *Frame {
	return f.Add(&Column{Name: name, Type: String, S: vals})
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	out := WithRowIDs(append([]int64(nil), f.rowIDs...))
	for _, c := range f.cols {
		out.Add(c.Clone())
	}
	return out
}

// Select returns a new frame containing only the named columns (shallow
// copies of the column data). Unknown names panic.
func (f *Frame) Select(names ...string) *Frame {
	out := WithRowIDs(f.rowIDs)
	for _, n := range names {
		c := f.Col(n)
		if c == nil {
			panic(fmt.Sprintf("frame: Select unknown column %q", n))
		}
		out.Add(c)
	}
	return out
}

// Drop returns a new frame without the named columns. Missing names are
// ignored (dropping an already-dropped column is a no-op, as in pandas with
// errors="ignore").
func (f *Frame) Drop(names ...string) *Frame {
	dropped := make(map[string]bool, len(names))
	for _, n := range names {
		dropped[n] = true
	}
	out := WithRowIDs(f.rowIDs)
	for _, c := range f.cols {
		if !dropped[c.Name] {
			out.Add(c)
		}
	}
	return out
}

// Gather returns a new frame containing the rows at idx, in order.
func (f *Frame) Gather(idx []int) *Frame {
	ids := make([]int64, len(idx))
	for k, i := range idx {
		ids[k] = f.rowIDs[i]
	}
	out := WithRowIDs(ids)
	for _, c := range f.cols {
		out.Add(c.gather(idx))
	}
	return out
}

// JoinInner performs an inner join with other on the named int column. Rows
// from f keep their row ids; matching columns from other are appended with
// their names (the join key is not duplicated). If other has multiple rows
// per key, the first wins (sufficient for the star-schema joins in the
// Zillow workload, where the properties table is unique per parcel).
func (f *Frame) JoinInner(other *Frame, on string) *Frame {
	left := f.Col(on)
	right := other.Col(on)
	if left == nil || right == nil || left.Type != Int || right.Type != Int {
		panic(fmt.Sprintf("frame: JoinInner needs int column %q on both sides", on))
	}
	lookup := make(map[int64]int, other.NumRows())
	for i := len(right.I) - 1; i >= 0; i-- {
		lookup[right.I[i]] = i // earlier rows overwrite later: first wins
	}
	var lIdx, rIdx []int
	for i, k := range left.I {
		if j, ok := lookup[k]; ok {
			lIdx = append(lIdx, i)
			rIdx = append(rIdx, j)
		}
	}
	out := f.Gather(lIdx)
	for _, c := range other.cols {
		if c.Name == on || out.Has(c.Name) {
			continue
		}
		out.Add(c.gather(rIdx))
	}
	return out
}

// FloatMatrix returns all float/int columns as a float32 matrix in column
// order, along with the column names. This is the representation handed to
// models and to the column store.
func (f *Frame) FloatMatrix() (*tensor.Dense, []string) {
	var names []string
	var cols [][]float64
	for _, c := range f.cols {
		if vals, ok := c.AsFloats(); ok {
			names = append(names, c.Name)
			cols = append(cols, vals)
		}
	}
	d := tensor.NewDense(f.NumRows(), len(cols))
	for j, vals := range cols {
		for i, v := range vals {
			d.Set(i, j, float32(v))
		}
	}
	return d, names
}
