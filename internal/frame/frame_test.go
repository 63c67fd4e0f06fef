package frame

import (
	"reflect"
	"testing"
)

func sample() *Frame {
	f := New(3)
	f.AddFloats("price", []float64{100, 200, 300})
	f.AddInts("rooms", []int64{2, 3, 4})
	f.AddStrings("city", []string{"bos", "sea", "bos"})
	return f
}

func TestBasics(t *testing.T) {
	f := sample()
	if f.NumRows() != 3 || f.NumCols() != 3 {
		t.Fatalf("shape %dx%d", f.NumRows(), f.NumCols())
	}
	if !reflect.DeepEqual(f.Names(), []string{"price", "rooms", "city"}) {
		t.Fatalf("names %v", f.Names())
	}
	if f.Col("price").F[1] != 200 {
		t.Fatal("Col lookup")
	}
	if f.Col("nope") != nil || f.Has("nope") {
		t.Fatal("missing column should be nil")
	}
	if f.RowIDs()[2] != 2 {
		t.Fatal("default row ids")
	}
}

func TestAddPanics(t *testing.T) {
	f := sample()
	for name, fn := range map[string]func(){
		"dup":     func() { f.AddFloats("price", []float64{1, 2, 3}) },
		"too-few": func() { f.AddFloats("x", []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSelectDrop(t *testing.T) {
	f := sample()
	s := f.Select("city", "price")
	if !reflect.DeepEqual(s.Names(), []string{"city", "price"}) {
		t.Fatalf("select %v", s.Names())
	}
	d := f.Drop("rooms", "not-there")
	if !reflect.DeepEqual(d.Names(), []string{"price", "city"}) {
		t.Fatalf("drop %v", d.Names())
	}
	if f.NumCols() != 3 {
		t.Fatal("Drop mutated the receiver")
	}
}

func TestGatherKeepsRowIDs(t *testing.T) {
	f := sample()
	g := f.Gather([]int{2, 0})
	if !reflect.DeepEqual(g.RowIDs(), []int64{2, 0}) {
		t.Fatalf("row ids %v", g.RowIDs())
	}
	if g.Col("price").F[0] != 300 || g.Col("city").S[1] != "bos" {
		t.Fatal("gather values")
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := sample()
	c := f.Clone()
	c.Col("price").F[0] = -1
	c.Col("city").S[0] = "nyc"
	if f.Col("price").F[0] != 100 || f.Col("city").S[0] != "bos" {
		t.Fatal("Clone shares storage")
	}
}

func TestJoinInner(t *testing.T) {
	left := New(4)
	left.AddInts("pid", []int64{10, 11, 12, 13})
	left.AddFloats("err", []float64{0.1, 0.2, 0.3, 0.4})

	right := WithRowIDs([]int64{100, 101, 102})
	right.AddInts("pid", []int64{12, 10, 10})
	right.AddFloats("sqft", []float64{900, 1500, 9999})
	right.AddStrings("type", []string{"condo", "house", "dup"})

	j := left.JoinInner(right, "pid")
	if j.NumRows() != 2 {
		t.Fatalf("join rows %d", j.NumRows())
	}
	// pid=10 matches first occurrence (sqft 1500), pid=12 matches 900.
	if j.Col("pid").I[0] != 10 || j.Col("sqft").F[0] != 1500 || j.Col("type").S[0] != "house" {
		t.Fatalf("join row0: %v %v", j.Col("sqft").F, j.Col("type").S)
	}
	if j.Col("pid").I[1] != 12 || j.Col("sqft").F[1] != 900 {
		t.Fatal("join row1")
	}
	// Left row ids preserved.
	if !reflect.DeepEqual(j.RowIDs(), []int64{0, 2}) {
		t.Fatalf("join ids %v", j.RowIDs())
	}
}

func TestFloatMatrixRoundTrip(t *testing.T) {
	f := sample()
	m, names := f.FloatMatrix()
	if !reflect.DeepEqual(names, []string{"price", "rooms"}) {
		t.Fatalf("numeric names %v", names)
	}
	if m.Rows != 3 || m.Cols != 2 || m.At(1, 1) != 3 {
		t.Fatalf("matrix %+v", m)
	}
}

func TestAsFloats(t *testing.T) {
	f := sample()
	if _, ok := f.Col("city").AsFloats(); ok {
		t.Fatal("string column converted to floats")
	}
	vals, ok := f.Col("rooms").AsFloats()
	if !ok || vals[0] != 2 {
		t.Fatal("int column conversion")
	}
}

func TestColAtAndTypeString(t *testing.T) {
	f := sample()
	if f.ColAt(0).Name != "price" || f.ColAt(2).Type != String {
		t.Fatal("ColAt")
	}
	if Float.String() != "float" || Int.String() != "int" || String.String() != "string" {
		t.Fatal("type strings")
	}
	if ColType(99).String() == "" {
		t.Fatal("unknown type string empty")
	}
}
