package nindex

import (
	"math"
	"math/rand"
	"testing"
)

func TestBuildShapes(t *testing.T) {
	vals := []float32{5, 1, float32(math.NaN()), 3, 3, -2, float32(math.Inf(1)), 0}
	x := Build(vals, 42, Config{SegmentEntries: 3})
	if x.Rows() != 8 || x.Sig() != 42 {
		t.Fatalf("rows=%d sig=%d", x.Rows(), x.Sig())
	}
	// 7 non-NaN entries in 3-entry segments (3+3+1) plus one NaN segment.
	if x.Segments() != 4 || x.nonNaN != 3 {
		t.Fatalf("segments=%d nonNaN=%d", x.Segments(), x.nonNaN)
	}
	for i, seg := range x.segs {
		vals, err := seg.decodeVals()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			if math.IsNaN(float64(v)) != (i >= x.nonNaN) {
				t.Fatalf("segment %d (nonNaN %d) holds %v", i, x.nonNaN, v)
			}
		}
	}
	if x.Bytes() <= 0 {
		t.Fatal("zero footprint")
	}
}

func TestDecodeRowsRejectsCorruptPayloads(t *testing.T) {
	seg := buildSegment([]float32{9, 8, 7}, []int{0, 1, 2})
	if rows, err := seg.decodeRows(3); err != nil || len(rows) != 3 {
		t.Fatalf("clean decode: rows=%v err=%v", rows, err)
	}
	// Row id out of range.
	if _, err := seg.decodeRows(2); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	// Truncated varints.
	trunc := seg
	trunc.rowsEnc = seg.rowsEnc[:1]
	if _, err := trunc.decodeRows(3); err == nil {
		t.Fatal("truncated row list accepted")
	}
	// Trailing bytes.
	tail := seg
	tail.rowsEnc = append(append([]byte{}, seg.rowsEnc...), 0)
	if _, err := tail.decodeRows(3); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Non-monotone deltas (a zero delta re-encodes the same row).
	dup := buildSegment([]float32{9, 8}, []int{1, 1})
	if _, err := dup.decodeRows(3); err == nil {
		t.Fatal("duplicate row accepted")
	}
	// Value payload length mismatch.
	bad := seg
	bad.valsEnc = seg.valsEnc[:5]
	if _, err := bad.decodeVals(); err == nil {
		t.Fatal("short value payload accepted")
	}
}

func TestOpPredicates(t *testing.T) {
	cases := []struct {
		op       Op
		v, bound float32
		match    bool
		str      string
		wire     string
		skipMin  float32 // a [min,max] that must be skippable
		skipMax  float32
		fullMin  float32 // a [min,max] that must full-match
		fullMax  float32
	}{
		{Gt, 2, 1, true, ">", "gt", -3, 1, 1.5, 9},
		{Ge, 1, 1, true, ">=", "ge", -3, 0.5, 1, 9},
		{Lt, 0, 1, true, "<", "lt", 1, 9, -3, 0.5},
		{Le, 1, 1, true, "<=", "le", 1.5, 9, -3, 1},
	}
	for _, c := range cases {
		if c.op.String() != c.str {
			t.Errorf("%v String %q", c.op, c.op.String())
		}
		if op, err := ParseOp(c.wire); err != nil || op != c.op {
			t.Errorf("ParseOp(%q) = %v, %v", c.wire, op, err)
		}
		if c.op.Match(c.v, c.bound) != c.match {
			t.Errorf("%v Match(%v, %v)", c.op, c.v, c.bound)
		}
		if !c.op.canSkip(c.skipMin, c.skipMax, c.bound) {
			t.Errorf("%v canSkip [%v,%v] vs %v", c.op, c.skipMin, c.skipMax, c.bound)
		}
		if !c.op.fullMatch(c.fullMin, c.fullMax, c.bound) {
			t.Errorf("%v fullMatch [%v,%v] vs %v", c.op, c.fullMin, c.fullMax, c.bound)
		}
		// NaN bound: nothing matches, nothing full-matches.
		nan := float32(math.NaN())
		if c.op.Match(c.v, nan) || c.op.Match(nan, c.bound) || c.op.fullMatch(-1, 1, nan) {
			t.Errorf("%v accepted a NaN bound", c.op)
		}
	}
}

func TestParseOpRejectsOtherSpellings(t *testing.T) {
	for _, s := range []string{"", ">", "GT", "eq", "gte", " gt"} {
		if _, err := ParseOp(s); err == nil {
			t.Errorf("ParseOp(%q) accepted", s)
		}
	}
}

func TestBuildDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float32, 3000)
	for i := range vals {
		vals[i] = rng.Float32()
	}
	x := Build(vals, 0, Config{})
	if got := x.Segments(); got != 3 { // 3000 rows / default 1024-entry segments
		t.Fatalf("%d segments with default config", got)
	}
}
