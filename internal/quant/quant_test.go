package quant

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mistique/internal/f16"
	"mistique/internal/tensor"
)

func randVals(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64() * 10)
	}
	return out
}

func TestFullRoundTrip(t *testing.T) {
	q := NewFull()
	vals := randVals(100, 1)
	got := q.Apply(vals)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("full codec changed value %d", i)
		}
	}
	if q.BitsPerValue() != 32 || q.EncodedLen(10) != 40 {
		t.Fatal("full sizes")
	}
}

// f16Round returns f rounded to the nearest float16, as a float32.
func f16Round(f float32) float32 {
	return f16.DecodeBytes(nil, f16.AppendBytes(nil, []float32{f}), 1)[0]
}

func TestLPRoundTrip(t *testing.T) {
	q := NewLP()
	vals := randVals(100, 2)
	got := q.Apply(vals)
	for i := range vals {
		if got[i] != f16Round(vals[i]) {
			t.Fatalf("LP[%d]: %v != %v", i, got[i], f16Round(vals[i]))
		}
	}
	if q.BitsPerValue() != 16 || q.EncodedLen(10) != 20 {
		t.Fatal("LP sizes")
	}
}

func TestKBitMonotoneAndBounded(t *testing.T) {
	vals := randVals(5000, 3)
	q, err := FitKBit(vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	rec := q.Apply(vals)
	// Mean reconstruction error should be small relative to the data range
	// for 256 bins on 5000 samples (tail bins are necessarily coarser).
	sorted := append([]float32(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rangeWidth := float64(sorted[len(sorted)-1] - sorted[0])
	var sumErr float64
	for i := range vals {
		sumErr += math.Abs(float64(rec[i] - vals[i]))
	}
	if mean := sumErr / float64(len(vals)); mean > rangeWidth/100 {
		t.Fatalf("mean reconstruction error %g too large (range %g)", mean, rangeWidth)
	}
	// Monotonicity: v1 <= v2 implies rec(v1) <= rec(v2).
	for trial := 0; trial < 200; trial++ {
		a, b := vals[trial], vals[trial+200]
		if a > b {
			a, b = b, a
		}
		ra := q.Apply([]float32{a})[0]
		rb := q.Apply([]float32{b})[0]
		if ra > rb {
			t.Fatalf("non-monotone reconstruction: %g->%g, %g->%g", a, ra, b, rb)
		}
	}
	if q.BitsPerValue() != 8 || q.EncodedLen(10) != 10 {
		t.Fatal("8-bit sizes")
	}
}

func TestKBitPacking3Bit(t *testing.T) {
	vals := randVals(1000, 4)
	q, err := FitKBit(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	if q.EncodedLen(8) != 3 { // 8 values * 3 bits = 24 bits = 3 bytes
		t.Fatalf("3-bit EncodedLen(8) = %d", q.EncodedLen(8))
	}
	// Round trip through pack/unpack must preserve bin reps exactly.
	rec1 := q.Apply(vals)
	rec2 := q.Apply(rec1)
	for i := range rec1 {
		if rec1[i] != rec2[i] {
			t.Fatalf("3-bit reconstruction not idempotent at %d", i)
		}
	}
}

func TestKBitRankPreservationProperty(t *testing.T) {
	// KBIT_QT's purpose: relative ordering (ranks) survives quantization.
	vals := randVals(2000, 5)
	q, _ := FitKBit(vals, 8)
	prop := func(i, j uint16) bool {
		a := vals[int(i)%len(vals)]
		b := vals[int(j)%len(vals)]
		ra := q.Apply([]float32{a})[0]
		rb := q.Apply([]float32{b})[0]
		if a < b {
			return ra <= rb
		}
		if a > b {
			return ra >= rb
		}
		return ra == rb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestThreshold(t *testing.T) {
	vals := make([]float32, 1000)
	for i := range vals {
		vals[i] = float32(i) // uniform 0..999
	}
	q, err := FitThreshold(vals, 0.995)
	if err != nil {
		t.Fatal(err)
	}
	rec := q.Apply(vals)
	ones := 0
	for _, v := range rec {
		if v == 1 {
			ones++
		} else if v != 0 {
			t.Fatalf("threshold output %v not binary", v)
		}
	}
	// ~0.5% of values should be above the 99.5th percentile.
	if ones < 2 || ones > 10 {
		t.Fatalf("got %d ones, want ~5", ones)
	}
	if q.BitsPerValue() != 1 || q.EncodedLen(9) != 2 {
		t.Fatal("threshold sizes")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitKBit(nil, 8); err == nil {
		t.Error("FitKBit on empty input should fail")
	}
	if _, err := FitKBit([]float32{1}, 0); err == nil {
		t.Error("FitKBit bits=0 should fail")
	}
	if _, err := FitKBit([]float32{1}, 17); err == nil {
		t.Error("FitKBit bits=17 should fail")
	}
	if _, err := FitThreshold([]float32{1}, 1.5); err == nil {
		t.Error("FitThreshold percentile=1.5 should fail")
	}
	nan := float32(math.NaN())
	if _, err := FitThreshold([]float32{nan}, 0.5); err == nil {
		t.Error("FitThreshold all-NaN should fail")
	}
	if q, err := FitKBit([]float32{nan, 5}, 2); err != nil || q.Apply([]float32{5})[0] != 5 {
		t.Error("FitKBit should skip NaNs")
	}
}

func TestDecodeTruncated(t *testing.T) {
	q := NewLP()
	enc := q.Encode(nil, []float32{1, 2, 3})
	if _, err := q.Decode(nil, enc[:3], 3); err == nil {
		t.Fatal("truncated decode should fail")
	}
}

func TestQuantizerSerialization(t *testing.T) {
	vals := randVals(500, 6)
	for _, mk := range []func() *Quantizer{
		NewFull,
		NewLP,
		func() *Quantizer { q, _ := FitKBit(vals, 8); return q },
		func() *Quantizer { q, _ := FitKBit(vals, 3); return q },
		func() *Quantizer { q, _ := FitThreshold(vals, 0.9); return q },
	} {
		q := mk()
		blob, err := q.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Quantizer
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%v: %v", q.Kind, err)
		}
		a := q.Apply(vals)
		b := back.Apply(vals)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: deserialized quantizer differs at %d", q.Kind, i)
			}
		}
	}
	var q Quantizer
	if err := q.UnmarshalBinary([]byte{1, 2}); err == nil {
		t.Fatal("truncated unmarshal should fail")
	}
}

func TestPoolAvg(t *testing.T) {
	x := tensor.NewT4(1, 1, 4, 4)
	for i := 0; i < 16; i++ {
		x.Data[i] = float32(i)
	}
	p := Pool(x, 2, Avg)
	if p.H != 2 || p.W != 2 {
		t.Fatalf("pool shape %dx%d", p.H, p.W)
	}
	// Window (0,0): values 0,1,4,5 -> 2.5
	if p.At(0, 0, 0, 0) != 2.5 {
		t.Fatalf("pool avg = %v", p.At(0, 0, 0, 0))
	}
	if p.At(0, 0, 1, 1) != 12.5 {
		t.Fatalf("pool avg = %v", p.At(0, 0, 1, 1))
	}
}

func TestPoolMaxAndFullCollapse(t *testing.T) {
	x := tensor.NewT4(2, 3, 4, 4)
	rng := rand.New(rand.NewSource(7))
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	m := Pool(x, 2, Max)
	if got := m.At(0, 0, 0, 0); got != maxOf(x, 0, 0, 0, 0, 2) {
		t.Fatalf("pool max = %v", got)
	}
	// sigma = H collapses to 1x1 (pool(S)).
	c := Pool(x, 4, Avg)
	if c.H != 1 || c.W != 1 {
		t.Fatalf("collapse shape %dx%d", c.H, c.W)
	}
	var sum float32
	for _, v := range x.Plane(1, 2) {
		sum += v
	}
	if got := c.At(1, 2, 0, 0); math.Abs(float64(got-sum/16)) > 1e-6 {
		t.Fatalf("collapse avg %v want %v", got, sum/16)
	}
}

func TestPoolRaggedEdge(t *testing.T) {
	x := tensor.NewT4(1, 1, 5, 5)
	for i := range x.Data {
		x.Data[i] = 1
	}
	p := Pool(x, 2, Avg)
	if p.H != 3 || p.W != 3 {
		t.Fatalf("ragged pool shape %dx%d", p.H, p.W)
	}
	if p.At(0, 0, 2, 2) != 1 { // 1x1 corner window of all ones
		t.Fatal("ragged corner")
	}
}

func maxOf(x *tensor.T4, n, c, y0, x0, sigma int) float32 {
	v := float32(math.Inf(-1))
	for y := y0; y < y0+sigma; y++ {
		for xx := x0; xx < x0+sigma; xx++ {
			if w := x.At(n, c, y, xx); w > v {
				v = w
			}
		}
	}
	return v
}

func BenchmarkKBitEncode(b *testing.B) {
	vals := randVals(4096, 9)
	q, _ := FitKBit(vals, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Encode(nil, vals)
	}
}

func BenchmarkKBitDecode(b *testing.B) {
	vals := randVals(4096, 9)
	q, _ := FitKBit(vals, 8)
	enc := q.Encode(nil, vals)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Decode(nil, enc, len(vals)); err != nil {
			b.Fatal(err)
		}
	}
}
