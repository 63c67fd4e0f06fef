package f16

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKnownValues(t *testing.T) {
	cases := []struct {
		f    float32
		bits uint16
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff},
		{-65504, 0xfbff},
		{SmallestNormal, 0x0400},
		{SmallestSubnormal, 0x0001},
		{float32(math.Inf(1)), 0x7c00},
		{float32(math.Inf(-1)), 0xfc00},
		{0.333251953125, 0x3555}, // nearest half to 1/3
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.bits {
			t.Errorf("FromFloat32(%v) = %#04x, want %#04x", c.f, got, c.bits)
		}
		if back := toFloat32(c.bits); back != c.f {
			t.Errorf("toFloat32(%#04x) = %v, want %v", c.bits, back, c.f)
		}
	}
}

func TestNaN(t *testing.T) {
	h := FromFloat32(float32(math.NaN()))
	if h&0x7c00 != 0x7c00 || h&0x3ff == 0 {
		t.Fatalf("NaN encoded as %#04x, not a float16 NaN", h)
	}
	f := toFloat32(h)
	if !math.IsNaN(float64(f)) {
		t.Fatalf("round-tripped NaN is %v", f)
	}
}

func TestOverflowToInf(t *testing.T) {
	for _, f := range []float32{65520, 1e6, 3.4e38} {
		if got := FromFloat32(f); got != 0x7c00 {
			t.Errorf("FromFloat32(%v) = %#04x, want +Inf (0x7c00)", f, got)
		}
		if got := FromFloat32(-f); got != 0xfc00 {
			t.Errorf("FromFloat32(%v) = %#04x, want -Inf (0xfc00)", -f, got)
		}
	}
	// 65519.996 is below the midpoint between 65504 and 65536: rounds down.
	if got := FromFloat32(65519.0); got != 0x7bff {
		t.Errorf("FromFloat32(65519) = %#04x, want 0x7bff", got)
	}
}

func TestUnderflowToZero(t *testing.T) {
	tiny := float32(1e-10)
	if got := FromFloat32(tiny); got != 0 {
		t.Errorf("FromFloat32(1e-10) = %#04x, want 0", got)
	}
	if got := FromFloat32(-tiny); got != 0x8000 {
		t.Errorf("FromFloat32(-1e-10) = %#04x, want -0", got)
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1.0 (0x3c00) and the next half
	// (0x3c01); nearest-even picks 0x3c00.
	f := float32(1.0 + 1.0/2048.0)
	if got := FromFloat32(f); got != 0x3c00 {
		t.Errorf("halfway rounding: got %#04x, want 0x3c00", got)
	}
	// 1 + 3*2^-11 is halfway between 0x3c01 and 0x3c02; even is 0x3c02.
	f = float32(1.0 + 3.0/2048.0)
	if got := FromFloat32(f); got != 0x3c02 {
		t.Errorf("halfway rounding: got %#04x, want 0x3c02", got)
	}
}

// TestExhaustiveRoundTrip checks that every one of the 65536 bit patterns
// survives half -> float32 -> half unchanged (modulo NaN payload class).
func TestExhaustiveRoundTrip(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := uint16(i)
		f := toFloat32(h)
		back := FromFloat32(f)
		if math.IsNaN(float64(f)) {
			if back&0x7c00 != 0x7c00 || back&0x3ff == 0 {
				t.Fatalf("NaN pattern %#04x did not stay NaN (%#04x)", h, back)
			}
			continue
		}
		if back != h {
			t.Fatalf("round trip %#04x -> %v -> %#04x", h, f, back)
		}
	}
}

func TestQuickRoundedIsNearest(t *testing.T) {
	// Property: round(f) differs from f by at most half a ULP of the
	// float16 grid around f, for f within the finite float16 range.
	prop := func(v float64) bool {
		f := float32(math.Mod(v, 60000))
		r := round(f)
		diff := math.Abs(float64(r) - float64(f))
		// ULP at |f|: 2^(floor(log2|f|) - 10), bounded below by the
		// subnormal spacing.
		af := math.Abs(float64(f))
		ulp := SmallestSubnormal
		if af >= SmallestNormal {
			e := math.Floor(math.Log2(af))
			ulp = math.Pow(2, e-10)
		}
		return diff <= ulp/2+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceCodecs(t *testing.T) {
	src := []float32{0, 1, -2.5, 1000, 1e-5}
	dec := DecodeBytes(nil, AppendBytes(nil, src), len(src))
	if len(dec) != len(src) {
		t.Fatalf("len %d != %d", len(dec), len(src))
	}
	for i := range src {
		if dec[i] != round(src[i]) {
			t.Errorf("slice codec [%d]: %v != %v", i, dec[i], round(src[i]))
		}
	}
}

func BenchmarkFromFloat32(b *testing.B) {
	var s uint16
	for i := 0; i < b.N; i++ {
		s ^= FromFloat32(float32(i) * 0.001)
	}
	_ = s
}
