package f16

import (
	"math"
	"os"
	"testing"
)

// TestDecodeLUTExhaustive sweeps every one of the 2^16 half bit patterns
// and demands the decode table match the reference decoder bit for bit
// (bitwise comparison, so NaN payloads and signed zeros count too).
func TestDecodeLUTExhaustive(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := uint16(i)
		got := math.Float32bits(toFloat32(h))
		want := math.Float32bits(decodeRef(h))
		if got != want {
			t.Fatalf("decode %#04x: LUT %#08x, reference %#08x", h, got, want)
		}
	}
}

// TestEncodeExhaustiveOverHalves encodes the exact value of every half bit
// pattern plus its float32 neighbors one ulp either side — the
// neighborhoods where rounding direction, tie-breaking, overflow-to-Inf and
// underflow-to-zero all flip — and checks the table codec against the
// reference on each.
func TestEncodeExhaustiveOverHalves(t *testing.T) {
	check := func(f float32) {
		got, want := FromFloat32(f), encodeRef(f)
		if got != want {
			t.Fatalf("encode %v (bits %#08x): LUT %#04x, reference %#04x",
				f, math.Float32bits(f), got, want)
		}
	}
	for i := 0; i < 1<<16; i++ {
		f := decodeRef(uint16(i))
		check(f)
		if !math.IsNaN(float64(f)) {
			check(math.Nextafter32(f, float32(math.Inf(1))))
			check(math.Nextafter32(f, float32(math.Inf(-1))))
			// Midpoints between adjacent halves are where nearest-even ties
			// break; perturb from the midpoint too.
			up := decodeRef(uint16(i) + 1)
			if !math.IsNaN(float64(up)) && !math.IsInf(float64(up), 0) {
				mid := float32((float64(f) + float64(up)) / 2)
				check(mid)
				check(math.Nextafter32(mid, float32(math.Inf(1))))
				check(math.Nextafter32(mid, float32(math.Inf(-1))))
			}
		}
	}
}

// TestEncodeExhaustiveAllFloat32 proves the parity claim over the entire
// float32 domain (all 2^32 bit patterns). It takes a couple of minutes, so
// it only runs when MISTIQUE_EXHAUSTIVE=1; the committed evidence is the
// boundary sweep above plus FuzzF16Parity.
func TestEncodeExhaustiveAllFloat32(t *testing.T) {
	if os.Getenv("MISTIQUE_EXHAUSTIVE") == "" {
		t.Skip("set MISTIQUE_EXHAUSTIVE=1 to sweep all 2^32 float32 inputs")
	}
	for b := uint64(0); b < 1<<32; b++ {
		f := math.Float32frombits(uint32(b))
		if got, want := FromFloat32(f), encodeRef(f); got != want {
			t.Fatalf("encode bits %#08x: LUT %#04x, reference %#04x", uint32(b), got, want)
		}
	}
}

// TestSliceHelpers pins the append-style batch helpers to the scalar codec.
func TestSliceHelpers(t *testing.T) {
	src := []float32{0, -0, 1.5, -2.25, 65504, 65520, 1e-8, -1e-8,
		float32(math.Inf(1)), float32(math.Inf(-1)), SmallestSubnormal, SmallestNormal}
	enc := encodeHalves(src)
	raw := AppendBytes(nil, src)
	if len(raw) != 2*len(src) {
		t.Fatalf("AppendBytes length %d, want %d", len(raw), 2*len(src))
	}
	for i, h := range enc {
		if got := uint16(raw[2*i]) | uint16(raw[2*i+1])<<8; got != h {
			t.Fatalf("AppendBytes[%d] = %#04x, want %#04x", i, got, h)
		}
	}
	back := DecodeBytes(nil, raw, len(src))
	for i, h := range enc {
		if math.Float32bits(back[i]) != math.Float32bits(toFloat32(h)) {
			t.Fatalf("DecodeBytes[%d] = %v, want %v", i, back[i], toFloat32(h))
		}
	}
	// Appending into an existing slice preserves the prefix.
	pre := []float32{42}
	out := DecodeBytes(pre, raw[:4], 2)
	if out[0] != 42 || len(out) != 3 {
		t.Fatalf("DecodeBytes clobbered prefix: %v", out)
	}
}

// FuzzF16Parity is the differential fuzzer of the satellite spec: any
// float32 must encode identically under the table codec and the retained
// reference, and both halves of the input interpreted as binary16 must
// decode identically (bitwise).
func FuzzF16Parity(f *testing.F) {
	f.Add(uint32(0))
	f.Add(uint32(0x80000000))        // -0
	f.Add(math.Float32bits(1.5))     // normal
	f.Add(math.Float32bits(65504))   // MaxValue
	f.Add(math.Float32bits(65520))   // rounds to Inf
	f.Add(math.Float32bits(6.1e-5))  // near subnormal boundary
	f.Add(math.Float32bits(5.96e-8)) // smallest subnormal
	f.Add(math.Float32bits(2.9e-8))  // underflow tie
	f.Add(uint32(0x7f800000))        // +Inf
	f.Add(uint32(0x7fc00001))        // quiet NaN with payload
	f.Add(uint32(0x7f800001))        // signaling NaN, payload shifts to 0
	f.Add(uint32(0x00000001))        // float32 subnormal
	f.Add(uint32(0x38ffffff))        // rounding carry chain
	f.Fuzz(func(t *testing.T, bits uint32) {
		v := math.Float32frombits(bits)
		if got, want := FromFloat32(v), encodeRef(v); got != want {
			t.Fatalf("encode %v (bits %#08x): LUT %#04x, reference %#04x", v, bits, got, want)
		}
		for _, h := range []uint16{uint16(bits), uint16(bits >> 16)} {
			got := math.Float32bits(toFloat32(h))
			want := math.Float32bits(decodeRef(h))
			if got != want {
				t.Fatalf("decode %#04x: LUT %#08x, reference %#08x", h, got, want)
			}
		}
	})
}
