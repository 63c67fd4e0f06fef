package f16

import (
	"math"
	"testing"
)

// FuzzRoundTrip checks that conversion never panics and that round is
// idempotent for every float32 bit pattern the fuzzer finds.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint32(0))
	f.Add(math.Float32bits(1.5))
	f.Add(math.Float32bits(65504))
	f.Add(math.Float32bits(float32(math.Inf(-1))))
	f.Add(uint32(0x7fc00001)) // NaN payload
	f.Fuzz(func(t *testing.T, bits uint32) {
		v := math.Float32frombits(bits)
		r := round(v)
		if math.IsNaN(float64(v)) {
			if !math.IsNaN(float64(r)) {
				t.Fatalf("NaN became %v", r)
			}
			return
		}
		if round(r) != r {
			t.Fatalf("round not idempotent: %v -> %v -> %v", v, r, round(r))
		}
	})
}
