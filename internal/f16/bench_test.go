package f16

import (
	"math/rand"
	"testing"
)

// benchValues mixes the regimes a real activation column hits: normals of
// varying magnitude, exact zeros, values that land in the half-subnormal
// range, and a few overflow/underflow outliers.
func benchValues(n int) []float32 {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float32, n)
	for i := range vals {
		switch i % 8 {
		case 0:
			vals[i] = 0
		case 1:
			vals[i] = float32(rng.NormFloat64()) * 1e-6 // subnormal half range
		case 2:
			vals[i] = float32(rng.NormFloat64()) * 1e5 // overflow candidates
		default:
			vals[i] = float32(rng.NormFloat64())
		}
	}
	return vals
}

func BenchmarkF16AppendBytes(b *testing.B) {
	src := benchValues(4096)
	dst := make([]byte, 0, 2*len(src))
	b.SetBytes(int64(4 * len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendBytes(dst[:0], src)
	}
	_ = dst
}

func BenchmarkF16DecodeBytes(b *testing.B) {
	src := benchValues(4096)
	raw := AppendBytes(nil, src)
	dst := make([]float32, 0, len(src))
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = DecodeBytes(dst[:0], raw, len(src))
	}
	_ = dst
}

// BenchmarkF16EncodeRef/DecodeRef measure the retained reference codec so
// the LUT speedup ratio is visible in one bench run.
func BenchmarkF16EncodeRef(b *testing.B) {
	src := benchValues(4096)
	dst := make([]uint16, 0, len(src))
	b.SetBytes(int64(4 * len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = dst[:0]
		for _, f := range src {
			dst = append(dst, encodeRef(f))
		}
	}
	_ = dst
}

func BenchmarkF16DecodeRef(b *testing.B) {
	src := encodeHalves(benchValues(4096))
	dst := make([]float32, 0, len(src))
	b.SetBytes(int64(2 * len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = dst[:0]
		for _, h := range src {
			dst = append(dst, decodeRef(h))
		}
	}
	_ = dst
}
