// Package f16 implements the IEEE 754 binary16 ("half precision") codec used
// by the LP_QT quantization scheme. The paper stores activations as numpy
// float16; Go has no native float16, so we convert to and from uint16 bit
// patterns. The codec handles normals, subnormals, ±Inf and NaN, and rounds
// to nearest-even, matching numpy's astype(float16) behaviour.
//
// Both directions are table-driven. Decoding is a single load from a
// 65536-entry float32 table (every half value, precomputed at init).
// Encoding classifies a float32 by its 8-bit biased exponent through four
// 256-entry tables (base, shift, rounding increment, implicit-bit mask) and
// reduces every case — normal, subnormal, underflow-to-zero, overflow-to-Inf
// — to one shift/add round-to-nearest-even expression; the only branch left
// is the NaN payload path. The tables are bit-for-bit equivalent to the
// branchy reference implementation retained in ref_test.go, verified by an
// exhaustive decode sweep, a boundary-neighborhood encode sweep, and the
// FuzzF16Parity differential fuzzer.
package f16

import "math"

const (
	// MaxValue is the largest finite float16 value (65504).
	MaxValue = 65504.0
	// SmallestNormal is the smallest positive normal float16 (2^-14).
	SmallestNormal = 6.103515625e-05
	// SmallestSubnormal is the smallest positive subnormal float16 (2^-24).
	SmallestSubnormal = 5.960464477539063e-08
)

// decodeLUT maps every binary16 bit pattern to its exact float32 value
// (every half is representable as a float32, so decode is a pure lookup).
// 65536 entries x 4 bytes = 256 KiB, built once at init.
var decodeLUT [1 << 16]float32

// Encode tables, indexed by the float32's 8-bit biased exponent. For a
// float32 with sign s, exponent e and mantissa m, the half encoding is
//
//	s | (encBase[e] + ((m|encImplied[e]) + encRound[e] + lsb) >> encShift[e])
//
// where lsb is bit encShift[e] of the (implied-extended) mantissa — the
// round-to-nearest-even tie-break. The per-exponent cases:
//
//   - e in [113,142] (half normals): base = halfExp<<10, shift = 13; a
//     mantissa that rounds up to 0x400 carries into the exponent, which is
//     exactly right (including the 65504 -> Inf overflow at halfExp = 30).
//   - e in [102,112] (half subnormals): base = 0, the implicit leading 1
//     becomes explicit (encImplied = 0x800000), shift = 126-e in [14,24].
//   - e < 102 or e == 0 (underflow, incl. float32 subnormals): shift = 25
//     makes the rounded mantissa term 0 for every possible mantissa, so the
//     expression collapses to the signed zero.
//   - e in [143,254] (overflow): base = 0x7c00 (Inf), shift = 25 zeroes the
//     mantissa term.
//   - e == 255 with mantissa 0 (±Inf): base = 0x7c00 works unchanged; NaN
//     (mantissa != 0) takes the payload-preserving branch in FromFloat32.
var (
	encBase    [256]uint16
	encShift   [256]uint8
	encRound   [256]uint32
	encImplied [256]uint32
)

func init() {
	buildEncodeTables()
	buildDecodeLUT()
}

func buildEncodeTables() {
	for e := 0; e < 256; e++ {
		// Shift 25 zeroes the mantissa term: the largest possible operand is
		// (0x7fffff|0x800000) + encRound + 1 < 1<<25.
		const zeroShift = 25
		eh := e - 127 + 15 // rebias for float16
		switch {
		case e == 255: // Inf (NaN branches before the tables)
			encBase[e], encShift[e] = 0x7c00, zeroShift
		case eh >= 0x1f: // overflow to Inf
			encBase[e], encShift[e] = 0x7c00, zeroShift
		case eh >= 1: // normal half
			encBase[e], encShift[e] = uint16(eh)<<10, 13
		case eh >= -10 && e != 0: // subnormal half
			encBase[e], encShift[e] = 0, uint8(14-eh)
			encImplied[e] = 0x800000
		default: // underflow to zero (incl. every float32 subnormal)
			encBase[e], encShift[e] = 0, zeroShift
			if e != 0 {
				encImplied[e] = 0x800000 // harmless: still shifts to 0
			}
		}
		encRound[e] = 1<<(encShift[e]-1) - 1
	}
}

// buildDecodeLUT expands every half bit pattern arithmetically (same
// construction the reference decoder uses; decodeRef in ref_test.go proves
// the parity exhaustively).
func buildDecodeLUT() {
	for i := range decodeLUT {
		h := uint16(i)
		sign := uint32(h&0x8000) << 16
		exp := uint32(h>>10) & 0x1f
		mant := uint32(h & 0x3ff)
		switch {
		case exp == 0x1f: // Inf or NaN
			decodeLUT[i] = math.Float32frombits(sign | 0x7f800000 | mant<<13)
		case exp == 0:
			if mant == 0 {
				decodeLUT[i] = math.Float32frombits(sign) // signed zero
				continue
			}
			// Subnormal half: normalize into a float32 normal.
			e := uint32(127 - 15 + 1)
			for mant&0x400 == 0 {
				mant <<= 1
				e--
			}
			mant &= 0x3ff
			decodeLUT[i] = math.Float32frombits(sign | e<<23 | mant<<13)
		default:
			decodeLUT[i] = math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
		}
	}
}

// FromFloat32 converts a float32 to its nearest binary16 bit pattern using
// round-to-nearest-even. Values beyond ±65504 (after rounding) become ±Inf.
func FromFloat32(f float32) uint16 {
	b := math.Float32bits(f)
	if b&0x7fffffff > 0x7f800000 {
		// NaN: preserve a quiet NaN; keep the top mantissa bits so payload
		// information survives a round trip when possible.
		nanMant := uint16(b>>13) & 0x3ff
		if nanMant == 0 {
			nanMant = 1
		}
		return uint16(b>>16)&0x8000 | 0x7c00 | nanMant
	}
	e := (b >> 23) & 0xff
	m := b&0x7fffff | encImplied[e]
	s := encShift[e]
	return uint16(b>>16)&0x8000 | (encBase[e] + uint16((m+encRound[e]+(m>>s)&1)>>s))
}

// AppendBytes appends the little-endian binary16 encoding of src to dst,
// as the LP_QT column codec stores it.
func AppendBytes(dst []byte, src []float32) []byte {
	if need := 2 * len(src); cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	for _, f := range src {
		h := FromFloat32(f)
		dst = append(dst, byte(h), byte(h>>8))
	}
	return dst
}

// DecodeBytes appends n float32s decoded from little-endian binary16 data
// to dst. The caller guarantees len(data) >= 2*n.
func DecodeBytes(dst []float32, data []byte, n int) []float32 {
	dst = growF32(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, decodeLUT[uint16(data[2*i])|uint16(data[2*i+1])<<8])
	}
	return dst
}

func growF32(dst []float32, n int) []float32 {
	if cap(dst)-len(dst) < n {
		dst = append(make([]float32, 0, len(dst)+n), dst...)
	}
	return dst
}
