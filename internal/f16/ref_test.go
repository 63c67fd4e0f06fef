package f16

import "math"

// This file retains the original branchy codec as the reference
// implementation the table-driven production codec is differentially tested
// against (TestDecodeLUTExhaustive, TestEncodeBoundaryNeighborhoods,
// FuzzF16Parity). It is compiled into tests only and must never change
// independently of a format decision: it *defines* the codec's semantics.

// toFloat32 converts a binary16 bit pattern to float32 through the
// production decode table.
func toFloat32(h uint16) float32 { return decodeLUT[h] }

// round returns f rounded to the nearest representable float16, as a
// float32: the value a reader of an LP_QT intermediate observes.
func round(f float32) float32 { return toFloat32(FromFloat32(f)) }

// encodeHalves converts src to binary16 bit patterns.
func encodeHalves(src []float32) []uint16 {
	out := make([]uint16, len(src))
	for i, f := range src {
		out[i] = FromFloat32(f)
	}
	return out
}

// encodeRef is the pre-LUT FromFloat32: explicit per-class branches with
// round-to-nearest-even.
func encodeRef(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xff
	mant := b & 0x7fffff

	switch {
	case exp == 0xff: // Inf or NaN
		if mant != 0 {
			nanMant := uint16(mant >> 13)
			if nanMant == 0 {
				nanMant = 1
			}
			return sign | 0x7c00 | nanMant
		}
		return sign | 0x7c00
	case exp == 0 && mant == 0: // signed zero
		return sign
	}

	// Unbias float32 exponent, rebias for float16 (bias 15).
	e := exp - 127 + 15
	if e >= 0x1f {
		return sign | 0x7c00 // overflow to infinity
	}
	if e <= 0 {
		// Subnormal half (or underflow to zero).
		if e < -10 {
			return sign
		}
		m := mant | 0x800000
		shift := uint32(14 - e)
		half := uint32(1) << (shift - 1)
		rounded := m + half - 1 + ((m >> shift) & 1)
		return sign | uint16(rounded>>shift)
	}

	const roundBit = 0x1000
	v := (uint32(e) << 10) | uint32(mant>>13)
	if mant&roundBit != 0 {
		if mant&(roundBit-1) != 0 || v&1 != 0 {
			v++
		}
	}
	return sign | uint16(v)
}

// decodeRef is the pre-LUT binary16 decoder.
func decodeRef(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	mant := uint32(h & 0x3ff)

	switch {
	case exp == 0x1f: // Inf or NaN
		return math.Float32frombits(sign | 0x7f800000 | mant<<13)
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	}
	return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
}
