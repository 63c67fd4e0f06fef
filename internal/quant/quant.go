// Package quant implements the activation quantization and summarization
// schemes of MISTIQUE (Sec. 4.1):
//
//   - LP_QT: lower-precision float16 representation (2 bytes/value),
//   - KBIT_QT: k-bit quantile binning with a reconstruction table
//     (k=8 by default: 256 quantile bins, 1 byte/value before packing),
//   - THRESHOLD_QT: binarization against a percentile threshold
//     (1 bit/value), as used by NetDissect-style analyses,
//   - POOL_QT: sigma x sigma average/max pooling of activation maps,
//     reducing the number of stored values by sigma^2.
//
// LP/KBIT/THRESHOLD are value codecs: they encode a float32 column into
// bytes and decode ("reconstruct") it back, trading fidelity for footprint.
// POOL is a summarizer: it shrinks the intermediate itself before the
// column store ever sees it.
package quant

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"mistique/internal/durable"
	"mistique/internal/f16"
	"mistique/internal/tensor"
)

// Kind identifies a value codec.
type Kind uint8

const (
	// Full stores raw float32 values (4 bytes/value).
	Full Kind = iota
	// LP stores float16 values (2 bytes/value).
	LP
	// KBit stores quantile-bin indices (Bits bits/value, bit-packed).
	KBit
	// Threshold stores a 1-bit indicator of "activation above threshold".
	Threshold
)

func (k Kind) String() string {
	switch k {
	case Full:
		return "FULL"
	case LP:
		return "LP_QT"
	case KBit:
		return "KBIT_QT"
	case Threshold:
		return "THRESHOLD_QT"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Quantizer encodes float32 columns under one of the codecs. The zero value
// is the Full codec. KBit and Threshold quantizers must be fitted to a
// sample of the activation distribution before use (the paper collects
// samples first, then quantizes; see Sec. 4.1.1).
type Quantizer struct {
	Kind Kind
	// Bits is the number of bits per value for KBit (1..16).
	Bits int
	// boundaries has 2^Bits-1 interior quantile cut points (ascending).
	boundaries []float32
	// reps has 2^Bits reconstruction values (bin representatives).
	reps []float32
	// Thresh is the binarization threshold for Threshold.
	Thresh float32
}

// NewFull returns the identity (float32) codec.
func NewFull() *Quantizer { return &Quantizer{Kind: Full} }

// NewLP returns the float16 codec.
func NewLP() *Quantizer { return &Quantizer{Kind: LP} }

// FitKBit builds a KBit quantizer with 2^bits quantile bins estimated from
// samples. Samples need not be sorted; NaNs are ignored. At least one
// finite sample is required.
func FitKBit(samples []float32, bits int) (*Quantizer, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("quant: bits must be in [1,16], got %d", bits)
	}
	if len(samples) > sketchThreshold {
		// Huge calibration streams: bounded-memory epsilon-approximate
		// quantiles instead of a full sort.
		return fitKBitSketch(samples, bits)
	}
	s := finiteSorted(samples)
	if len(s) == 0 {
		return nil, errors.New("quant: FitKBit needs at least one finite sample")
	}
	n := 1 << bits
	q := &Quantizer{Kind: KBit, Bits: bits}
	q.boundaries = make([]float32, n-1)
	for i := 1; i < n; i++ {
		q.boundaries[i-1] = quantile(s, float64(i)/float64(n))
	}
	q.reps = make([]float32, n)
	for i := 0; i < n; i++ {
		q.reps[i] = quantile(s, (float64(i)+0.5)/float64(n))
	}
	return q, nil
}

// FitThreshold builds a Threshold quantizer whose cut point is the given
// upper-tail percentile of samples: p(act > T) = alpha means
// percentile = 1-alpha (NetDissect uses alpha=0.005, percentile 0.995).
func FitThreshold(samples []float32, percentile float64) (*Quantizer, error) {
	if percentile <= 0 || percentile >= 1 {
		return nil, fmt.Errorf("quant: percentile must be in (0,1), got %g", percentile)
	}
	s := finiteSorted(samples)
	if len(s) == 0 {
		return nil, errors.New("quant: FitThreshold needs at least one finite sample")
	}
	return &Quantizer{Kind: Threshold, Thresh: quantile(s, percentile)}, nil
}

func finiteSorted(samples []float32) []float32 {
	s := make([]float32, 0, len(samples))
	for _, v := range samples {
		if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
			s = append(s, v)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the p-quantile of ascending-sorted s by linear
// interpolation.
func quantile(s []float32, p float64) float32 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= len(s) {
		hi = len(s) - 1
	}
	frac := float32(pos - float64(lo))
	return s[lo] + frac*(s[hi]-s[lo])
}

// BitsPerValue returns the encoded width of one value in bits.
func (q *Quantizer) BitsPerValue() int {
	switch q.Kind {
	case Full:
		return 32
	case LP:
		return 16
	case KBit:
		return q.Bits
	case Threshold:
		return 1
	}
	panic("quant: unknown kind")
}

// Encode appends the encoded form of vals to dst and returns it. dst is
// grown once to the exact encoded size up front, so encoding into a fresh
// (or pooled) buffer costs at most one allocation regardless of length.
func (q *Quantizer) Encode(dst []byte, vals []float32) []byte {
	if need := q.EncodedLen(len(vals)); cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	switch q.Kind {
	case Full:
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
		return dst
	case LP:
		return f16.AppendBytes(dst, vals)
	case KBit:
		return q.encodeBits(dst, vals)
	case Threshold:
		return q.encodeThreshold(dst, vals)
	}
	panic("quant: unknown kind")
}

func (q *Quantizer) bin(v float32) uint32 {
	// Binary search for the first boundary > v; the bin index is the count
	// of boundaries <= v.
	lo, hi := 0, len(q.boundaries)
	for lo < hi {
		mid := (lo + hi) / 2
		if q.boundaries[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint32(lo)
}

func (q *Quantizer) encodeBits(dst []byte, vals []float32) []byte {
	var acc uint64
	nbits := 0
	for _, v := range vals {
		acc |= uint64(q.bin(v)) << nbits
		nbits += q.Bits
		for nbits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

func (q *Quantizer) encodeThreshold(dst []byte, vals []float32) []byte {
	var acc byte
	nbits := 0
	for _, v := range vals {
		if v > q.Thresh {
			acc |= 1 << nbits
		}
		nbits++
		if nbits == 8 {
			dst = append(dst, acc)
			acc, nbits = 0, 0
		}
	}
	if nbits > 0 {
		dst = append(dst, acc)
	}
	return dst
}

// EncodedLen returns the number of bytes Encode produces for n values.
func (q *Quantizer) EncodedLen(n int) int {
	return (n*q.BitsPerValue() + 7) / 8
}

// Decode reconstructs n float32 values from data, appending to dst. For
// KBit the reconstruction is the bin representative (a quantile midpoint);
// for Threshold it is 0 or 1. This is the "reconstruction cost" the paper's
// cost model folds into the read constant.
func (q *Quantizer) Decode(dst []float32, data []byte, n int) ([]float32, error) {
	if want := q.EncodedLen(n); len(data) < want {
		return nil, fmt.Errorf("quant: decode needs %d bytes for %d values, have %d", want, n, len(data))
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]float32, 0, len(dst)+n), dst...)
	}
	switch q.Kind {
	case Full:
		for i := 0; i < n; i++ {
			dst = append(dst, math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:])))
		}
		return dst, nil
	case LP:
		return f16.DecodeBytes(dst, data, n), nil
	case KBit:
		var acc uint64
		nbits := 0
		pos := 0
		mask := uint64(1)<<q.Bits - 1
		for i := 0; i < n; i++ {
			for nbits < q.Bits {
				acc |= uint64(data[pos]) << nbits
				pos++
				nbits += 8
			}
			dst = append(dst, q.reps[acc&mask])
			acc >>= q.Bits
			nbits -= q.Bits
		}
		return dst, nil
	case Threshold:
		for i := 0; i < n; i++ {
			if data[i/8]&(1<<(i%8)) != 0 {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
		return dst, nil
	}
	panic("quant: unknown kind")
}

// Apply returns the reconstructed version of vals (Encode then Decode),
// i.e. the values a diagnostic query observes after quantization.
func (q *Quantizer) Apply(vals []float32) []float32 {
	if q.Kind == Full {
		return vals
	}
	enc := q.Encode(nil, vals)
	out, err := q.Decode(make([]float32, 0, len(vals)), enc, len(vals))
	if err != nil {
		panic(err) // cannot happen: we just produced enc
	}
	return out
}

// MarshalBinary serializes the quantizer (kind, bits, tables, threshold).
func (q *Quantizer) MarshalBinary() ([]byte, error) {
	return q.AppendBinary(make([]byte, 0, q.MarshaledSize())), nil
}

// MarshaledSize returns len of the MarshalBinary encoding without
// allocating, so serializers can size a destination buffer exactly.
func (q *Quantizer) MarshaledSize() int {
	return 14 + 4*(len(q.boundaries)+len(q.reps))
}

// AppendBinary appends the MarshalBinary encoding to dst and returns it —
// the allocation-free form used when serializing into a pooled buffer.
func (q *Quantizer) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(q.Kind), byte(q.Bits))
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(q.Thresh))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(q.boundaries)))
	for _, b := range q.boundaries {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(b))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(q.reps)))
	for _, r := range q.reps {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(r))
	}
	return dst
}

// UnmarshalBinary deserializes a quantizer produced by MarshalBinary.
// Malformed bytes return an error wrapping durable.ErrCorrupt.
func (q *Quantizer) UnmarshalBinary(data []byte) error {
	r := durable.NewReader(data)
	q.Kind = Kind(r.U8())
	q.Bits = int(r.U8())
	q.Thresh = r.F32()
	q.boundaries = r.Floats(int(r.U32()))
	q.reps = r.Floats(int(r.U32()))
	if err := r.Err(); err != nil {
		return fmt.Errorf("quant: %w", err)
	}
	// A quantizer deserialized from untrusted bytes (a corrupt partition
	// file) must be safe to Decode with: reject shapes that would make
	// Decode index outside its tables or compute degenerate bit masks.
	switch q.Kind {
	case Full, LP, Threshold:
	case KBit:
		if q.Bits < 1 || q.Bits > 16 {
			return fmt.Errorf("quant: %w: kbit bits %d out of range", durable.ErrCorrupt, q.Bits)
		}
		if len(q.reps) != 1<<q.Bits {
			return fmt.Errorf("quant: %w: kbit needs %d reps, have %d", durable.ErrCorrupt, 1<<q.Bits, len(q.reps))
		}
	default:
		return fmt.Errorf("quant: %w: unknown kind %d", durable.ErrCorrupt, q.Kind)
	}
	return nil
}

// Agg selects the pooling aggregation.
type Agg uint8

const (
	// Avg averages each pooling window (the paper's default).
	Avg Agg = iota
	// Max takes the maximum of each window.
	Max
)

// Pool applies sigma x sigma pooling with the given aggregation to every
// (example, channel) plane of x, producing a tensor with ceil(H/sigma) x
// ceil(W/sigma) spatial maps. sigma >= H collapses each map to one value
// (the paper's pool(S) extreme, e.g. pool(32) on CIFAR10).
func Pool(x *tensor.T4, sigma int, agg Agg) *tensor.T4 {
	if sigma < 1 {
		panic("quant: pool sigma must be >= 1")
	}
	oh := (x.H + sigma - 1) / sigma
	ow := (x.W + sigma - 1) / sigma
	out := tensor.NewT4(x.N, x.C, oh, ow)
	for n := 0; n < x.N; n++ {
		for c := 0; c < x.C; c++ {
			in := x.Plane(n, c)
			dst := out.Plane(n, c)
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					y0, x0 := oy*sigma, ox*sigma
					y1, x1 := y0+sigma, x0+sigma
					if y1 > x.H {
						y1 = x.H
					}
					if x1 > x.W {
						x1 = x.W
					}
					var v float32
					if agg == Max {
						v = float32(math.Inf(-1))
						for yy := y0; yy < y1; yy++ {
							for xx := x0; xx < x1; xx++ {
								if c := in[yy*x.W+xx]; c > v {
									v = c
								}
							}
						}
					} else {
						var sum float32
						for yy := y0; yy < y1; yy++ {
							for xx := x0; xx < x1; xx++ {
								sum += in[yy*x.W+xx]
							}
						}
						v = sum / float32((y1-y0)*(x1-x0))
					}
					dst[oy*ow+ox] = v
				}
			}
		}
	}
	return out
}
