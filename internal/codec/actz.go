package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

func init() { Register(actzCodec{}) }

// actzCodec is the activation-tuned codec. The partition image is split
// into 128 KiB blocks; each block independently picks the cheapest of
// raw / LZ / Huffman / LZ+Huffman, optionally behind a stride-2 byte
// shuffle, and a one-byte mode header records the choice so decode does
// only the work encode paid for:
//
//   - f16/LP pages interleave low (near-uniform mantissa) and high
//     (concentrated sign+exponent) bytes; the shuffle separates the two
//     populations so the entropy stage sees each alone.
//   - THRESHOLD bitmaps are almost entirely zero bytes with isolated set
//     bits; the sparse coder stores only (gap, literal) pairs for the
//     nonzero bytes, then entropy-codes the pairs — the byte-aligned LZ
//     cannot touch deflate here, but gap coding can.
//   - KBIT quantile bins are near-equiprobable by construction (the bins
//     are built to hold equal mass), so nothing helps; the raw mode costs
//     one branch and a copy.
//
// Block layout, repeated:
//
//	byte     mode       low 3 bits: 0 raw, 1 huff, 2 lz, 3 lz+huff,
//	                    4 sparse, 5 sparse+huff; bit 3: stride-2 shuffle
//	                    applied before coding (raw and sparse never carry
//	                    it)
//	uvarint  rawLen     decoded block length (<= actzMaxBlock)
//	uvarint  encLen     payload length (<= rawLen; == rawLen for raw)
//	encLen B payload
const (
	actzMaxBlock = 1 << 17

	amRaw        = 0
	amHuff       = 1
	amLZ         = 2
	amLZHuff     = 3
	amSparse     = 4
	amSparseHuff = 5
	amCoder      = 7 // mask for the coder bits
	amShuffle    = 8
)

var errActzCorrupt = errors.New("codec: corrupt actz stream")

// actzScratchPool holds block-sized work buffers shared by the shuffle,
// LZ, and Huffman stages.
var actzScratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, actzMaxBlock+actzMaxBlock/8+64)
	return &b
}}

func grabActzScratch() *[]byte     { return actzScratchPool.Get().(*[]byte) }
func releaseActzScratch(b *[]byte) { actzScratchPool.Put(b) }

type actzCodec struct{}

func (actzCodec) Name() string { return "actz" }
func (actzCodec) ID() byte     { return IDActz }

func (actzCodec) Compress(dst, src []byte, _ int) ([]byte, error) {
	for len(src) > 0 {
		blk := src
		if len(blk) > actzMaxBlock {
			blk = blk[:actzMaxBlock]
		}
		src = src[len(blk):]
		dst = actzCompressBlock(dst, blk)
	}
	return dst, nil
}

func actzCompressBlock(dst, blk []byte) []byte {
	if len(blk) < 64 {
		return actzEmit(dst, amRaw, blk, len(blk))
	}
	// Sparse candidate first: one word-skipping count decides, and a clear
	// win (THRESHOLD bitmaps) skips the much costlier shuffle/LZ/Huffman
	// attempts entirely.
	spFinal, spMode := []byte(nil), -1
	spBuf := grabActzScratch()
	defer releaseActzScratch(spBuf)
	if sp, ok := sparseCompress((*spBuf)[:0], blk); ok {
		spFinal, spMode = sp, amSparse
		shBuf := grabActzScratch()
		defer releaseActzScratch(shBuf)
		if h, ok := huffCompress((*shBuf)[:0], sp); ok && len(h) < len(sp) {
			spFinal, spMode = h, amSparseHuff
		}
		if len(spFinal)*8 < len(blk) {
			return actzEmit(dst, spMode, spFinal, len(blk))
		}
	}
	shuf, compressible := analyzeBlock(blk)
	if !compressible {
		// Near-uniform block: LZ and Huffman cannot clear the
		// minimum-gain bar, so don't pay for the attempts. The sparse
		// candidate (if any) still competes against that same bar.
		if spMode >= 0 && len(spFinal) < len(blk)-len(blk)/32 {
			return actzEmit(dst, spMode, spFinal, len(blk))
		}
		return actzEmit(dst, amRaw, blk, len(blk))
	}
	mode := amRaw
	input := blk
	var shufBuf *[]byte
	if shuf {
		shufBuf = grabActzScratch()
		defer releaseActzScratch(shufBuf)
		input = shuffle2((*shufBuf)[:0], blk)
		mode = amShuffle
	}
	// Stage 1: LZ over the (possibly shuffled) block.
	lzBuf := grabActzScratch()
	defer releaseActzScratch(lzBuf)
	pre, preMode := input, mode
	if lz, ok := lzCompress((*lzBuf)[:0], input); ok {
		pre, preMode = lz, mode|amLZ
	}
	// Stage 2: order-0 entropy over whatever stage 1 produced.
	hBuf := grabActzScratch()
	defer releaseActzScratch(hBuf)
	final, finalMode := pre, preMode
	if h, ok := huffCompress((*hBuf)[:0], pre); ok && len(h) < len(pre) {
		final, finalMode = h, preMode|amHuff
	}
	if spMode >= 0 && len(spFinal) < len(final) {
		final, finalMode = spFinal, spMode
	}
	// Nothing won by at least ~3%: store the original bytes so decode is a
	// straight copy. The bar matters as much as the comparison — a KBIT
	// block whose entropy coding shaves 1% would cost a 10x slower decode
	// for nothing. (A "raw but shuffled" block would be the same size for
	// extra work, so the encoder never emits one and the decoder rejects
	// it — same for sparse+shuffle.)
	if len(final) >= len(blk)-len(blk)/32 {
		return actzEmit(dst, amRaw, blk, len(blk))
	}
	return actzEmit(dst, finalMode, final, len(blk))
}

// sparseCompress appends the gap-coded form of src to dst, or returns
// dst unchanged with ok=false when src is not zero-dominated enough to
// win. Layout: uvarint(count of nonzero bytes), then per nonzero byte a
// uvarint gap (zero bytes skipped since the previous literal) followed by
// the literal itself; trailing zeros are implied by the block's rawLen.
// On ok the output is strictly shorter than src, which lets the decoder
// use rawLen to bound the entropy stage of a sparse+huff block.
func sparseCompress(dst, src []byte) ([]byte, bool) {
	if len(src) < 64 {
		return dst, false
	}
	nz := countNonzero(src)
	// Each nonzero byte costs >= 2 output bytes; bail unless zeros
	// dominate enough that even the worst case is a clear win.
	if nz*3 > len(src) {
		return dst, false
	}
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(nz))
	i, prev := 0, 0
	for i < len(src) {
		if src[i] == 0 {
			// Zero runs dominate by construction: skip them a word at a
			// time (this loop IS the encoder's cost on a bitmap block).
			for i+8 <= len(src) && load64(src, i) == 0 {
				i += 8
			}
			for i < len(src) && src[i] == 0 {
				i++
			}
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(i-prev))
		dst = append(dst, src[i])
		i++
		prev = i
	}
	if len(dst)-start >= len(src) {
		return dst[:start], false
	}
	return dst, true
}

// countNonzero counts nonzero bytes, skipping zero words eight at a time.
func countNonzero(b []byte) int {
	n, i := 0, 0
	for ; i+8 <= len(b); i += 8 {
		if load64(b, i) == 0 {
			continue
		}
		for j := i; j < i+8; j++ {
			if b[j] != 0 {
				n++
			}
		}
	}
	for ; i < len(b); i++ {
		if b[i] != 0 {
			n++
		}
	}
	return n
}

// sparseDecompress inverts sparseCompress, appending exactly rawLen bytes
// to dst or erroring on any inconsistency (bad varints, overrun, trailing
// garbage).
func sparseDecompress(dst, src []byte, rawLen int) ([]byte, error) {
	nz64, k := binary.Uvarint(src)
	if k <= 0 || nz64 > uint64(rawLen) {
		return dst, fmt.Errorf("%w: sparse count", errActzCorrupt)
	}
	src = src[k:]
	base := len(dst)
	for i := uint64(0); i < nz64; i++ {
		gap, k := binary.Uvarint(src)
		if k <= 0 || len(src) < k+1 {
			return dst, fmt.Errorf("%w: sparse gap", errActzCorrupt)
		}
		lit := src[k]
		src = src[k+1:]
		if lit == 0 || uint64(len(dst)-base)+gap+1 > uint64(rawLen) {
			return dst, fmt.Errorf("%w: sparse overrun", errActzCorrupt)
		}
		dst = appendZeros(dst, int(gap))
		dst = append(dst, lit)
	}
	if len(src) != 0 {
		return dst, fmt.Errorf("%w: sparse trailing bytes", errActzCorrupt)
	}
	return appendZeros(dst, rawLen-(len(dst)-base)), nil
}

// zeroChunk feeds appendZeros: bulk-appending beats byte-at-a-time by the
// width of a memmove.
var zeroChunk [4096]byte

func appendZeros(dst []byte, n int) []byte {
	for n > len(zeroChunk) {
		dst = append(dst, zeroChunk[:]...)
		n -= len(zeroChunk)
	}
	return append(dst, zeroChunk[:n]...)
}

func actzEmit(dst []byte, mode int, payload []byte, rawLen int) []byte {
	dst = append(dst, byte(mode))
	dst = binary.AppendUvarint(dst, uint64(rawLen))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// actzBlock is one parsed container frame: everything the decode stage
// needs to reproduce the block independently of its neighbours.
type actzBlock struct {
	coder    int
	shuffled bool
	payload  []byte
	rawLen   int
}

// actzScanBlocks walks the frame headers (strictly sequential — frames
// are back to back) and returns the block table, rejecting every malformed
// header before any block is decoded.
func actzScanBlocks(src []byte) ([]actzBlock, error) {
	blocks := make([]actzBlock, 0, (len(src)+actzMaxBlock-1)/actzMaxBlock)
	for len(src) > 0 {
		mode := int(src[0])
		src = src[1:]
		coder := mode & amCoder
		switch {
		case mode&^(amCoder|amShuffle) != 0,
			coder > amSparseHuff,
			coder == amRaw && mode&amShuffle != 0,
			coder&amSparse != 0 && mode&amShuffle != 0:
			return nil, fmt.Errorf("%w: mode byte %#x", errActzCorrupt, mode)
		}
		rawLen64, k := binary.Uvarint(src)
		if k <= 0 || rawLen64 == 0 || rawLen64 > actzMaxBlock {
			return nil, fmt.Errorf("%w: bad raw length", errActzCorrupt)
		}
		src = src[k:]
		rawLen := int(rawLen64)
		encLen64, k := binary.Uvarint(src)
		if k <= 0 || encLen64 > uint64(rawLen) || encLen64 > uint64(len(src)-k) {
			return nil, fmt.Errorf("%w: bad payload length", errActzCorrupt)
		}
		src = src[k:]
		blocks = append(blocks, actzBlock{
			coder: coder, shuffled: mode&amShuffle != 0,
			payload: src[:encLen64], rawLen: rawLen,
		})
		src = src[encLen64:]
	}
	return blocks, nil
}

func (actzCodec) Decompress(dst, src []byte) ([]byte, error) {
	blocks, err := actzScanBlocks(src)
	if err != nil {
		return dst, err
	}
	for _, b := range blocks {
		if dst, err = actzDecodeBlock(dst, b.coder, b.shuffled, b.payload, b.rawLen); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func actzDecodeBlock(dst []byte, coder int, shuffled bool, payload []byte, rawLen int) ([]byte, error) {
	if coder == amRaw {
		if len(payload) != rawLen {
			return dst, fmt.Errorf("%w: raw block length mismatch", errActzCorrupt)
		}
		return append(dst, payload...), nil
	}
	if coder&amSparse != 0 {
		stream := payload
		var hBuf *[]byte
		if coder&amHuff != 0 {
			// sparseCompress guarantees its output is shorter than rawLen,
			// so rawLen bounds the entropy stage here too.
			hBuf = grabActzScratch()
			defer releaseActzScratch(hBuf)
			out, err := huffDecompress((*hBuf)[:0], stream, rawLen)
			if err != nil {
				return dst, err
			}
			*hBuf = out
			stream = out
		}
		return sparseDecompress(dst, stream, rawLen)
	}
	// Huffman first (it is the outermost stage), then LZ, then unshuffle.
	// Intermediate results land in pooled scratch unless they are the
	// final bytes, which decode straight into dst.
	var hBuf, lzBuf *[]byte
	defer func() {
		if hBuf != nil {
			releaseActzScratch(hBuf)
		}
		if lzBuf != nil {
			releaseActzScratch(lzBuf)
		}
	}()
	stream := payload
	if coder&amHuff != 0 {
		// The LZ encoder guarantees its output is shorter than rawLen, so
		// rawLen bounds the huffman stage in both layouts.
		if coder&amLZ != 0 || shuffled {
			hBuf = grabActzScratch()
			out, err := huffDecompress((*hBuf)[:0], stream, rawLen)
			if err != nil {
				return dst, err
			}
			*hBuf = out
			stream = out
		} else {
			out, err := huffDecompress(dst, stream, rawLen)
			if err != nil {
				return dst, err
			}
			if len(out)-len(dst) != rawLen {
				return dst, fmt.Errorf("%w: huffman block length mismatch", errActzCorrupt)
			}
			return out, nil
		}
	}
	if coder&amLZ != 0 {
		if shuffled {
			lzBuf = grabActzScratch()
			out, err := lzDecompress((*lzBuf)[:0], stream, rawLen)
			if err != nil {
				return dst, err
			}
			if len(out) != rawLen {
				return dst, fmt.Errorf("%w: lz block length mismatch", errActzCorrupt)
			}
			*lzBuf = out
			stream = out
		} else {
			out, err := lzDecompress(dst, stream, rawLen)
			if err != nil {
				return dst, err
			}
			if len(out)-len(dst) != rawLen {
				return dst, fmt.Errorf("%w: lz block length mismatch", errActzCorrupt)
			}
			return out, nil
		}
	} else if len(stream) != rawLen {
		// huff-only + shuffle: the decoded stream is the shuffled block.
		return dst, fmt.Errorf("%w: huffman block length mismatch", errActzCorrupt)
	}
	return unshuffle2(dst, stream), nil
}

// analyzeBlock samples the block's even- and odd-offset byte histograms
// once and answers two questions. First, whether a stride-2 shuffle
// would lower entropy enough to matter — the signature of interleaved
// f16 lo/hi bytes; symbol streams (KBIT, THRESHOLD) have
// parity-independent statistics and skip it. Second, whether the block
// looks compressible at all: order-0 entropy is invariant under the
// shuffle (a permutation), so one sampled histogram bounds what Huffman
// can achieve on either layout, and the split entropies bound what the
// shuffle can expose to LZ. Near-uniform blocks — real KBIT bin streams
// — fail the probe and skip the LZ+Huffman attempts entirely, keeping
// the encoder at memcpy speed where coding could only shave ~1%. The
// probe cannot see long-range repetition of high-entropy material, but
// zero runs — the dominant repetition in activation stores — are
// handled by the sparse coder before this point.
func analyzeBlock(b []byte) (shuffle, compressible bool) {
	if len(b) < 2048 {
		return false, true
	}
	stride := len(b) / 4096
	stride &^= 1 // keep parity while sampling
	stride = max(stride, 2)
	var even, odd [256]int
	n := 0
	for i := 0; i+1 < len(b); i += stride {
		even[b[i]]++
		odd[b[i+1]]++
		n++
	}
	var all [256]int
	for i := range all {
		all[i] = even[i] + odd[i]
	}
	he := entropyBits(&even, n)
	ho := entropyBits(&odd, n)
	ha := entropyBits(&all, 2*n)
	shuffle = he+ho < 2*ha-0.30
	best := ha
	if s := (he + ho) / 2; s < best {
		best = s
	}
	// Below ~5.5% of order-0 headroom, Huffman's table overhead and
	// 12-bit cap leave nothing over the encoder's 3% minimum-gain bar.
	compressible = best < 7.55
	return shuffle, compressible
}

// entropyBits is the order-0 entropy of the histogram, in bits/byte.
func entropyBits(hist *[256]int, total int) float64 {
	if total == 0 {
		return 0
	}
	h := 0.0
	ft := float64(total)
	for _, c := range hist {
		if c > 0 {
			p := float64(c) / ft
			h -= p * math.Log2(p)
		}
	}
	return h
}

// shuffle2 appends src with even offsets first, then odd offsets: the
// byte-transpose of a [n/2][2]byte matrix. An odd trailing byte belongs
// to the even half.
func shuffle2(dst, src []byte) []byte {
	for i := 0; i < len(src); i += 2 {
		dst = append(dst, src[i])
	}
	for i := 1; i < len(src); i += 2 {
		dst = append(dst, src[i])
	}
	return dst
}

// unshuffle2 inverts shuffle2.
func unshuffle2(dst, src []byte) []byte {
	nEven := (len(src) + 1) / 2
	even, odd := src[:nEven], src[nEven:]
	for i := 0; i < len(odd); i++ {
		dst = append(dst, even[i], odd[i])
	}
	if len(even) > len(odd) {
		dst = append(dst, even[len(even)-1])
	}
	return dst
}
