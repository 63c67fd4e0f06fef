package codec

import (
	"encoding/binary"
	"errors"
	"sort"
	"sync"
)

// Order-0 canonical Huffman coder in the huff0 spirit: code lengths are
// capped at 12 bits so decode is a single 4096-entry table lookup per
// symbol, the table is shipped as 128 bytes of packed nibbles, and the
// bitstream is written LSB-first so encode and decode are shift/or loops
// with no per-bit branches.
//
// Stream layout:
//
//	uvarint  origLen            number of symbols encoded
//	128 B    code lengths       one nibble per symbol, symbol 0 low nibble
//	...      bitstream          canonical codes, bit-reversed, LSB-first
const (
	huffMaxBits    = 12
	huffTableBytes = 128
)

var errHuffCorrupt = errors.New("codec: corrupt huffman stream")

// huffScratch carries the per-call tables so concurrent encoders and
// decoders do not contend on shared arrays.
type huffScratch struct {
	freq [256]int
	lens [256]uint8
	code [256]uint16 // bit-reversed canonical code
	lut  [1 << huffMaxBits]uint16
}

var huffScratchPool = sync.Pool{New: func() any { return new(huffScratch) }}

// huffCompress appends the entropy-coded form of src to dst, or returns
// dst unchanged with ok=false when the coded form would not be smaller
// (single-symbol degenerate streams still encode: they shrink to ~n/8).
func huffCompress(dst, src []byte) ([]byte, bool) {
	if len(src) == 0 {
		return dst, false
	}
	hs := huffScratchPool.Get().(*huffScratch)
	defer huffScratchPool.Put(hs)
	for i := range hs.freq {
		hs.freq[i] = 0
	}
	for _, b := range src {
		hs.freq[b]++
	}
	if !buildLengths(&hs.freq, &hs.lens) {
		return dst, false
	}
	// Predicted size: ceil(sum freq*len / 8) + header. Bail before paying
	// for the bit loop when entropy coding cannot win.
	bits := 0
	for s, f := range hs.freq {
		bits += f * int(hs.lens[s])
	}
	coded := (bits+7)/8 + huffTableBytes + binary.MaxVarintLen32
	if coded >= len(src) {
		return dst, false
	}
	assignCodes(&hs.lens, &hs.code)

	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	for i := 0; i < huffTableBytes; i++ {
		dst = append(dst, hs.lens[2*i]|hs.lens[2*i+1]<<4)
	}
	var acc uint64
	var nbits uint
	for _, b := range src {
		acc |= uint64(hs.code[b]) << nbits
		nbits += uint(hs.lens[b])
		for nbits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(acc))
	}
	if len(dst)-start >= len(src) {
		return dst[:start], false
	}
	return dst, true
}

// buildLengths computes length-limited (<=12 bit) Huffman code lengths
// for freq into lens. Returns false when only impractical streams remain
// (it never fails for real input; the loop below always converges because
// halving frequencies flattens the distribution toward uniform, whose
// tree depth is 8).
func buildLengths(freq *[256]int, lens *[256]uint8) bool {
	for {
		if !huffTreeLengths(freq, lens) {
			return false
		}
		maxLen := uint8(0)
		for _, l := range lens {
			maxLen = max(maxLen, l)
		}
		if maxLen <= huffMaxBits {
			return true
		}
		// Too deep: flatten the distribution and rebuild.
		for i, f := range freq {
			if f > 0 {
				freq[i] = f/2 + 1
			}
		}
	}
}

// huffTreeLengths runs the two-queue Huffman construction and writes each
// symbol's unlimited code length.
func huffTreeLengths(freq *[256]int, lens *[256]uint8) bool {
	type node struct {
		freq   int
		parent int
	}
	// Leaves first (only symbols with freq>0), internals appended after.
	nodes := make([]node, 0, 512)
	order := make([]int, 0, 256) // node index -> symbol, leaves only
	for s, f := range freq {
		if f > 0 {
			nodes = append(nodes, node{freq: f, parent: -1})
			order = append(order, s)
		}
	}
	nLeaves := len(nodes)
	if nLeaves == 0 {
		return false
	}
	for i := range lens {
		lens[i] = 0
	}
	if nLeaves == 1 {
		lens[order[0]] = 1
		return true
	}
	leafIdx := make([]int, nLeaves)
	for i := range leafIdx {
		leafIdx[i] = i
	}
	sort.Slice(leafIdx, func(a, b int) bool { return nodes[leafIdx[a]].freq < nodes[leafIdx[b]].freq })
	// Two monotone queues: sorted leaves and internal nodes in creation
	// order (their frequencies are non-decreasing).
	li, ii := 0, nLeaves
	pick := func() int {
		if li < nLeaves && (ii >= len(nodes) || nodes[leafIdx[li]].freq <= nodes[ii].freq) {
			li++
			return leafIdx[li-1]
		}
		ii++
		return ii - 1
	}
	for m := 0; m < nLeaves-1; m++ {
		a := pick()
		b := pick()
		nodes = append(nodes, node{freq: nodes[a].freq + nodes[b].freq, parent: -1})
		nodes[a].parent = len(nodes) - 1
		nodes[b].parent = len(nodes) - 1
	}
	for i := 0; i < nLeaves; i++ {
		depth := uint8(0)
		for p := nodes[i].parent; p >= 0; p = nodes[p].parent {
			depth++
		}
		lens[order[i]] = depth
	}
	return true
}

// assignCodes derives canonical codes from lengths and stores them
// bit-reversed for LSB-first emission.
func assignCodes(lens *[256]uint8, code *[256]uint16) {
	var blCount [huffMaxBits + 1]int
	for _, l := range lens {
		blCount[l]++
	}
	var next [huffMaxBits + 1]uint16
	c := uint16(0)
	blCount[0] = 0
	for b := 1; b <= huffMaxBits; b++ {
		c = (c + uint16(blCount[b-1])) << 1
		next[b] = c
	}
	for s := 0; s < 256; s++ {
		l := lens[s]
		if l == 0 {
			continue
		}
		code[s] = reverseBits(next[l], l)
		next[l]++
	}
}

func reverseBits(v uint16, n uint8) uint16 {
	var r uint16
	for i := uint8(0); i < n; i++ {
		r = r<<1 | v&1
		v >>= 1
	}
	return r
}

// huffDecompress appends the decoded symbols to dst. maxOut bounds the
// decoded length so corrupt headers cannot force huge allocations.
func huffDecompress(dst, src []byte, maxOut int) ([]byte, error) {
	origLen, n := binary.Uvarint(src)
	if n <= 0 || origLen > uint64(maxOut) {
		return dst, errHuffCorrupt
	}
	src = src[n:]
	if len(src) < huffTableBytes {
		return dst, errHuffCorrupt
	}
	hs := huffScratchPool.Get().(*huffScratch)
	defer huffScratchPool.Put(hs)
	nSyms := 0
	kraft := 0
	for i := 0; i < huffTableBytes; i++ {
		b := src[i]
		hs.lens[2*i] = b & 0x0f
		hs.lens[2*i+1] = b >> 4
		for _, l := range [2]uint8{b & 0x0f, b >> 4} {
			// A nibble can name lengths 13..15, which the cap forbids;
			// without this check 12-l underflows, the length escapes the
			// Kraft sum, and assignCodes indexes past its arrays.
			if l > huffMaxBits {
				return dst, errHuffCorrupt
			}
			if l > 0 {
				nSyms++
				kraft += 1 << (huffMaxBits - l)
			}
		}
	}
	src = src[huffTableBytes:]
	// Kraft equality rejects tables that are under- or over-subscribed;
	// the single-symbol tree (one length-1 code) is the one legal
	// incomplete shape.
	switch {
	case nSyms == 0:
		return dst, errHuffCorrupt
	case nSyms == 1:
		if kraft != 1<<(huffMaxBits-1) {
			return dst, errHuffCorrupt
		}
	case kraft != 1<<huffMaxBits:
		return dst, errHuffCorrupt
	}
	assignCodes(&hs.lens, &hs.code)
	for i := range hs.lut {
		hs.lut[i] = 0
	}
	for s := 0; s < 256; s++ {
		l := hs.lens[s]
		if l == 0 {
			continue
		}
		entry := uint16(s) | uint16(l)<<8
		for idx := int(hs.code[s]); idx < len(hs.lut); idx += 1 << l {
			hs.lut[idx] = entry
		}
	}
	var acc uint64
	var nbits uint
	pos := 0
	totalBits := 8 * len(src)
	used := 0
	for i := uint64(0); i < origLen; i++ {
		for nbits < huffMaxBits && pos < len(src) {
			acc |= uint64(src[pos]) << nbits
			pos++
			nbits += 8
		}
		e := hs.lut[acc&(1<<huffMaxBits-1)]
		l := uint(e >> 8)
		if l == 0 {
			return dst, errHuffCorrupt
		}
		used += int(l)
		if used > totalBits {
			return dst, errHuffCorrupt
		}
		acc >>= l
		nbits -= l
		dst = append(dst, byte(e))
	}
	return dst, nil
}
