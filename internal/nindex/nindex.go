// Package nindex implements a neuron-centric diagnostic index in the style
// of DeepEverest's Neural Partition Index: one small secondary index per
// stored column (neuron) that answers TOPK and threshold (FilterRows)
// queries by touching only the segments that can contribute, instead of
// scanning every row.
//
// An Index is a priority-ordered row list: row ids sorted by activation
// under the pinned total order of internal/diag (value descending, NaN
// last, row id ascending on ties), cut into fixed-size segments whose row
// ids are delta-varint encoded and whose max/min are kept beside them — a
// top-k probe decodes only the prefix segments that can hold the first k
// positions, a threshold probe only the segments whose [min, max]
// straddles or clears the bound.
//
// Ordering is the load-bearing invariant: every probe answer is defined by
// diag.RankLess, the same comparator the naive full-scan oracles use, so
// index and scan results are byte-identical — parity is exact, not
// approximate — and the differential harness in nindex/oracletest can
// assert equality across randomized inputs including NaN/±Inf, constant
// columns, duplicates and all-equal ties.
//
// Indexes live in memory only (see Manager): built lazily on first use,
// stamped with the column's physical signature so a stale index is
// detected and rebuilt, never trusted, and rebuilt from the column after
// an eviction or a restart.
package nindex

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"mistique/internal/diag"
)

// Config holds the build-time knobs of one index.
type Config struct {
	// SegmentEntries is the priority-list segment length (default 1024,
	// matching the default RowBlock height): a TOPK(k) probe decodes
	// ceil(k/SegmentEntries) segments.
	SegmentEntries int
}

func (c Config) withDefaults() Config {
	if c.SegmentEntries <= 0 {
		c.SegmentEntries = 1024
	}
	return c
}

// Entry is one (row, value) pair of a probe answer, in rank order.
type Entry struct {
	Row   int
	Value float32
}

// segment is one run of the priority-ordered row list. Row ids are stored
// delta-varint encoded in ascending order; values are stored as raw
// little-endian float32 in the same (row-ascending) order, in a separate
// buffer so a full-match threshold probe can decode rows without values.
// max/min are the first/last values of the run in priority order.
type segment struct {
	count   int
	max     float32
	min     float32
	rowsEnc []byte
	valsEnc []byte
}

// Index is the per-column Neural Partition Index. Immutable once built;
// safe for concurrent probes.
type Index struct {
	sig  uint32
	rows int
	segs []segment
	// nonNaN is the number of leading segments holding non-NaN entries.
	nonNaN int
	bytes  int64
}

// Build constructs the index over one column's values. sig is the column's
// physical signature (see colstore.ColumnSignature) stamped into the index
// for staleness detection.
func Build(values []float32, sig uint32, cfg Config) *Index {
	cfg = cfg.withDefaults()
	n := len(values)
	x := &Index{sig: sig, rows: n}

	// Priority order under the pinned comparator; NaNs land at the tail.
	// The comparator is diag.RankLess, but packed into sortable uint64
	// keys (rankKey) so the build sorts machine words instead of calling
	// a closure ~n·log n times — the build cost is what lazy construction
	// amortizes, so it must stay under a couple of full scans.
	keys := make([]uint64, n)
	for i, v := range values {
		keys[i] = rankKey(v, i)
	}
	slices.Sort(keys)
	order := make([]int, n)
	for i, k := range keys {
		order[i] = int(uint32(k))
	}
	nanStart := n
	for i, r := range order {
		if math.IsNaN(float64(values[r])) {
			nanStart = i
			break
		}
	}

	// The NaN tail gets segments of its own, which match no predicate.
	cut := func(lo, hi int) {
		for s := lo; s < hi; s += cfg.SegmentEntries {
			e := s + cfg.SegmentEntries
			if e > hi {
				e = hi
			}
			x.segs = append(x.segs, buildSegment(values, order[s:e]))
		}
	}
	cut(0, nanStart)
	x.nonNaN = len(x.segs)
	cut(nanStart, n)

	x.bytes = 64
	for i := range x.segs {
		x.bytes += 24 + int64(len(x.segs[i].rowsEnc)+len(x.segs[i].valsEnc))
	}
	return x
}

// rankKey packs one (value, row) pair into a uint64 whose ascending
// order is exactly diag.RankLess: value descending, NaN after every
// value, ties (including -0 vs +0, which compare equal) broken by
// ascending row id. The high word is the value's order-flipped sortable
// bits, the low word the row.
func rankKey(v float32, row int) uint64 {
	var d uint32
	switch {
	case math.IsNaN(float64(v)):
		d = 0xFFFFFFFF // past -Inf's 0xFF800000: NaNs rank last
	default:
		if v == 0 {
			v = 0 // normalize -0: RankLess ties it with +0
		}
		bits := math.Float32bits(v)
		if bits&0x80000000 != 0 {
			bits = ^bits // negative: flip everything for ascending order
		} else {
			bits |= 0x80000000 // positive: set sign so it sorts above negatives
		}
		d = ^bits // flip the ascending order: highest value = smallest key
	}
	return uint64(d)<<32 | uint64(uint32(row))
}

// buildSegment encodes one priority-order run: entries re-sorted by
// ascending row id, rows delta-varint encoded, values raw in the same
// order. max/min come from the priority order (first/last of the run).
func buildSegment(values []float32, run []int) segment {
	seg := segment{count: len(run)}
	if len(run) > 0 {
		seg.max = values[run[0]]
		seg.min = values[run[len(run)-1]]
	}
	rows := make([]int, len(run))
	copy(rows, run)
	sort.Ints(rows)
	var scratch [binary.MaxVarintLen64]byte
	seg.rowsEnc = make([]byte, 0, len(rows)*2)
	prev := 0
	for i, r := range rows {
		d := r
		if i > 0 {
			d = r - prev
		}
		seg.rowsEnc = append(seg.rowsEnc, scratch[:binary.PutUvarint(scratch[:], uint64(d))]...)
		prev = r
	}
	seg.valsEnc = make([]byte, 4*len(rows))
	for i, r := range rows {
		binary.LittleEndian.PutUint32(seg.valsEnc[4*i:], math.Float32bits(values[r]))
	}
	return seg
}

// Sig returns the column signature the index was built against.
func (x *Index) Sig() uint32 { return x.sig }

// Rows returns the number of rows the index covers.
func (x *Index) Rows() int { return x.rows }

// Bytes returns the approximate resident size of the index.
func (x *Index) Bytes() int64 { return x.bytes }

// Segments returns the number of priority-list segments.
func (x *Index) Segments() int { return len(x.segs) }

// decodeRows decodes a segment's delta-varint row list, validating
// monotonicity and range so a damaged payload surfaces as an error (and
// the engine's scan fallback) instead of nonsense rows.
func (s *segment) decodeRows(maxRows int) ([]int, error) {
	rows := make([]int, 0, s.count)
	buf := s.rowsEnc
	prev := -1
	for len(rows) < s.count {
		d, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("nindex: truncated row list (%d of %d rows)", len(rows), s.count)
		}
		buf = buf[n:]
		r := int(d)
		if len(rows) > 0 {
			r = prev + int(d)
		}
		if r <= prev || r >= maxRows {
			return nil, fmt.Errorf("nindex: row id %d out of order or range (rows=%d)", r, maxRows)
		}
		rows = append(rows, r)
		prev = r
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("nindex: %d trailing bytes after row list", len(buf))
	}
	return rows, nil
}

func (s *segment) decodeVals() ([]float32, error) {
	if len(s.valsEnc) != 4*s.count {
		return nil, fmt.Errorf("nindex: value payload %dB for %d entries", len(s.valsEnc), s.count)
	}
	vals := make([]float32, s.count)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(s.valsEnc[4*i:]))
	}
	return vals, nil
}

// TopK returns the k highest-activation rows in diag.RankLess order,
// decoding only the prefix segments that can contain the first k
// positions of the priority order. decoded reports how many segments were
// decoded (the partial-scan signal).
func (x *Index) TopK(k int) (entries []Entry, decoded int, err error) {
	if k > x.rows {
		k = x.rows
	}
	if k <= 0 {
		return nil, 0, nil
	}
	covered := 0
	for _, seg := range x.segs {
		rows, rerr := seg.decodeRows(x.rows)
		if rerr != nil {
			return nil, decoded, rerr
		}
		vals, verr := seg.decodeVals()
		if verr != nil {
			return nil, decoded, verr
		}
		decoded++
		for i, r := range rows {
			entries = append(entries, Entry{Row: r, Value: vals[i]})
		}
		covered += seg.count
		if covered >= k {
			break
		}
	}
	sort.Slice(entries, func(a, b int) bool {
		return diag.RankLess(entries[a].Value, entries[b].Value, entries[a].Row, entries[b].Row)
	})
	return entries[:k], decoded, nil
}

// Op is the comparison predicate of a threshold query — the one predicate
// type of the engine, the store and the wire.
type Op int

const (
	// Gt selects values strictly greater than the bound.
	Gt Op = iota
	// Ge selects values greater than or equal to the bound.
	Ge
	// Lt selects values strictly less than the bound.
	Lt
	// Le selects values less than or equal to the bound.
	Le
)

func (o Op) String() string {
	switch o {
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Lt:
		return "<"
	}
	return "<="
}

// ParseOp parses the wire and CLI spelling of a predicate: "gt", "ge",
// "lt" or "le".
func ParseOp(s string) (Op, error) {
	switch s {
	case "gt":
		return Gt, nil
	case "ge":
		return Ge, nil
	case "lt":
		return Lt, nil
	case "le":
		return Le, nil
	}
	return 0, fmt.Errorf("unknown op %q (want gt, ge, lt or le)", s)
}

// Match reports whether v satisfies `v op bound`. A NaN on either side
// matches nothing.
func (o Op) Match(v, bound float32) bool {
	switch o {
	case Gt:
		return v > bound
	case Ge:
		return v >= bound
	case Lt:
		return v < bound
	default:
		return v <= bound
	}
}

// fullMatch reports whether every value in [min, max] matches. NaN bounds
// make every comparison false, so a NaN-bounded segment never full-matches.
func (o Op) fullMatch(min, max, bound float32) bool {
	switch o {
	case Gt:
		return min > bound
	case Ge:
		return min >= bound
	case Lt:
		return max < bound
	default:
		return max <= bound
	}
}

// canSkip reports whether no value in [min, max] can match.
func (o Op) canSkip(min, max, bound float32) bool {
	switch o {
	case Gt:
		return max <= bound
	case Ge:
		return max < bound
	case Lt:
		return min >= bound
	default:
		return min > bound
	}
}

// FilterRows returns the rows whose value matches `op bound`, in ascending
// row order. Segments are value-range partitioned along the priority
// order, so only the segments overlapping the predicate decode: a prefix
// for Gt/Ge, a suffix (before the NaN tail, which matches nothing) for
// Lt/Le; fully-covered segments decode row ids only, boundary segments
// also decode values and filter exactly. decoded reports segments decoded.
func (x *Index) FilterRows(op Op, bound float32) (rows []int, decoded int, err error) {
	collect := func(seg *segment) error {
		segRows, rerr := seg.decodeRows(x.rows)
		if rerr != nil {
			return rerr
		}
		decoded++
		if op.fullMatch(seg.min, seg.max, bound) {
			rows = append(rows, segRows...)
			return nil
		}
		vals, verr := seg.decodeVals()
		if verr != nil {
			return verr
		}
		for i, r := range segRows {
			if op.Match(vals[i], bound) {
				rows = append(rows, r)
			}
		}
		return nil
	}
	switch op {
	case Gt, Ge:
		for i := 0; i < x.nonNaN; i++ {
			seg := &x.segs[i]
			if op.canSkip(seg.min, seg.max, bound) {
				break // segments only get smaller from here
			}
			if err := collect(seg); err != nil {
				return nil, decoded, err
			}
		}
	default:
		for i := x.nonNaN - 1; i >= 0; i-- {
			seg := &x.segs[i]
			if op.canSkip(seg.min, seg.max, bound) {
				break // segments only get larger from here
			}
			if err := collect(seg); err != nil {
				return nil, decoded, err
			}
		}
	}
	sort.Ints(rows)
	return rows, decoded, nil
}
