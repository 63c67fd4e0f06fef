package nindex

import (
	"encoding/binary"
	"math"

	"mistique/internal/durable"
)

// On-disk format of one persisted index ("MQNI" v1). All integers are
// little-endian; varints are unsigned (binary.Uvarint).
//
//	magic      "MQNI" (4 bytes)
//	version    1 byte (currently 1)
//	key        uvarint length + bytes (the column's logical identity,
//	           verified on load so a hash-named file can never answer
//	           for the wrong column)
//	sig        u32 — colstore.ColumnSignature at build time
//	rows       uvarint
//	blockRows  uvarint
//	nonNaN     uvarint — count of leading non-NaN segments (the NaN tail
//	           is derived from position, not stored per segment)
//	histogram  uvarint bin count, then bins+1 f32 bounds, bins uvarint
//	           counts, uvarint NaN count (bin count 0 ⇒ no bounds/counts)
//	zones      uvarint count, then {f32 min, f32 max, uvarint count} each
//	segments   uvarint count, then per segment:
//	           uvarint entry count, f32 max, f32 min,
//	           uvarint rows-payload length + delta-varint row bytes,
//	           raw f32 value bytes (length = 4·entries, implicit)
//	footer     u32 CRC32-C over everything above
//
// Decode is strict: every structural invariant the probe paths rely on is
// checked, trailing bytes are an error, and a decoded index re-encodes to
// a canonical byte string (Encode always emits minimal varints), so
// decode→encode→decode is a fixed point — the property FuzzNIndexFile
// pins down.

const (
	fileMagic   = "MQNI"
	fileVersion = 1

	// maxKeyLen bounds the stored key string; real keys are short
	// model/interm/column triples.
	maxKeyLen = 4096
)

// Encode serializes the index with its logical key into the MQNI v1 wire
// form, CRC32-C footer included.
func Encode(key string, x *Index) []byte {
	var scratch [binary.MaxVarintLen64]byte
	uv := func(b []byte, v uint64) []byte {
		return append(b, scratch[:binary.PutUvarint(scratch[:], v)]...)
	}
	f32 := func(b []byte, v float32) []byte {
		return binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}

	buf := make([]byte, 0, 64+int(x.bytes))
	buf = append(buf, fileMagic...)
	buf = append(buf, fileVersion)
	buf = uv(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint32(buf, x.sig)
	buf = uv(buf, uint64(x.rows))
	buf = uv(buf, uint64(x.blockRows))
	buf = uv(buf, uint64(x.nonNaN))

	bins := len(x.hist.Counts)
	buf = uv(buf, uint64(bins))
	for _, b := range x.hist.Bounds {
		buf = f32(buf, b)
	}
	for _, c := range x.hist.Counts {
		buf = uv(buf, uint64(c))
	}
	buf = uv(buf, uint64(x.hist.NaNs))

	buf = uv(buf, uint64(len(x.zones)))
	for _, z := range x.zones {
		buf = f32(buf, z.Min)
		buf = f32(buf, z.Max)
		buf = uv(buf, uint64(z.Count))
	}

	buf = uv(buf, uint64(len(x.segs)))
	for i := range x.segs {
		s := &x.segs[i]
		buf = uv(buf, uint64(s.count))
		buf = f32(buf, s.max)
		buf = f32(buf, s.min)
		buf = uv(buf, uint64(len(s.rowsEnc)))
		buf = append(buf, s.rowsEnc...)
		buf = append(buf, s.valsEnc...)
	}

	return durable.Seal(buf)
}

// Decode parses and validates one MQNI file, returning the stored key and
// the index. Any structural violation returns an error wrapping
// durable.ErrCorrupt, a newer version durable.ErrUnsupported; the returned
// index is safe to probe (row lists are further validated lazily at decode
// time).
func Decode(data []byte) (string, *Index, error) {
	_, r, err := durable.Open(data, fileMagic, 1, fileVersion)
	if err != nil {
		return "", nil, err
	}
	key := r.String(maxKeyLen)
	x := &Index{sig: r.U32()}
	// Each row carries at least 4 value bytes somewhere in the segment
	// payload, which bounds rows by the file size.
	x.rows = r.Fit(r.Uvarint(math.MaxUint64), 4)
	x.blockRows = int(r.Uvarint(math.MaxInt32))
	nonNaN := r.Uvarint(math.MaxUint64)
	if x.blockRows == 0 {
		r.Failf("block rows 0")
	}
	if r.Err() != nil {
		return "", nil, r.Err()
	}

	x.hist = decodeHistogram(r, x.rows)

	x.zones = make([]Zone, r.Count(9)) // f32 + f32 + ≥1-byte count
	if want := (x.rows + x.blockRows - 1) / x.blockRows; len(x.zones) != want {
		r.Failf("%d zones for %d rows of %d", len(x.zones), x.rows, x.blockRows)
	}
	zoneSum := 0
	for i := range x.zones {
		x.zones[i] = Zone{Min: r.F32(), Max: r.F32(), Count: int(r.Uvarint(uint64(x.blockRows)))}
		zoneSum += x.zones[i].Count
	}
	if zoneSum != x.rows {
		r.Failf("zone counts sum %d, rows %d", zoneSum, x.rows)
	}

	x.segs = make([]segment, r.Count(10)) // count + max + min + rows len, minimum ~10B
	if nonNaN > uint64(len(x.segs)) {
		r.Failf("nonNaN %d of %d segments", nonNaN, len(x.segs))
	}
	x.nonNaN = int(nonNaN)
	segSum := 0
	for i := range x.segs {
		s := &x.segs[i]
		s.nan = i >= x.nonNaN
		if s.count = int(r.Uvarint(uint64(x.rows))); s.count == 0 {
			r.Failf("segment %d is empty", i)
		}
		s.max = r.F32()
		s.min = r.F32()
		s.rowsEnc = r.Bytes(r.Count(1))
		s.valsEnc = r.Bytes(4 * s.count)
		segSum += s.count
	}
	if segSum != x.rows {
		r.Failf("segment counts sum %d, rows %d", segSum, x.rows)
	}
	if err := r.End(); err != nil {
		return "", nil, err
	}
	x.bytes = x.footprint()
	return key, x, nil
}

func decodeHistogram(r *durable.Reader, rows int) Histogram {
	var h Histogram
	bins := r.Count(5) // f32 bound + ≥1-byte count per bin
	if bins > rows {
		r.Failf("%d histogram bins for %d rows", bins, rows)
		return h
	}
	if bins > 0 {
		h.Bounds = r.Floats(bins + 1)
		h.Counts = make([]int, bins)
		sum := 0
		for i := range h.Counts {
			h.Counts[i] = int(r.Uvarint(uint64(rows)))
			sum += h.Counts[i]
		}
		if sum > rows {
			r.Failf("histogram counts sum %d, rows %d", sum, rows)
		}
	}
	h.NaNs = int(r.Uvarint(uint64(rows)))
	return h
}
