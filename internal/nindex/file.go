package nindex

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// ErrCorrupt marks a persisted index that failed validation; the manager
// quarantines the file and rebuilds from the column data.
var ErrCorrupt = errors.New("nindex: corrupt index file")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

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

// reader is a bounds-checked cursor over the decode buffer. Every length
// it returns has been verified against the remaining payload, so Decode
// never over-allocates on adversarial input.
type reader struct {
	buf []byte
	off int
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, corruptf("need %d bytes, have %d", n, r.remaining())
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, corruptf("bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// count reads a uvarint that counts elements of at least elemBytes each
// and rejects values the remaining payload cannot possibly hold.
func (r *reader) count(elemBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining())/uint64(elemBytes) {
		return 0, corruptf("count %d exceeds payload", v)
	}
	return int(v), nil
}

func (r *reader) f32() (float32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(b)), nil
}

// Decode parses and validates one MQNI file, returning the stored key and
// the index. Any structural violation returns an error wrapping
// ErrCorrupt; the returned index is safe to probe (row lists are further
// validated lazily at decode time).
func Decode(data []byte) (string, *Index, error) {
	if len(data) < len(fileMagic)+1+4 {
		return "", nil, corruptf("short file (%dB)", len(data))
	}
	body, ok := durable.Unseal(data)
	if !ok {
		return "", nil, corruptf("checksum mismatch")
	}
	r := &reader{buf: body}
	if m, err := r.bytes(len(fileMagic)); err != nil || string(m) != fileMagic {
		return "", nil, corruptf("bad magic")
	}
	if v, err := r.bytes(1); err != nil || v[0] != fileVersion {
		return "", nil, corruptf("unsupported version")
	}
	keyLen, err := r.count(1)
	if err != nil {
		return "", nil, err
	}
	if keyLen > maxKeyLen {
		return "", nil, corruptf("key length %d", keyLen)
	}
	keyBytes, err := r.bytes(keyLen)
	if err != nil {
		return "", nil, err
	}
	key := string(keyBytes)

	x := &Index{}
	sigBytes, err := r.bytes(4)
	if err != nil {
		return "", nil, err
	}
	x.sig = binary.LittleEndian.Uint32(sigBytes)
	rows, err := r.uvarint()
	if err != nil {
		return "", nil, err
	}
	blockRows, err := r.uvarint()
	if err != nil {
		return "", nil, err
	}
	nonNaN, err := r.uvarint()
	if err != nil {
		return "", nil, err
	}
	// Each row carries at least 4 value bytes somewhere in the segment
	// payload, which bounds rows by the file size.
	if rows > uint64(len(data))/4 {
		return "", nil, corruptf("row count %d exceeds payload", rows)
	}
	if blockRows == 0 || blockRows > uint64(math.MaxInt32) {
		return "", nil, corruptf("block rows %d", blockRows)
	}
	x.rows = int(rows)
	x.blockRows = int(blockRows)

	if x.hist, err = decodeHistogram(r, x.rows); err != nil {
		return "", nil, err
	}

	nZones, err := r.count(9) // f32 + f32 + ≥1-byte count
	if err != nil {
		return "", nil, err
	}
	wantZones := 0
	if x.rows > 0 {
		wantZones = (x.rows + x.blockRows - 1) / x.blockRows
	}
	if nZones != wantZones {
		return "", nil, corruptf("%d zones for %d rows of %d", nZones, x.rows, x.blockRows)
	}
	x.zones = make([]Zone, nZones)
	zoneSum := 0
	for i := range x.zones {
		if x.zones[i].Min, err = r.f32(); err != nil {
			return "", nil, err
		}
		if x.zones[i].Max, err = r.f32(); err != nil {
			return "", nil, err
		}
		c, err := r.uvarint()
		if err != nil {
			return "", nil, err
		}
		if c > uint64(x.blockRows) {
			return "", nil, corruptf("zone %d count %d exceeds block", i, c)
		}
		x.zones[i].Count = int(c)
		zoneSum += int(c)
	}
	if zoneSum != x.rows {
		return "", nil, corruptf("zone counts sum %d, rows %d", zoneSum, x.rows)
	}

	nSegs, err := r.count(10) // count + max + min + rows len, minimum ~10B
	if err != nil {
		return "", nil, err
	}
	if nonNaN > uint64(nSegs) {
		return "", nil, corruptf("nonNaN %d of %d segments", nonNaN, nSegs)
	}
	x.nonNaN = int(nonNaN)
	x.segs = make([]segment, nSegs)
	segSum := 0
	for i := range x.segs {
		s := &x.segs[i]
		s.nan = i >= x.nonNaN
		cnt, err := r.uvarint()
		if err != nil {
			return "", nil, err
		}
		if cnt == 0 || cnt > uint64(x.rows) {
			return "", nil, corruptf("segment %d entry count %d", i, cnt)
		}
		s.count = int(cnt)
		if s.max, err = r.f32(); err != nil {
			return "", nil, err
		}
		if s.min, err = r.f32(); err != nil {
			return "", nil, err
		}
		rowsLen, err := r.count(1)
		if err != nil {
			return "", nil, err
		}
		if s.rowsEnc, err = r.bytes(rowsLen); err != nil {
			return "", nil, err
		}
		if s.valsEnc, err = r.bytes(4 * s.count); err != nil {
			return "", nil, err
		}
		segSum += s.count
	}
	if segSum != x.rows {
		return "", nil, corruptf("segment counts sum %d, rows %d", segSum, x.rows)
	}
	if r.remaining() != 0 {
		return "", nil, corruptf("%d trailing bytes", r.remaining())
	}
	x.bytes = x.footprint()
	return key, x, nil
}

func decodeHistogram(r *reader, rows int) (Histogram, error) {
	var h Histogram
	bins, err := r.count(5) // f32 bound + ≥1-byte count per bin
	if err != nil {
		return h, err
	}
	if bins > rows {
		return h, corruptf("%d histogram bins for %d rows", bins, rows)
	}
	if bins > 0 {
		h.Bounds = make([]float32, bins+1)
		for i := range h.Bounds {
			if h.Bounds[i], err = r.f32(); err != nil {
				return h, err
			}
		}
		h.Counts = make([]int, bins)
		sum := 0
		for i := range h.Counts {
			c, err := r.uvarint()
			if err != nil {
				return h, err
			}
			if c > uint64(rows) {
				return h, corruptf("histogram bin %d count %d", i, c)
			}
			h.Counts[i] = int(c)
			sum += int(c)
		}
		if sum > rows {
			return h, corruptf("histogram counts sum %d, rows %d", sum, rows)
		}
	}
	nans, err := r.uvarint()
	if err != nil {
		return h, err
	}
	if nans > uint64(rows) {
		return h, corruptf("histogram NaN count %d, rows %d", nans, rows)
	}
	h.NaNs = int(nans)
	return h, nil
}
