package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The two ways a read can reject an artifact. Every decoder in the system
// reports through these and callers errors.Is them: corrupt files are
// quarantined or rebuilt, unsupported ones are left exactly where they
// are for the newer binary that wrote them.
var (
	// ErrCorrupt marks bytes that fail a checksum, a magic, a bounds check
	// or one of the owner's structural invariants.
	ErrCorrupt = errors.New("durable: corrupt artifact")
	// ErrUnsupported marks a known magic with a version newer than this
	// binary reads. The bytes are presumed intact.
	ErrUnsupported = errors.New("durable: unsupported format version")
)

// Open frames a sealed artifact: CRC-32C footer first (so damage anywhere,
// the version field included, is ErrCorrupt), then OpenUnsealed's magic
// and version check over the body.
func Open(data []byte, magic string, versionWidth int, maxVersion uint32) (uint32, *Reader, error) {
	body, ok := Unseal(data)
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s checksum mismatch (%d bytes)", ErrCorrupt, magic, len(data))
	}
	return OpenUnsealed(body, magic, versionWidth, maxVersion)
}

// OpenUnsealed checks the magic and the little-endian version field of
// versionWidth bytes (0: the format has none) that follows it, and returns
// a Reader positioned after both. Version 0 of a versioned format is
// ErrCorrupt — no artifact ever wrote it — and one above maxVersion is
// ErrUnsupported. Owners whose checksums live elsewhere (WAL frames, the
// partition container around a sealed image) call this directly.
func OpenUnsealed(data []byte, magic string, versionWidth int, maxVersion uint32) (uint32, *Reader, error) {
	r := NewReader(data)
	if string(r.Bytes(len(magic))) != magic {
		return 0, nil, fmt.Errorf("%w: not a %s artifact", ErrCorrupt, magic)
	}
	var version uint32
	switch versionWidth {
	case 0:
		return 0, r, nil
	case 1:
		version = uint32(r.U8())
	case 2:
		version = uint32(r.U16())
	default:
		version = r.U32()
	}
	switch {
	case r.Err() != nil || version == 0:
		return 0, nil, fmt.Errorf("%w: %s without a version", ErrCorrupt, magic)
	case version > maxVersion:
		return 0, nil, fmt.Errorf("%w: %s version %d, newest known %d", ErrUnsupported, magic, version, maxVersion)
	}
	return version, r, nil
}

// Reader is the one bounds-checked cursor over an artifact's bytes. The
// first failed read sticks: it and every later read return zero values,
// and Err reports it wrapping ErrCorrupt, so a decoder reads a whole
// record and checks once. Every length is validated against the bytes
// that remain before anything is returned for the caller to size an
// allocation from. Bytes returns sub-slices of the input.
type Reader struct {
	buf []byte // cut back to buf[:off] by the first failure: nothing remains
	off int
	err error
	ran bool // a read ran past the end; Err words it (keeps Bytes inlinable)
}

// NewReader reads a headerless body (a WAL record, a quantizer blob).
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Failf records an owner's structural violation as the sticky error.
func (r *Reader) Failf(format string, args ...any) {
	if r.Err() == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
		r.buf = r.buf[:r.off]
	}
}

// Err returns the first failure, nil if every read so far succeeded.
func (r *Reader) Err() error {
	if r.err == nil && r.ran {
		r.err = fmt.Errorf("%w: truncated after %d bytes", ErrCorrupt, r.off)
	}
	return r.err
}

// End is Err for a record that must have been read to its last byte.
func (r *Reader) End() error {
	if r.Remaining() != 0 {
		r.Failf("%d trailing bytes", r.Remaining())
	}
	return r.Err()
}

// Remaining is the number of unread bytes, 0 once a read has failed.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Offset is the position of the next read in the bytes handed to
// NewReader or Open.
func (r *Reader) Offset() int { return r.off }

// Bytes returns the next n bytes as a sub-slice of the input.
func (r *Reader) Bytes(n int) []byte {
	if uint(n) > uint(len(r.buf)-r.off) { // uint: a negative n is too long too
		r.ran, r.buf = true, r.buf[:r.off]
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off : r.off]
}

func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }

// Uvarint reads an unsigned varint no greater than limit.
func (r *Reader) Uvarint(limit uint64) uint64 {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Failf("bad varint at offset %d", r.off)
		return 0
	}
	if v > limit {
		r.Failf("value %d at offset %d exceeds limit %d", v, r.off, limit)
		return 0
	}
	r.off += n
	return v
}

// Fit checks that n elements of at least elemBytes each fit in the bytes
// that remain and returns n as an int — the step between reading a count
// in whatever width the format stores it and allocating for it.
func (r *Reader) Fit(n uint64, elemBytes int) int {
	if n > uint64(r.Remaining())/uint64(elemBytes) {
		r.Failf("count %d of %d-byte elements at offset %d exceeds the %d bytes left", n, elemBytes, r.off, r.Remaining())
		return 0
	}
	return int(n)
}

// Count reads a uvarint element count and Fits it.
func (r *Reader) Count(elemBytes int) int {
	return r.Fit(r.Uvarint(math.MaxUint64), elemBytes)
}

// String reads a uvarint length no greater than limit and that many bytes.
func (r *Reader) String(limit int) string {
	return string(r.Bytes(int(r.Uvarint(uint64(limit)))))
}

// Floats reads n little-endian float32 values into a fresh slice.
func (r *Reader) Floats(n int) []float32 {
	if n < 0 || n > r.Remaining()/4 {
		r.Failf("need %d floats at offset %d, have %d bytes", n, r.off, r.Remaining())
		return nil
	}
	b := r.Bytes(4 * n)
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
