package durable

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

// Every fixed-width read at 0, short, exact and over length: short fails
// with ErrCorrupt and returns zero, exact succeeds and drains the reader,
// over leaves the surplus as Remaining.
func TestReaderFixedWidthBoundaries(t *testing.T) {
	full := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	reads := []struct {
		name  string
		width int
		read  func(*Reader) uint64
		want  uint64
	}{
		{"U8", 1, func(r *Reader) uint64 { return uint64(r.U8()) }, 0x01},
		{"U16", 2, func(r *Reader) uint64 { return uint64(r.U16()) }, 0x0201},
		{"U32", 4, func(r *Reader) uint64 { return uint64(r.U32()) }, 0x04030201},
		{"U64", 8, func(r *Reader) uint64 { return r.U64() }, 0x0807060504030201},
		{"F32", 4, func(r *Reader) uint64 { return uint64(math.Float32bits(r.F32())) }, 0x04030201},
		{"Bytes", 3, func(r *Reader) uint64 { return uint64(len(r.Bytes(3))) }, 3},
	}
	for _, rd := range reads {
		for _, n := range []int{0, rd.width - 1, rd.width, rd.width + 1} {
			r := NewReader(full[:n])
			got := rd.read(r)
			if n < rd.width {
				if got != 0 || !errors.Is(r.Err(), ErrCorrupt) || r.Remaining() != 0 {
					t.Errorf("%s over %d bytes = %#x, err %v, remaining %d; want 0, ErrCorrupt, 0", rd.name, n, got, r.Err(), r.Remaining())
				}
				continue
			}
			if got != rd.want || r.Err() != nil || r.Remaining() != n-rd.width || r.Offset() != rd.width {
				t.Errorf("%s over %d bytes = %#x, err %v, remaining %d, offset %d", rd.name, n, got, r.Err(), r.Remaining(), r.Offset())
			}
			if err := r.End(); (err == nil) != (n == rd.width) {
				t.Errorf("%s over %d bytes: End = %v", rd.name, n, err)
			}
		}
	}
}

func TestReaderErrorSticks(t *testing.T) {
	r := NewReader([]byte{7, 1, 2, 3, 4})
	if r.U8() != 7 {
		t.Fatal("first read")
	}
	r.U64() // 4 bytes left
	first := r.Err()
	if !errors.Is(first, ErrCorrupt) {
		t.Fatalf("short U64: %v", first)
	}
	// Nothing after the failure reads, moves or replaces the error.
	if r.U8() != 0 || r.U32() != 0 || r.Uvarint(9) != 0 || r.Count(1) != 0 || r.String(9) != "" ||
		r.Bytes(1) != nil || r.Floats(1) != nil || r.Fit(1, 1) != 0 || r.Remaining() != 0 {
		t.Fatal("a read succeeded after the reader failed")
	}
	r.Failf("owner's complaint")
	if r.Err() != first || r.End() != first || r.Offset() != 1 {
		t.Fatalf("sticky error replaced: %v (offset %d)", r.Err(), r.Offset())
	}
	// A negative length is corruption, not a panic.
	if r := NewReader([]byte{1}); r.Bytes(-1) != nil || r.Err() == nil {
		t.Fatal("negative Bytes accepted")
	}
	if r := NewReader([]byte{1}); r.Floats(-1) != nil || r.Err() == nil {
		t.Fatal("negative Floats accepted")
	}
}

func TestReaderBytesAreCappedSubSlices(t *testing.T) {
	buf := []byte{1, 2, 3, 4}
	r := NewReader(buf)
	b := r.Bytes(2)
	if &b[0] != &buf[0] || cap(b) != 2 {
		t.Fatalf("Bytes copied or left capacity over the next field: cap %d", cap(b))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(buf)
		r.Bytes(2)
		r.U16()
	}); allocs != 0 {
		t.Fatalf("reading allocates %v times", allocs)
	}
}

func TestReaderUvarint(t *testing.T) {
	enc := binary.AppendUvarint(nil, 300)
	if r := NewReader(enc); r.Uvarint(300) != 300 || r.End() != nil {
		t.Fatalf("value at its limit: %v", r.Err())
	}
	for name, r := range map[string]*Reader{
		"over limit":  NewReader(enc),
		"empty":       NewReader(nil),
		"unfinished":  NewReader(enc[:1]),
		"65-bit":      NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}),
		"after error": func() *Reader { r := NewReader(enc); r.Failf("x"); return r }(),
	} {
		if v := r.Uvarint(299); v != 0 || !errors.Is(r.Err(), ErrCorrupt) || r.Offset() != 0 {
			t.Errorf("%s: Uvarint = %d, err %v, offset %d", name, v, r.Err(), r.Offset())
		}
	}
}

// Count and Fit are what stand between a length field and make(): a count
// the remaining bytes cannot back — up to one that would overflow an int
// when multiplied out — fails instead of being returned.
func TestReaderCountAndFit(t *testing.T) {
	payload := make([]byte, 40)
	for _, c := range []struct {
		n, elem uint64
		ok      bool
	}{
		{0, 4, true}, {10, 4, true}, {11, 4, false}, {40, 1, true}, {41, 1, false},
		{math.MaxUint64, 1, false}, {math.MaxUint64 / 4, 4, false}, {1 << 62, 8, false},
	} {
		r := NewReader(append(binary.AppendUvarint(nil, c.n), payload...))
		got := r.Count(int(c.elem))
		if c.ok != (r.Err() == nil) || (c.ok && got != int(c.n)) || (!c.ok && got != 0) {
			t.Errorf("Count(%d) of %d elements over 40 bytes = %d, err %v", c.elem, c.n, got, r.Err())
		}
		r = NewReader(payload)
		if got := r.Fit(c.n, int(c.elem)); c.ok != (r.Err() == nil) || (c.ok && got != int(c.n)) {
			t.Errorf("Fit(%d, %d) over 40 bytes = %d, err %v", c.n, c.elem, got, r.Err())
		}
	}
}

func TestReaderStringAndFloats(t *testing.T) {
	enc := append(binary.AppendUvarint(nil, 5), "hello"...)
	if r := NewReader(enc); r.String(5) != "hello" || r.End() != nil {
		t.Fatalf("String at its limit: %v", r.Err())
	}
	if r := NewReader(enc); r.String(4) != "" || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatal("String over its limit accepted")
	}
	if r := NewReader(enc[:4]); r.String(5) != "" || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatal("String longer than the payload accepted")
	}
	if r := NewReader([]byte{0}); r.String(0) != "" || r.End() != nil {
		t.Fatalf("empty String: %v", r.Err())
	}

	var fl []byte
	for _, v := range []float32{1.5, -2, float32(math.Inf(1))} {
		fl = binary.LittleEndian.AppendUint32(fl, math.Float32bits(v))
	}
	if r := NewReader(fl); len(r.Floats(0)) != 0 || r.Err() != nil || r.Offset() != 0 {
		t.Fatal("Floats(0)")
	}
	r := NewReader(fl)
	if got := r.Floats(3); len(got) != 3 || got[0] != 1.5 || got[1] != -2 || !math.IsInf(float64(got[2]), 1) || r.End() != nil {
		t.Fatalf("Floats(3) = %v, %v", got, r.Err())
	}
	for _, n := range []int{4, math.MaxInt / 2} {
		if r := NewReader(fl); r.Floats(n) != nil || !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("Floats(%d) over 12 bytes accepted", n)
		}
	}
}

// Open and OpenUnsealed: seal, then magic, then version — each width, the
// version range, and which sentinel each rejection carries.
func TestOpenFrameChecks(t *testing.T) {
	image := func(magic string, width int, version uint32, body string) []byte {
		b := []byte(magic)
		switch width {
		case 1:
			b = append(b, byte(version))
		case 2:
			b = binary.LittleEndian.AppendUint16(b, uint16(version))
		case 4:
			b = binary.LittleEndian.AppendUint32(b, version)
		}
		return append(b, body...)
	}
	for _, width := range []int{0, 1, 2, 4} {
		for _, c := range []struct {
			version uint32
			want    error
		}{{0, ErrCorrupt}, {1, nil}, {3, nil}, {4, ErrUnsupported}, {200, ErrUnsupported}} {
			if width == 0 && c.version != 0 {
				continue
			}
			if width == 0 {
				c.want = nil // a format without a version field has nothing to reject
			}
			raw := image("MQXX", width, c.version, "body")
			for _, sealed := range []bool{false, true} {
				open, data := OpenUnsealed, raw
				if sealed {
					open, data = Open, Seal(append([]byte(nil), raw...))
				}
				v, r, err := open(data, "MQXX", width, 3)
				if !errors.Is(err, c.want) || (c.want == nil && err != nil) {
					t.Errorf("width %d version %d sealed %v: err %v, want %v", width, c.version, sealed, err, c.want)
					continue
				}
				if err != nil {
					if r != nil || v != 0 {
						t.Errorf("width %d version %d: a reader came back with the error", width, c.version)
					}
					continue
				}
				if v != c.version || r.Offset() != 4+width || string(r.Bytes(4)) != "body" || r.End() != nil {
					t.Errorf("width %d version %d sealed %v: version %d, offset %d, err %v", width, c.version, sealed, v, r.Offset(), r.Err())
				}
			}
		}
	}

	good := image("MQXX", 2, 1, "body")
	for name, data := range map[string][]byte{
		"empty":           nil,
		"short magic":     good[:3],
		"wrong magic":     image("MQXY", 2, 1, "body"),
		"missing version": good[:4],
		"short version":   good[:5],
	} {
		if _, _, err := OpenUnsealed(data, "MQXX", 2, 1); !errors.Is(err, ErrCorrupt) {
			t.Errorf("OpenUnsealed %s: %v, want ErrCorrupt", name, err)
		}
		if _, _, err := Open(Seal(append([]byte(nil), data...)), "MQXX", 2, 1); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Open %s: %v, want ErrCorrupt", name, err)
		}
	}

	// The seal is checked first: damage to the version field of a sealed
	// image is corruption, never mistaken for a newer format; an intact
	// newer image is unsupported, never corrupt.
	sealed := Seal(image("MQXX", 1, 1, "body"))
	sealed[4] = 9
	if _, _, err := Open(sealed, "MQXX", 1, 1); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrUnsupported) {
		t.Fatalf("damaged version byte: %v, want ErrCorrupt", err)
	}
	if _, _, err := Open(Seal(image("MQXX", 1, 9, "body")), "MQXX", 1, 1); !errors.Is(err, ErrUnsupported) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("intact newer image: %v, want ErrUnsupported", err)
	}
	if _, _, err := Open([]byte{1, 2}, "MQXX", 1, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("image shorter than a seal: %v", err)
	}
	if _, _, err := OpenUnsealed(image("MQXX", 4, 7, ""), "MQXX", 4, 3); err == nil || !strings.Contains(err.Error(), "version 7") {
		t.Fatalf("unsupported error does not name the version: %v", err)
	}
}
