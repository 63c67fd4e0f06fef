// Package durabletest is the decoder contract every artifact format's
// tests and fuzzers share, so a format proves the same things about its
// reader as every other one: hostile bytes never panic, never allocate
// out of proportion to their length, and are rejected only through
// durable.ErrCorrupt or durable.ErrUnsupported.
package durabletest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mistique/internal/durable"
)

// allocFactor and allocSlack bound what decoding n input bytes may
// allocate: decoded structs are wider than their wire form (a 12-byte
// chunk header becomes a chunk and a quantizer) and error messages cost
// a little, but nothing may be sized from a field the payload cannot back.
const (
	allocFactor = 64
	allocSlack  = 64 << 10
)

// Input runs decode on one arbitrary input — the body of a fuzz target.
// The error, if any, must be one of the two durable sentinels and the
// allocation must stay within allocFactor × len(data) + allocSlack. decode
// checks its format's own invariants on whatever it accepts and reports a
// violation with t.
func Input(t testing.TB, data []byte, decode func([]byte) error) error {
	t.Helper()
	var err error
	limit := allocFactor*uint64(len(data)) + allocSlack
	// Another goroutine's allocation can land inside the window; a genuine
	// runaway repeats.
	for try := 1; ; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = decode(data)
		runtime.ReadMemStats(&after)
		spent := after.TotalAlloc - before.TotalAlloc
		if spent <= limit {
			break
		}
		if try == 3 {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), spent, limit)
		}
	}
	if err != nil && !errors.Is(err, durable.ErrCorrupt) && !errors.Is(err, durable.ErrUnsupported) {
		t.Fatalf("untyped decode error: %v", err)
	}
	return err
}

// Format describes one artifact kind to Contract.
type Format struct {
	// Image is a valid image; Decode must accept it.
	Image []byte
	// Decode reads an image and, when it accepts one, checks that it
	// re-encodes to the same bytes (and whatever else the format promises).
	Decode func([]byte) error
	// Sealed says a checksum covers the whole image, so every truncation
	// and every bit flip must be rejected. Without it damage may also
	// decode to different values — only the Input rules apply.
	Sealed bool
	// VersionAt is the [from, to) byte range of the version field, the one
	// place where a flip may read as ErrUnsupported instead of ErrCorrupt.
	VersionAt [2]int
}

// Contract checks Image, each of its proper prefixes, Image plus a
// trailing byte and each single-bit flip of it against the Input rules and
// the Sealed ones.
func Contract(t *testing.T, f Format) {
	t.Helper()
	if err := Input(t, f.Image, f.Decode); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
	for n := 0; n < len(f.Image); n++ {
		err := Input(t, f.Image[:n:n], f.Decode)
		if f.Sealed && !errors.Is(err, durable.ErrCorrupt) {
			t.Fatalf("truncation to %d of %d bytes: %v, want ErrCorrupt", n, len(f.Image), err)
		}
	}
	longer := append(append([]byte(nil), f.Image...), 0)
	if err := Input(t, longer, f.Decode); f.Sealed && !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("trailing byte: %v, want ErrCorrupt", err)
	}
	mut := make([]byte, len(f.Image))
	for bit := 0; bit < 8*len(f.Image); bit++ {
		copy(mut, f.Image)
		mut[bit/8] ^= 1 << (bit % 8)
		err := Input(t, mut, f.Decode)
		inVersion := bit/8 >= f.VersionAt[0] && bit/8 < f.VersionAt[1]
		switch {
		case !f.Sealed:
		case errors.Is(err, durable.ErrCorrupt):
		case inVersion && errors.Is(err, durable.ErrUnsupported):
		default:
			t.Fatalf("bit %d of byte %d flipped: %v, want ErrCorrupt", bit%8, bit/8, err)
		}
	}
}

// Golden reads testdata/<name>, an image an earlier commit wrote, and
// checks that this commit still decodes it and re-encodes it to the same
// bytes, and that now — the same structure encoded by this commit — is
// those bytes too: no on-disk byte has moved in either direction.
func Golden(t *testing.T, name string, now []byte, reencode func([]byte) ([]byte, error)) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	got, err := reencode(want)
	if err != nil {
		t.Fatalf("%s no longer decodes: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s re-encodes to different bytes (%d, was %d)", name, len(got), len(want))
	}
	if !bytes.Equal(now, want) {
		t.Fatalf("%s: the encoder no longer writes the bytes that commit wrote", name)
	}
}
