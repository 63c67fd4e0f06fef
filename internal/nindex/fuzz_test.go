package nindex

import (
	"bytes"
	"math"
	"testing"

	"mistique/internal/durable/durabletest"
)

// FuzzNIndexFile hardens the MQNI decoder: arbitrary bytes must never
// panic or allocate unboundedly, any input that decodes must re-encode to
// a canonical form that is a codec fixed point, and probes through a
// decoded index must never panic (structural errors are fine — they route
// to quarantine + rebuild in production).
func FuzzNIndexFile(f *testing.F) {
	// Seed corpus: valid files of several shapes, so mutation starts from
	// deep inside the format rather than failing at the magic bytes.
	shapes := []struct {
		n         int
		blockRows int
		cfg       Config
	}{
		{0, 16, Config{}},
		{1, 16, Config{SegmentEntries: 4, HistogramBins: 2}},
		{37, 8, Config{SegmentEntries: 5, HistogramBins: 4}},
		{200, 64, Config{SegmentEntries: 32, HistogramBins: 16}},
	}
	for i, s := range shapes {
		col := testColumn(s.n, int64(i)+100)
		f.Add(Encode("m\x00i\x00c", Build(col, s.blockRows, uint32(i), s.cfg)))
	}
	// All-NaN column: only nan segments, inverted zones.
	nan := float32(math.NaN())
	f.Add(Encode("k", Build([]float32{nan, nan, nan}, 2, 5, Config{SegmentEntries: 2})))
	// Tiny hand-rolled corruptions.
	f.Add([]byte{})
	f.Add([]byte("MQNI"))
	f.Add([]byte("MQNI\x01\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		durabletest.Input(t, data, func(data []byte) error {
			key, x, err := Decode(data)
			if err != nil {
				return err
			}
			// Decoded OK: re-encoding must be a fixed point of the codec. The
			// original bytes may use non-minimal varints, so compare the
			// canonical forms, not data itself.
			enc1 := Encode(key, x)
			key2, x2, err := Decode(enc1)
			if err != nil {
				t.Fatalf("re-decode of canonical encoding failed: %v", err)
			}
			if key2 != key {
				t.Fatalf("key changed across re-encode: %q -> %q", key, key2)
			}
			if !bytes.Equal(Encode(key2, x2), enc1) {
				t.Fatal("canonical encoding is not a fixed point")
			}
			// Probes must not panic whatever the payload claims.
			if _, _, err := x.TopK(3); err == nil {
				x.TopK(x.Rows() + 1)
			}
			for _, op := range []Op{Gt, Ge, Lt, Le} {
				x.FilterRows(op, 0.5)
			}
			return nil
		})
	})
}
