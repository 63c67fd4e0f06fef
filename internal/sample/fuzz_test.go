package sample

import (
	"os"
	"path/filepath"
	"testing"

	"mistique/internal/durable/durabletest"
)

// FuzzSampleDecode hammers the MQSM decoder: it must never panic, and any
// image it accepts must re-encode to an image that decodes identically.
func FuzzSampleDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magicMQSM))
	b := NewBuilder([]string{"a", "b"}, Config{Cap: 8})
	for i := 0; i < 30; i++ {
		b.Add([]float32{float32(i % 3), float32(i)})
	}
	f.Add(Encode("m", "i", b.Snapshot()))
	f.Add(Encode("", "", b.Snapshot()))
	// A stratified image an older binary wrote: its strata must parse.
	stratified, err := os.ReadFile(filepath.Join("testdata", "parent.mqsm"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stratified)

	f.Fuzz(func(t *testing.T, data []byte) {
		durabletest.Input(t, data, func(data []byte) error {
			model, interm, s, err := Decode(data)
			if err != nil {
				return err
			}
			m2, i2, s2, err2 := Decode(Encode(model, interm, s))
			if err2 != nil {
				t.Fatalf("re-encode of accepted image rejected: %v", err2)
			}
			if m2 != model || i2 != interm {
				t.Fatalf("identity changed: %q/%q vs %q/%q", m2, i2, model, interm)
			}
			if s2.Seen != s.Seen || s2.Rows() != s.Rows() {
				t.Fatal("shape changed across re-encode")
			}
			// Accepted samples must also be safe to query.
			if len(s.Cols) > 0 && s.Rows() > 0 {
				s.MeanEstimate(0)
				s.TopK(0, 3, true)
			}
			return nil
		})
	})
}
