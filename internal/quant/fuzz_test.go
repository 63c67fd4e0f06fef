package quant

import (
	"bytes"
	"testing"

	"mistique/internal/durable/durabletest"
)

// reunmarshal decodes a quantizer blob; what it accepts must be safe to
// Decode with and must marshal back to the bytes it consumed (trailing
// bytes, which partition chunks never carry, are tolerated and dropped).
func reunmarshal(t testing.TB) func([]byte) error {
	return func(blob []byte) error {
		var q Quantizer
		if err := q.UnmarshalBinary(blob); err != nil {
			return err
		}
		again, err := q.MarshalBinary()
		if err != nil || len(again) > len(blob) || !bytes.Equal(again, blob[:len(again)]) {
			t.Fatalf("accepted quantizer marshals to different bytes: %v", err)
		}
		// Whatever the tables say, decoding hostile payloads through them
		// must not index outside them.
		for _, enc := range [][]byte{nil, {0xff}, {0, 1, 2, 3, 0xfe, 0xff, 0x80, 0x7f}} {
			q.Decode(nil, enc, 4)
		}
		return nil
	}
}

// Quantizer blobs sit inside a partition chunk, under the chunk's CRC, so
// UnmarshalBinary itself only owes the unsealed contract.
func TestUnmarshalDecoderContract(t *testing.T) {
	for _, q := range fuzzSeeds(t) {
		blob, _ := q.MarshalBinary()
		durabletest.Contract(t, durabletest.Format{Image: blob, Decode: reunmarshal(t)})
	}
}

func fuzzSeeds(t testing.TB) []*Quantizer {
	vals := randVals(64, 6)
	kbit, err := FitKBit(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	thresh, err := FitThreshold(vals, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return []*Quantizer{NewFull(), NewLP(), kbit, thresh}
}

func FuzzQuantizerUnmarshal(f *testing.F) {
	for _, q := range fuzzSeeds(f) {
		blob, _ := q.MarshalBinary()
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KBit), 16, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // 2^32 boundaries of nothing
	f.Fuzz(func(t *testing.T, blob []byte) {
		durabletest.Input(t, blob, reunmarshal(t))
	})
}
