package cas

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"mistique/internal/durable"
	"mistique/internal/durable/durabletest"
)

// FuzzCDCBoundaries hammers the chunker with hostile data and config:
// it must never panic, must be deterministic, must respect the
// min/max bounds, and splitting must be lossless.
func FuzzCDCBoundaries(f *testing.F) {
	f.Add([]byte("hello world"), 64, 128, 256)
	f.Add(bytes.Repeat([]byte{0}, 1<<16), 256, 1024, 4096)
	f.Add(bytes.Repeat([]byte{0xff}, 5000), 0, 0, 0)
	f.Add([]byte{}, -1, -1, -1)
	f.Add([]byte("x"), 1<<30, 1, 2)
	f.Fuzz(func(t *testing.T, data []byte, min, avg, max int) {
		cfg := ChunkerConfig{Min: min, Avg: avg, Max: max}
		cuts := Boundaries(data, cfg)
		again := Boundaries(data, cfg)
		if len(cuts) != len(again) {
			t.Fatal("non-deterministic boundaries")
		}
		eff := cfg.withDefaults()
		if eff.validate() != nil {
			eff = ChunkerConfig{}.withDefaults()
		}
		prev := 0
		for i, c := range cuts {
			if c != again[i] {
				t.Fatal("non-deterministic boundary value")
			}
			size := c - prev
			if size <= 0 || size > eff.Max {
				t.Fatalf("chunk size %d outside (0, %d]", size, eff.Max)
			}
			if i < len(cuts)-1 && size < eff.Min {
				t.Fatalf("interior chunk %d below min %d", size, eff.Min)
			}
			prev = c
		}
		if len(data) > 0 && (len(cuts) == 0 || cuts[len(cuts)-1] != len(data)) {
			t.Fatal("boundaries do not cover the input")
		}
		var joined []byte
		for _, chunk := range Split(data, cfg) {
			joined = append(joined, chunk...)
		}
		if !bytes.Equal(joined, data) {
			t.Fatal("split is not lossless")
		}
	})
}

// goldenTable and goldenObjects are the images behind testdata/parent.mqci
// and testdata/parent.mqco: two segments and three chunks; a full object,
// a delta on it and a compressed delta on that.
func goldenTable() []byte {
	t := &Table{entries: map[Key]*entry{}, segs: map[int]int64{0: 1024, 2: 64}, nextSeg: 3}
	for i, payload := range []string{"payload", "another payload", "x"} {
		t.entries[KeyOf([]byte(payload))] = &entry{
			seg: 2 * (i % 2), off: int64(7 * i), size: len(payload),
			crc: crc32.Checksum([]byte(payload), durable.Castagnoli),
		}
	}
	return t.marshalIndexLocked()
}

func goldenObjects() []byte {
	k0, k1 := KeyOf([]byte("payload")), KeyOf([]byte("another payload"))
	return marshalObjects(map[string]*object{
		"v0": {chunks: []Key{k0, k1}, size: 22, crc: 1, newBytes: 22},
		"v1": {chunks: []Key{k0}, size: 7, crc: 2, depth: 1, base: "v0", newBytes: 7},
		"v2": {chunks: []Key{k1}, size: 15, crc: 3, depth: 2, base: "v1", comp: true},
	})
}

// reencodeIndex and reencodeObjects round-trip an image through the parser
// and the marshaller, checking what the parser promises about anything it
// accepts.
func reencodeIndex(t testing.TB) func([]byte) ([]byte, error) {
	return func(raw []byte) ([]byte, error) {
		nextSeg, segs, entries, err := parseIndex(raw)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.size < 0 || e.off < 0 {
				t.Fatal("parser accepted negative geometry")
			}
		}
		return (&Table{entries: entries, segs: segs, nextSeg: nextSeg}).marshalIndexLocked(), nil
	}
}

func reencodeObjects(t testing.TB) func([]byte) ([]byte, error) {
	return func(raw []byte) ([]byte, error) {
		objs, err := parseObjects(raw)
		if err != nil {
			return nil, err
		}
		for name, o := range objs {
			if name == "" || o.size < 0 || (o.depth == 0) != (o.base == "") {
				t.Fatal("parser accepted inconsistent object")
			}
		}
		return marshalObjects(objs), nil
	}
}

// FuzzChunkTableFile feeds hostile bytes to the index and object-manifest
// parsers under the shared decoder contract: corrupt, truncated, or
// adversarial input must yield a typed error, never a panic, a runaway
// allocation or a silently-wrong table.
func FuzzChunkTableFile(f *testing.F) {
	// Seed with valid images so the fuzzer mutates real structure.
	f.Add(goldenTable())
	f.Add(goldenObjects())
	f.Add([]byte(idxMagic))
	f.Add([]byte(objMagic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, reencode := range []func([]byte) ([]byte, error){reencodeIndex(t), reencodeObjects(t)} {
			durabletest.Input(t, raw, func(raw []byte) error {
				_, err := reencode(raw)
				return err
			})
		}
	})
}

func TestDecoderContract(t *testing.T) {
	for name, f := range map[string]struct {
		image    []byte
		reencode func([]byte) ([]byte, error)
	}{
		"MQCI": {goldenTable(), reencodeIndex(t)},
		"MQCO": {goldenObjects(), reencodeObjects(t)},
	} {
		durabletest.Contract(t, durabletest.Format{
			Image:     f.image,
			Sealed:    true,
			VersionAt: [2]int{4, 6},
			Decode: func(raw []byte) error {
				again, err := f.reencode(raw)
				if err == nil && !bytes.Equal(again, raw) {
					t.Fatalf("%s: re-encode of an accepted image differs", name)
				}
				return err
			},
		})
	}
}

// TestGoldenParentImages: testdata/parent.mqci and parent.mqco were written
// by the commit before the parsers moved onto durable.Reader (goldenTable
// and goldenObjects, run there).
func TestGoldenParentImages(t *testing.T) {
	durabletest.Golden(t, "parent.mqci", goldenTable(), reencodeIndex(t))
	durabletest.Golden(t, "parent.mqco", goldenObjects(), reencodeObjects(t))
}

// FuzzDeltaDecode attacks the delta reconstruction path: arbitrary
// base/delta corruption must either be caught by the whole-object CRC
// or reconstruct the exact original — wrong bytes must never escape.
func FuzzDeltaDecode(f *testing.F) {
	f.Add([]byte("base bytes here"), []byte("new version bytes"), uint16(4), false)
	f.Add(bytes.Repeat([]byte{7}, 3000), bytes.Repeat([]byte{7}, 3010), uint16(100), true)
	f.Add([]byte{}, []byte{}, uint16(0), false)
	f.Fuzz(func(t *testing.T, base, data []byte, flipPos uint16, flipBase bool) {
		want := crc32.Checksum(data, durable.Castagnoli)
		residual := xorBytes(data, base)
		if len(residual) != len(data) {
			t.Fatal("residual length drifted")
		}

		// Honest reconstruction is exact.
		got, err := verifyPayload(xorBytes(residual, base), want, "fuzz")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("honest delta round-trip failed: %v", err)
		}

		// Corrupt one byte of the base or of the residual. The
		// reconstruction must either error (typed) or still equal the
		// original — a CRC collision on a single flipped byte cannot
		// happen, so in practice it always errors.
		cb := append([]byte(nil), base...)
		cr := append([]byte(nil), residual...)
		flipped := false
		if flipBase && len(cb) > 0 {
			cb[int(flipPos)%len(cb)] ^= 0x40
			flipped = true
		} else if !flipBase && len(cr) > 0 {
			cr[int(flipPos)%len(cr)] ^= 0x40
			flipped = true
		}
		got, err = verifyPayload(xorBytes(cr, cb), want, "fuzz")
		if err != nil {
			if !errors.Is(err, durable.ErrCorrupt) {
				t.Fatalf("untyped delta decode error: %v", err)
			}
			return
		}
		if !bytes.Equal(got, data) {
			t.Fatal("corrupted delta reconstructed to wrong bytes")
		}
		// Flipping a byte in the common prefix must change the output
		// and therefore fail the CRC; reaching here is only legitimate
		// when the flip landed in a region that cancels out (base tail
		// beyond the payload) or nothing was flipped.
		if flipped && flipBase && int(flipPos)%maxLen(cb) < len(data) {
			t.Fatal("base bit flip escaped the CRC")
		}
		if flipped && !flipBase {
			t.Fatal("residual bit flip escaped the CRC")
		}
	})
}

func maxLen(b []byte) int {
	if len(b) == 0 {
		return 1
	}
	return len(b)
}
