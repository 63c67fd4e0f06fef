package cas

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"mistique/internal/durable"
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

// FuzzChunkTableFile feeds hostile bytes to the index and
// object-manifest parsers: corrupt, truncated, or adversarial input
// must yield a typed error (ErrCorrupt/ErrUnsupported), never a panic
// and never a silently-wrong table.
func FuzzChunkTableFile(f *testing.F) {
	// Seed with valid images so the fuzzer mutates real structure.
	t := &Table{entries: map[Key]*entry{}, segs: map[int]int64{}}
	k := KeyOf([]byte("payload"))
	t.segs[0] = 1024
	t.nextSeg = 1
	t.entries[k] = &entry{seg: 0, off: 0, size: 7, crc: crc32.Checksum([]byte("payload"), durable.Castagnoli)}
	f.Add(t.marshalIndexLocked())
	f.Add(marshalObjects(map[string]*object{
		"v0": {chunks: []Key{k}, size: 7, crc: 1},
		"v1": {chunks: []Key{k}, size: 7, crc: 2, depth: 1, base: "v0"},
	}))
	f.Add([]byte(idxMagic))
	f.Add([]byte(objMagic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if _, _, entries, err := parseIndex(raw); err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnsupported) {
				t.Fatalf("untyped index parse error: %v", err)
			}
		} else {
			for _, e := range entries {
				if e.size < 0 || e.off < 0 {
					t.Fatal("parser accepted negative geometry")
				}
			}
		}
		if objs, err := parseObjects(raw); err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnsupported) {
				t.Fatalf("untyped object parse error: %v", err)
			}
		} else {
			for name, o := range objs {
				if name == "" || o.size < 0 || (o.depth == 0) != (o.base == "") {
					t.Fatal("parser accepted inconsistent object")
				}
			}
		}
	})
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
			if !errors.Is(err, ErrCorrupt) {
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
