package codec

import (
	"bytes"
	"testing"
)

// FuzzActzDecode feeds arbitrary bytes to the actz container decoder: it
// must either error or return bytes, never panic, and never return more
// than the framing's own rawLen accounting allows.
func FuzzActzDecode(f *testing.F) {
	c := MustByID(IDActz)
	seedSrcs := [][]byte{
		bytes.Repeat([]byte{0}, 4096),
		bytes.Repeat([]byte("abcd"), 1024),
		{1, 2, 3},
	}
	for _, src := range seedSrcs {
		comp, err := c.Compress(nil, src, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp)
		f.Add(comp[:len(comp)/2])
	}
	f.Add([]byte{amHuff, 0x80, 0x01, 0x02})
	f.Add([]byte{amLZHuff | amShuffle, 0xff, 0xff})
	// Multi-block images: every frame of a many-block image goes through
	// the same serial block loop as a single-block one.
	multi, err := c.Compress(nil, bigMixedImage(f, 3), 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(multi)
	f.Add(multi[:len(multi)*2/3])
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := c.Decompress(nil, data)
		if err != nil {
			return
		}
		// Whatever decoded must itself re-encode and decode stably.
		comp, cerr := c.Compress(nil, out, 0)
		if cerr != nil {
			t.Fatalf("re-compress decoded output: %v", cerr)
		}
		again, derr := c.Decompress(nil, comp)
		if derr != nil || !bytes.Equal(again, out) {
			t.Fatalf("re-round-trip failed: err=%v", derr)
		}
	})
}

// FuzzActzRoundTrip: every input must compress and decompress back to
// itself exactly, under every registered codec.
func FuzzActzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x42})
	f.Add(bytes.Repeat([]byte{0, 1}, 2048))
	f.Add(bytes.Repeat([]byte{0}, 1<<13))
	f.Add(bigMixedImage(f, 3)) // multi-block, every block mode
	f.Fuzz(func(t *testing.T, src []byte) {
		for _, name := range []string{"store", "actz", "gzip"} {
			c, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := c.Compress(nil, src, 1)
			if err != nil {
				t.Fatalf("%s compress: %v", name, err)
			}
			got, err := c.Decompress(nil, comp)
			if err != nil {
				t.Fatalf("%s decompress own output: %v", name, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s round trip changed data", name)
			}
		}
	})
}

// FuzzHuffDecode targets the entropy decoder alone — the layer with the
// bit-twiddling (LUT fill, Kraft check, bit-buffer refills) most likely
// to hide an out-of-bounds read.
func FuzzHuffDecode(f *testing.F) {
	valid, ok := huffCompress(nil, bytes.Repeat([]byte("aaab"), 4096))
	if !ok {
		f.Fatal("seed compress bailed")
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := huffDecompress(nil, data, actzMaxBlock)
		if err == nil && len(out) > actzMaxBlock {
			t.Fatalf("decoded past maxOut: %d", len(out))
		}
	})
}

// FuzzLZDecode targets the match decoder: offsets, lengths, and the
// overlap-copy path.
func FuzzLZDecode(f *testing.F) {
	valid, ok := lzCompress(nil, bytes.Repeat([]byte("abcdabcd--"), 2048))
	if !ok {
		f.Fatal("seed compress bailed")
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := lzDecompress(nil, data, actzMaxBlock)
		if err == nil && len(out) > actzMaxBlock {
			t.Fatalf("decoded past maxOut: %d", len(out))
		}
	})
}
