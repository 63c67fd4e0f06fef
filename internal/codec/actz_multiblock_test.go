package codec

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"mistique/internal/parallel"
)

// bigMixedImage builds a multi-megabyte image that cycles through the
// store's stream shapes, so one image covers every block mode (raw,
// sparse, shuffle+LZ+huff, ...) across many 128 KiB blocks.
func bigMixedImage(t testing.TB, blocks int) []byte {
	t.Helper()
	shapes := testStreams(t)
	order := []string{"f16-interleaved", "threshold-sparse", "kbit-uniform", "zeros", "text", "same-byte"}
	var img []byte
	for len(img) < blocks*actzMaxBlock {
		img = append(img, shapes[order[(len(img)/actzMaxBlock)%len(order)]]...)
	}
	return img[:blocks*actzMaxBlock+17] // odd tail: one short final block
}

// TestActzParallelMatchesSerial: blocks are independent frames, so
// encoding each 128 KiB block on its own goroutine and concatenating the
// frames in block order is byte-identical to the serial Compress, and the
// serial decoder reads the stitched image back (appending after any
// existing dst prefix). Block-grain reads depend on this independence.
func TestActzParallelMatchesSerial(t *testing.T) {
	c := MustByID(IDActz)
	srcs := testStreams(t)
	srcs["mixed-large"] = bigMixedImage(t, 24)

	for name, src := range srcs {
		serial, err := c.Compress(nil, src, 0)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		frames := make([][]byte, (len(src)+actzMaxBlock-1)/actzMaxBlock)
		err = parallel.ForEach(len(frames), func(i int) error {
			blk := src[i*actzMaxBlock : min(len(src), (i+1)*actzMaxBlock)]
			frame, err := c.Compress(nil, blk, 0)
			frames[i] = frame
			return err
		})
		if err != nil {
			t.Fatalf("%s: per-block compress: %v", name, err)
		}
		if stitched := bytes.Join(frames, nil); !bytes.Equal(stitched, serial) {
			t.Fatalf("%s: per-block frames differ from serial compress (%d vs %d bytes)",
				name, len(stitched), len(serial))
		}
		prefix := []byte("prefix-bytes")
		got, err := c.Decompress(append([]byte(nil), prefix...), serial)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], src) {
			t.Fatalf("%s: round trip with prefix changed data", name)
		}
	}
}

// TestActzParallelCorrupt: corrupted multi-block images decoded on many
// goroutines at once (sharing the pooled scratch buffers) agree with a
// decode on the caller — error-vs-ok and output — and never panic.
// (Payload bit flips that survive without error are legitimate: integrity
// is the partition CRC's job one layer up; the codec only validates
// structure.)
func TestActzParallelCorrupt(t *testing.T) {
	c := MustByID(IDActz)
	src := bigMixedImage(t, 8)
	comp, err := c.Compress(nil, src, 0)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	sawError := false
	for trial := 0; trial < 200; trial++ {
		bad := append([]byte(nil), comp...)
		switch trial % 3 {
		case 0: // flip a bit
			bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
		case 1: // truncate
			bad = bad[:rng.Intn(len(bad))]
		case 2: // trailing garbage
			bad = append(bad, byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		if bytes.Equal(bad, comp) {
			continue
		}
		want, wantErr := c.Decompress(nil, bad)
		err := parallel.ForEach(4, func(int) error {
			got, gotErr := c.Decompress(nil, bad)
			if (gotErr == nil) != (wantErr == nil) {
				t.Errorf("trial %d: concurrent err %v, caller err %v", trial, gotErr, wantErr)
			} else if gotErr == nil && !bytes.Equal(got, want) {
				t.Errorf("trial %d: concurrent and caller outputs diverge on accepted stream", trial)
			}
			return nil
		})
		if err != nil || t.Failed() {
			t.FailNow()
		}
		sawError = sawError || wantErr != nil
	}
	if !sawError {
		t.Fatal("no corruption trial produced an error — mutations too weak")
	}
}

// TestActzParallelConcurrentUse hammers one codec value from many
// goroutines at once — the scratch pool must be race-free (run under
// -race in CI).
func TestActzParallelConcurrentUse(t *testing.T) {
	c := MustByID(IDActz)
	src := bigMixedImage(t, 6)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Stagger inputs so goroutines exercise different block counts.
			mine := src[:len(src)-g*actzMaxBlock/2]
			for iter := 0; iter < 3; iter++ {
				comp, err := c.Compress(nil, mine, 0)
				if err != nil {
					errs <- err
					return
				}
				got, err := c.Decompress(nil, comp)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, mine) {
					errs <- errActzCorrupt
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent round trip: %v", err)
	}
}
