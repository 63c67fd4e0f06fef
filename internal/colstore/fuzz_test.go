package colstore

import (
	"bytes"
	"compress/gzip"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"mistique/internal/codec"
	"mistique/internal/durable"
	"mistique/internal/durable/durabletest"
	"mistique/internal/quant"
)

// writePartitionTo serializes chunks and writes the uncompressed image to
// w, returning the byte count.
func writePartitionTo(w io.Writer, chunks []*chunk) (int64, error) {
	img := serializePartition(grabBuf(), chunks)
	n, err := w.Write(img)
	releaseBuf(img)
	return int64(n), err
}

// readPartitionFrom reads a partition from r; the program's path is
// readPartitionFile. A stream starting with a codec framing — gzip magic
// or the v3 container — is decompressed first; anything else is treated
// as a bare image. Unknown container versions or codec IDs fail with
// durable.ErrUnsupported, exactly like the file path.
func readPartitionFrom(r io.Reader) ([]*chunk, int64, error) {
	img, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, err
	}
	framed := (len(img) >= 2 && img[0] == 0x1f && img[1] == 0x8b) ||
		(len(img) >= 4 && string(img[:4]) == contMagic)
	if framed {
		img, err = decodePartitionImage(img, 0)
		if err != nil {
			return nil, 0, err
		}
	}
	return parsePartition(img)
}

// gzipped compresses a raw partition image the way flush does.
func gzipped(t testing.TB, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// validPartitionImage serializes a small two-chunk partition (one FULL, one
// KBIT chunk) exactly as the flush path would.
func validPartitionImage(t testing.TB) []byte {
	t.Helper()
	full := quant.NewFull()
	vals := []float32{0, 1.5, -2.25, 3, 4, 5.5, -6, 7}
	kq, err := quant.FitKBit(vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	chunks := []*chunk{
		{enc: full.Encode(nil, vals), count: len(vals), q: full},
		{enc: kq.Encode(nil, vals), count: len(vals), q: kq},
	}
	var raw bytes.Buffer
	if _, err := writePartitionTo(&raw, chunks); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes()
}

// containerFramed wraps a raw partition image in the v3 on-disk container
// under the given codec (what encodePartitionImage writes for non-gzip
// codecs).
func containerFramed(t testing.TB, c codec.Codec, raw []byte) []byte {
	t.Helper()
	framed, err := encodePartitionImage(nil, raw, c)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() == codec.IDGzip {
		// encodePartitionImage keeps gzip on the legacy bare framing; force
		// the container so the fuzzer also sees gzip-in-container... except
		// readers never produce it, so frame it by hand like a future binary
		// that containerized gzip would.
		hdr := append([]byte(contMagic), 3, 0, c.ID())
		framed = append(hdr, framed...)
	}
	return framed
}

// validDeltaImage serializes a partition holding a delta-generation chunk
// (image v3): a full base plus a chunk stored as XOR residual against it.
func validDeltaImage(t testing.TB) []byte {
	t.Helper()
	full := quant.NewFull()
	base := []float32{0, 1.5, -2.25, 3, 4, 5.5, -6, 7}
	child := []float32{0, 1.5, -2.25, 3.5, 4, 5.5, -6, 7.25}
	baseEnc := full.Encode(nil, base)
	childEnc := full.Encode(nil, child)
	chunks := []*chunk{
		{enc: baseEnc, count: len(base), q: full},
		{
			count:   len(child),
			q:       full,
			delta:   xorEnc(childEnc, baseEnc),
			base:    ChunkID{Partition: 0, Index: 0},
			depth:   1,
			fullCRC: crc32.Checksum(childEnc, durable.Castagnoli),
		},
	}
	var raw bytes.Buffer
	if _, err := writePartitionTo(&raw, chunks); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes()
}

// FuzzPartitionFile feeds arbitrary bytes through the partition read path
// (decompress -> header parse -> chunk decode) under the shared decoder
// contract. A corrupt or truncated file must produce a typed error — never
// a panic, never a runaway allocation — and anything that parses must
// survive a re-serialize/re-read round trip and decode every chunk cleanly.
func FuzzPartitionFile(f *testing.F) {
	raw := validPartitionImage(f)
	valid := gzipped(f, raw)
	f.Add(valid)
	// Truncated gzip stream: the classic crash-mid-flush file.
	f.Add(valid[:len(valid)/2])
	// Truncated partition body under intact compression.
	f.Add(gzipped(f, raw[:len(raw)-3]))
	// Corrupted magic and version.
	badMagic := append([]byte(nil), raw...)
	badMagic[0] = 'X'
	f.Add(gzipped(f, badMagic))
	badVersion := append([]byte(nil), raw...)
	badVersion[4] = 0xff
	f.Add(gzipped(f, badVersion))
	// Header promising a absurd chunk count / blob length.
	lies := append([]byte(nil), raw...)
	lies[6], lies[7], lies[8], lies[9] = 0xff, 0xff, 0xff, 0xff
	f.Add(gzipped(f, lies))
	f.Add([]byte{})
	// v3 container framings: every registered codec, truncated payloads,
	// an unknown codec ID, and a future container version.
	for _, name := range []string{"gzip", "store", "actz"} {
		c, err := codec.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		framed := containerFramed(f, c, raw)
		f.Add(framed)
		f.Add(framed[:len(framed)/2])
		f.Add(framed[:contHdrLen+1])
	}
	// Image v3 (delta generations): intact, truncated mid-extras, bad
	// flags byte, and a lying base-partition field.
	raw3 := validDeltaImage(f)
	f.Add(gzipped(f, raw3))
	f.Add(gzipped(f, raw3[:len(raw3)-7]))
	badFlags := append([]byte(nil), raw3...)
	badFlags[10] = 0x40 // first chunk's flags byte: neither full nor delta
	f.Add(gzipped(f, badFlags))
	f.Add(containerFramed(f, codec.MustByID(codec.IDActz), raw3))
	unknownID := containerFramed(f, codec.MustByID(codec.IDStore), raw)
	unknownID[6] = 0x7f
	f.Add(unknownID)
	futureVersion := containerFramed(f, codec.MustByID(codec.IDActz), raw)
	futureVersion[4] = 0x09
	f.Add(futureVersion)

	f.Fuzz(func(t *testing.T, data []byte) {
		// A codec legitimately expands its input, so the contract's
		// allocation bound starts at the decompressed image; the framing
		// only has to fail typed.
		img, err := decodePartitionImage(data, 0)
		if err != nil {
			if !errors.Is(err, durable.ErrCorrupt) && !errors.Is(err, durable.ErrUnsupported) {
				t.Fatalf("untyped framing error: %v", err)
			}
			img = data // not framed: a bare image, as readPartitionFrom reads it
		}
		durabletest.Input(t, img, reparse(t))
	})
}

// reparse parses a partition image and holds whatever parses to the
// format's promises: fully usable chunks and a stable round trip through
// the writer.
func reparse(t testing.TB) func([]byte) error {
	return func(img []byte) error {
		chunks, payload, err := parsePartition(img)
		if err != nil {
			return err // rejected cleanly: that's the contract
		}
		for i, c := range chunks {
			if c.count < 0 || c.count > 1<<20 {
				t.Fatalf("chunk %d parsed with absurd count %d", i, c.count)
			}
			if c.enc != nil {
				// A short payload for the claimed count is an error, not a panic.
				c.q.Decode(make([]float32, 0, c.count), c.enc, c.count)
			}
		}
		var raw bytes.Buffer
		if _, werr := writePartitionTo(&raw, chunks); werr != nil {
			t.Fatalf("re-serialize parsed partition: %v", werr)
		}
		again, payload2, rerr := readPartitionFrom(bytes.NewReader(raw.Bytes()))
		if rerr != nil {
			t.Fatalf("re-read serialized partition: %v", rerr)
		}
		if len(again) != len(chunks) || payload2 != payload {
			t.Fatalf("round trip changed shape: %d/%d chunks, %d/%d payload",
				len(again), len(chunks), payload2, payload)
		}
		for i := range again {
			if again[i].count != chunks[i].count || !bytes.Equal(again[i].enc, chunks[i].enc) ||
				!bytes.Equal(again[i].delta, chunks[i].delta) {
				t.Fatalf("round trip changed chunk %d", i)
			}
		}
		return nil
	}
}

// TestDecoderContract runs both sealed image versions through the shared
// decoder contract. The version field is read before the seal (a v1 image
// has none), so a flip there may read as a newer format.
func TestDecoderContract(t *testing.T) {
	for _, img := range [][]byte{validPartitionImage(t), validDeltaImage(t)} {
		durabletest.Contract(t, durabletest.Format{
			Image:     img,
			Sealed:    true,
			VersionAt: [2]int{4, 6},
			Decode:    reparse(t),
		})
	}
}

// TestGoldenParentImages: testdata/parent_v2.mqpt and parent_v3.mqpt were
// written by the commit before parsePartition moved onto durable.Reader
// (validPartitionImage and validDeltaImage, run there).
func TestGoldenParentImages(t *testing.T) {
	for name, now := range map[string][]byte{"parent_v2.mqpt": validPartitionImage(t), "parent_v3.mqpt": validDeltaImage(t)} {
		durabletest.Golden(t, name, now, func(img []byte) ([]byte, error) {
			chunks, _, err := parsePartition(img)
			if err != nil {
				return nil, err
			}
			return serializePartition(nil, chunks), nil
		})
	}
}

// FuzzColumnRoundTrip drives PutColumn/GetColumn with fuzz-chosen values
// and block shapes: whatever the store accepts it must read back exactly
// (FULL codec), flushed or not.
func FuzzColumnRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2))
	f.Add([]byte{0xff, 0xfe, 0, 0, 1, 1, 1, 1, 9, 9, 9, 9}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, blocks uint8) {
		if len(raw) == 0 || len(raw) > 1<<12 {
			return
		}
		vals := make([]float32, len(raw))
		for i, b := range raw {
			vals[i] = (float32(b) - 127) / 3
		}
		dir := t.TempDir()
		s, err := Open(dir, Config{RowBlockRows: 8})
		if err != nil {
			t.Fatal(err)
		}
		nBlocks := int(blocks%4) + 1
		per := len(vals) / nBlocks
		if per == 0 {
			return
		}
		for b := 0; b < nBlocks; b++ {
			part := vals[b*per : (b+1)*per]
			if _, err := s.PutColumn(key("m", "x", "c", b), part, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.DropCache(); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < nBlocks; b++ {
			got, err := s.GetColumn(key("m", "x", "c", b))
			if err != nil {
				t.Fatal(err)
			}
			want := vals[b*per : (b+1)*per]
			if len(got) != len(want) {
				t.Fatalf("block %d: %d values, want %d", b, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("block %d value %d: got %v want %v", b, i, got[i], want[i])
				}
			}
		}
	})
}
