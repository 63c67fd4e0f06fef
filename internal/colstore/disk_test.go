package colstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mistique/internal/codec"
	"mistique/internal/durable"
	"mistique/internal/faultfs"
	"mistique/internal/quant"
)

// testChunks builds n small FULL-codec chunks with deterministic values.
func testChunks(t testing.TB, n int) []*chunk {
	t.Helper()
	q := quant.NewFull()
	chunks := make([]*chunk, n)
	for i := range chunks {
		vals := randCol(64, int64(100+i))
		chunks[i] = &chunk{enc: q.Encode(nil, vals), count: len(vals), q: q}
	}
	return chunks
}

// TestSerializePartitionHeadroom is the regression test for the pooled-
// buffer regrow bug: serializing a slightly larger snapshot of the same
// partition into the previously grown buffer must NOT reallocate, because
// the grow path reserves headroom beyond the exact need. Before the fix
// the buffer was grown to the exact image size, so every flush of a
// monotonically growing partition reallocated and the pool never
// converged.
func TestSerializePartitionHeadroom(t *testing.T) {
	chunks := testChunks(t, 32)
	img := serializePartition(nil, chunks)
	if cap(img) <= len(img) {
		t.Fatalf("grow reserved no headroom: len=%d cap=%d", len(img), cap(img))
	}
	// One more small chunk — the shape of the next flush of this partition.
	grown := append(chunks, testChunks(t, 1)...)
	img2 := serializePartition(img[:0], grown)
	if len(img2) <= len(img) {
		t.Fatalf("adding a chunk did not grow the image: %d -> %d", len(img), len(img2))
	}
	if &img[0] != &img2[0] {
		t.Fatalf("serializing %d extra bytes into a buffer with %d spare reallocated",
			len(img2)-len(img), cap(img)-len(img))
	}
}

// TestPartitionFileRoundTripCodecs writes and reads one partition file
// under every registered codec and checks the decoded chunks match
// bit-exact, plus the on-disk framing rules: gzip files keep the legacy
// bare-gzip framing (old binaries can read them), everything else gets
// the v3 container with its codec ID in the header.
func TestPartitionFileRoundTripCodecs(t *testing.T) {
	chunks := testChunks(t, 8)
	for _, name := range []string{"gzip", "store", "actz"} {
		t.Run(name, func(t *testing.T) {
			c, err := codec.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), partFileName(0, 0))
			size, raw, _, err := writePartitionFileAt(faultfs.OS(), path, chunks, c)
			if err != nil {
				t.Fatal(err)
			}
			head, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(head)) != size {
				t.Fatalf("reported size %d, file has %d", size, len(head))
			}
			if name == "gzip" {
				if head[0] != 0x1f || head[1] != 0x8b {
					t.Fatalf("gzip file lost its legacy framing: % x", head[:4])
				}
			} else {
				if string(head[:4]) != contMagic || head[6] != c.ID() {
					t.Fatalf("v3 container header wrong: % x", head[:contHdrLen])
				}
			}
			got, _, fileBytes, err := readPartitionFile(path, raw)
			if err != nil {
				t.Fatal(err)
			}
			if fileBytes != size || len(got) != len(chunks) {
				t.Fatalf("read back %d chunks / %d bytes, want %d / %d", len(got), fileBytes, len(chunks), size)
			}
			for i := range chunks {
				if got[i].count != chunks[i].count || !bytes.Equal(got[i].enc, chunks[i].enc) {
					t.Fatalf("chunk %d changed across the disk round trip", i)
				}
			}
		})
	}
}

// TestLegacyFilesReadableUnderAnyCodecConfig: a store that wrote its
// files with gzip must reopen and serve them even when the config now
// says actz (and vice versa) — the reader dispatches on each file's own
// framing, never on the config.
func TestLegacyFilesReadableUnderAnyCodecConfig(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{Codec: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	want := fillStore(t, s, "m", 4, 400)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{Codec: "actz"})
	if err != nil {
		t.Fatal(err)
	}
	if !clean(s2.LastRecovery()) {
		t.Fatalf("recovery not clean: %+v", s2.LastRecovery())
	}
	mustReadExact(t, s2, want)
	// New data flushed by this config lands in actz files; both vintages
	// must then serve from a third store with the default config.
	more := fillStore(t, s2, "m2", 4, 900)
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustReadExact(t, s3, want)
	mustReadExact(t, s3, more)
}

// TestUnknownCodecIDUnsupported: a v3 container naming a codec this
// binary does not have must fail with durable.ErrUnsupported.
func TestUnknownCodecIDUnsupported(t *testing.T) {
	chunks := testChunks(t, 2)
	path := filepath.Join(t.TempDir(), partFileName(0, 0))
	if _, _, _, err := writePartitionFileAt(faultfs.OS(), path, chunks, codec.MustByID(codec.IDActz)); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[6] = 0x7e // an ID nothing registers
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = readPartitionFile(path, 0)
	if !errors.Is(err, durable.ErrUnsupported) {
		t.Fatalf("unknown codec ID: got %v, want durable.ErrUnsupported", err)
	}
}

// TestFutureContainerVersionUnsupported: same for a bumped container
// version, even when the codec ID would be known.
func TestFutureContainerVersionUnsupported(t *testing.T) {
	chunks := testChunks(t, 2)
	path := filepath.Join(t.TempDir(), partFileName(0, 0))
	if _, _, _, err := writePartitionFileAt(faultfs.OS(), path, chunks, codec.MustByID(codec.IDStore)); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[4] = contVersion + 1
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = readPartitionFile(path, 0)
	if !errors.Is(err, durable.ErrUnsupported) {
		t.Fatalf("future container version: got %v, want durable.ErrUnsupported", err)
	}
}

// TestFutureImageVersionUnsupported: an inner image stamped with a
// version beyond partVersion is a forward-compat rejection too, not a
// CRC error.
func TestFutureImageVersionUnsupported(t *testing.T) {
	chunks := testChunks(t, 2)
	img := serializePartition(nil, chunks)
	img[4] = partVersionDelta + 1
	_, _, err := parsePartition(img)
	if !errors.Is(err, durable.ErrUnsupported) {
		t.Fatalf("future image version: got %v, want durable.ErrUnsupported", err)
	}
}

// evilCodec round-trips wrong: Decompress flips a byte in the middle of
// the image. It stands in for any codec bug — the chunk CRCs must catch
// the damage so no query ever sees wrong values.
type evilCodec struct{}

func (evilCodec) Name() string { return "evil-test" }
func (evilCodec) ID() byte     { return 0x80 }
func (evilCodec) Compress(dst, src []byte, _ int) ([]byte, error) {
	return append(dst, src...), nil
}
func (evilCodec) Decompress(dst, src []byte) ([]byte, error) {
	out := append(dst, src...)
	if n := len(out); n > 0 {
		out[n/2] ^= 0x01
	}
	return out, nil
}

// TestWrongCodecRoundTripCaughtByCRC: a codec that silently corrupts its
// payload must be caught by the image checksums — the read fails, it is
// NOT durable.ErrUnsupported (the format was understood; the bytes are
// bad), and no chunks are returned.
func TestWrongCodecRoundTripCaughtByCRC(t *testing.T) {
	codec.Register(evilCodec{})
	chunks := testChunks(t, 4)
	path := filepath.Join(t.TempDir(), partFileName(0, 0))
	if _, _, _, err := writePartitionFileAt(faultfs.OS(), path, chunks, evilCodec{}); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := readPartitionFile(path, 0)
	if err == nil {
		t.Fatal("corrupting decompress produced a clean read")
	}
	if errors.Is(err, durable.ErrUnsupported) {
		t.Fatalf("CRC corruption misclassified as unsupported format: %v", err)
	}
	if got != nil {
		t.Fatal("corrupt read returned chunks alongside the error")
	}
}

// TestBareImageReadableViaSeam: readPartitionFrom's historical contract —
// an unframed image parses directly.
func TestBareImageReadableViaSeam(t *testing.T) {
	chunks := testChunks(t, 3)
	img := serializePartition(nil, chunks)
	got, _, err := readPartitionFrom(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(chunks) {
		t.Fatalf("bare image: %d chunks, want %d", len(got), len(chunks))
	}
}

// TestCompactMigratesCodec: a garbage-free store reopened under a
// different codec must have Compact rewrite every partition file into
// the configured codec (identity chunk remap), and a second Compact
// must leave the already-migrated files alone.
func TestCompactMigratesCodec(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{Codec: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	want := fillStore(t, s, "m", 4, 1300)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	codecOf := func(t *testing.T) map[string]byte {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(dir, "partition_*.bin.gz"))
		if err != nil || len(matches) == 0 {
			t.Fatalf("globbing partitions: %v (%d files)", err, len(matches))
		}
		ids := make(map[string]byte, len(matches))
		for _, m := range matches {
			id, err := fileCodecID(m)
			if err != nil {
				t.Fatalf("fileCodecID(%s): %v", m, err)
			}
			ids[m] = id
		}
		return ids
	}
	for p, id := range codecOf(t) {
		if id != codec.IDGzip {
			t.Fatalf("%s: codec %#x before migration, want gzip", p, id)
		}
	}

	s2, err := Open(dir, Config{Codec: "actz"})
	if err != nil {
		t.Fatal(err)
	}
	dropped, reclaimed, err := s2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || reclaimed != 0 {
		t.Fatalf("migration-only compact dropped %d chunks / %d bytes, want none", dropped, reclaimed)
	}
	after := codecOf(t)
	for p, id := range after {
		if id != codec.IDActz {
			t.Fatalf("%s: codec %#x after migration, want actz", p, id)
		}
	}
	mustReadExact(t, s2, want)

	// Same codec again: nothing to migrate, files must not be rewritten
	// (the generation-numbered file set stays identical).
	if _, _, err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	again := codecOf(t)
	if len(again) != len(after) {
		t.Fatalf("idempotent compact changed file count: %d -> %d", len(after), len(again))
	}
	for p := range after {
		if _, ok := again[p]; !ok {
			t.Fatalf("idempotent compact rewrote %s", p)
		}
	}

	// The migrated store must reopen cleanly under any config.
	s3, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !clean(s3.LastRecovery()) {
		t.Fatalf("recovery not clean after migration: %+v", s3.LastRecovery())
	}
	mustReadExact(t, s3, want)
}
