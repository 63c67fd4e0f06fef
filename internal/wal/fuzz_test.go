package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mistique/internal/durable"
	"mistique/internal/durable/durabletest"
)

// goldenLog is the image behind testdata/parent.wal: the header and three
// records, one of them empty.
func goldenLog() []byte {
	img := append([]byte{}, header...)
	for _, payload := range []string{"hello wal", "", "a second, longer record \x00\xff"} {
		var frame bytes.Buffer
		if err := writeFrame(&frame, []byte(payload)); err != nil {
			panic(err)
		}
		img = append(img, frame.Bytes()...)
	}
	return img
}

// reencode decodes a log image and writes its records back out: the valid
// prefix, byte for byte. It holds Decode to what replay relies on.
func reencode(t testing.TB) func([]byte) ([]byte, error) {
	return func(data []byte) ([]byte, error) {
		recs, validLen, err := Decode(data)
		if err != nil {
			if len(recs) != 0 || validLen != 0 {
				t.Fatalf("error decode returned records/validLen: %d/%d", len(recs), validLen)
			}
			return nil, err
		}
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d out of [0,%d]", validLen, len(data))
		}
		if validLen == 0 {
			if len(recs) != 0 {
				t.Fatalf("records without a valid prefix")
			}
			return nil, nil
		}
		out := bytes.NewBuffer(append([]byte{}, header...))
		for _, rec := range recs {
			writeFrame(out, rec)
		}
		if !bytes.Equal(out.Bytes(), data[:validLen]) {
			t.Fatalf("decoded records do not re-encode to the valid prefix")
		}
		return out.Bytes(), nil
	}
}

// The frames carry the checksums, not the image: damage to a frame ends
// the valid prefix instead of failing the decode, so only the Input rules
// and reencode's invariants apply.
func TestDecoderContract(t *testing.T) {
	durabletest.Contract(t, durabletest.Format{
		Image:     goldenLog(),
		VersionAt: [2]int{4, 8},
		Decode: func(data []byte) error {
			_, err := reencode(t)(data)
			return err
		},
	})
	// What is not covered by a frame checksum is the header: any damage to
	// it refuses the file rather than truncating it to nothing.
	for bit := 0; bit < 8*len(header); bit++ {
		mut := goldenLog()
		mut[bit/8] ^= 1 << (bit % 8)
		want := durable.ErrUnsupported // a version above 1 ...
		if bit/8 < 4 || mut[4] == 0 {
			want = durable.ErrCorrupt // ... a wrong magic, or version 0
		}
		if _, _, err := Decode(mut); !errors.Is(err, want) {
			t.Fatalf("header bit %d flipped: %v, want %v", bit, err, want)
		}
	}
}

// TestGoldenParentImage: testdata/parent.wal was written by the commit
// before Decode moved onto durable.Reader (goldenLog, run there).
func TestGoldenParentImage(t *testing.T) {
	durabletest.Golden(t, "parent.wal", goldenLog(), reencode(t))
}

// FuzzWALDecode throws arbitrary bytes at Decode under the shared decoder
// contract and checks the invariants replay relies on: the valid prefix
// re-decodes to the same records, and Open on the same bytes replays
// exactly those and leaves a clean file.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(header)
	good := goldenLog()
	f.Add(good)
	f.Add(good[:len(good)-3]) // torn payload
	f.Add(good[:len(header)+6])
	bad := append([]byte{}, good...)
	bad[len(bad)-1] ^= 0x5a // CRC mismatch
	f.Add(bad)
	f.Add(append(append([]byte{}, header...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)) // absurd length

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs [][]byte
		err := durabletest.Input(t, data, func(data []byte) error {
			prefix, err := reencode(t)(data)
			if err != nil {
				return err
			}
			// The valid prefix is a fixed point: decoding it again yields
			// the same records and consumes every byte.
			var validLen int64
			recs, validLen, err = Decode(prefix)
			if err != nil || validLen != int64(len(prefix)) {
				t.Fatalf("prefix re-decode diverged: validLen %d of %d, err %v", validLen, len(prefix), err)
			}
			return nil
		})
		// Open on the same bytes must replay exactly the decoded records
		// and leave a clean, fully-valid file behind (torn tail gone).
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, res, openErr := Open(path, nil)
		if (openErr != nil) != (err != nil) {
			t.Fatalf("Open says %v, Decode says %v", openErr, err)
		}
		if openErr != nil {
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatal("a refused file was modified")
			}
			return
		}
		defer l.Close()
		if len(res.Records) != len(recs) {
			t.Fatalf("Open replayed %d records, Decode found %d", len(res.Records), len(recs))
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs3, validLen3, err3 := Decode(after)
		if err3 != nil || len(recs3) != len(recs) || validLen3 != int64(len(after)) {
			t.Fatalf("post-Open file not clean: %d records, validLen %d of %d, err %v",
				len(recs3), validLen3, len(after), err3)
		}
	})
}
