package mistique

import (
	"testing"

	"mistique/internal/durable/durabletest"
)

var (
	goldenStreamHeader = encodeStreamHeader("live", "conv1/acts", []string{"a", "", "third column"})
	goldenStreamBatch  = encodeStreamBatch(4096, 3, [][]float32{{1, 2, 3}, {-4.5, 0, 6}})
)

// reencodeStreamRecord decodes a stream WAL record as whichever kind its
// first byte claims; what it accepts must survive a re-encode (compared
// through a second decode: an accepted uvarint need not be minimal).
func reencodeStreamRecord(t testing.TB) func([]byte) error {
	return func(rec []byte) error {
		if len(rec) > 0 && rec[0] == streamRecBatch {
			start, nRows, nCols, vals, err := decodeStreamBatch(rec)
			if err != nil {
				return err
			}
			if len(vals) != nRows*nCols || start < 0 {
				t.Fatalf("batch of %d x %d decoded %d values from row %d", nRows, nCols, len(vals), start)
			}
			rows := make([][]float32, nRows)
			for i := range rows {
				rows[i] = vals[i*nCols : (i+1)*nCols]
			}
			s2, r2, c2, v2, err := decodeStreamBatch(encodeStreamBatch(start, nCols, rows))
			if err != nil || s2 != start || r2 != nRows || c2 != nCols || len(v2) != len(vals) {
				t.Fatalf("batch changed across re-encode: %v", err)
			}
			return nil
		}
		model, interm, cols, err := decodeStreamHeader(rec)
		if err != nil {
			return err
		}
		m2, i2, c2, err := decodeStreamHeader(encodeStreamHeader(model, interm, cols))
		if err != nil || m2 != model || i2 != interm || len(c2) != len(cols) {
			t.Fatalf("header changed across re-encode: %v", err)
		}
		return nil
	}
}

// Stream records are WAL payloads: the frame around them carries the
// checksum, so the record decoders only owe the unsealed contract.
func TestStreamRecordDecoderContract(t *testing.T) {
	for _, rec := range [][]byte{goldenStreamHeader, goldenStreamBatch} {
		durabletest.Contract(t, durabletest.Format{Image: rec, Decode: reencodeStreamRecord(t)})
	}
	// A record of one kind is never accepted as the other.
	if _, _, _, err := decodeStreamHeader(goldenStreamBatch); err == nil {
		t.Fatal("batch record decoded as a header")
	}
	if _, _, _, _, err := decodeStreamBatch(goldenStreamHeader); err == nil {
		t.Fatal("header record decoded as a batch")
	}
}

func FuzzStreamRecordDecode(f *testing.F) {
	f.Add(goldenStreamHeader)
	f.Add(goldenStreamBatch)
	f.Add([]byte{})
	f.Add([]byte{streamRecBatch, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0xff, 0xff, 0x03}) // 2^32 rows x 2^16 cols of nothing
	f.Add([]byte{streamRecHeader, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})               // 2^32 columns of nothing
	f.Fuzz(func(t *testing.T, rec []byte) {
		durabletest.Input(t, rec, reencodeStreamRecord(t))
	})
}
