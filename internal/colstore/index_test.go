package colstore

import (
	"testing"

	"mistique/internal/quant"
)

// putBlocks stores a column split into blocks of the store's RowBlock size.
func putBlocks(t *testing.T, s *Store, model, interm, col string, vals []float32, q *quant.Quantizer) {
	t.Helper()
	br := s.RowBlockRows()
	for b := 0; b*br < len(vals); b++ {
		lo, hi := b*br, (b+1)*br
		if hi > len(vals) {
			hi = len(vals)
		}
		if _, err := s.PutColumn(key(model, interm, col, b), vals[lo:hi], q); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGetColumnRange(t *testing.T) {
	s := openTest(t, Config{RowBlockRows: 100})
	vals := make([]float32, 250)
	for i := range vals {
		vals[i] = float32(i)
	}
	putBlocks(t, s, "m", "i", "c", vals, nil)

	got, err := s.GetColumnRange("m", "i", "c", 150, 220)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 70 || got[0] != 150 || got[69] != 219 {
		t.Fatalf("range read: len %d first %v last %v", len(got), got[0], got[len(got)-1])
	}
	// Only blocks 1 and 2 should be touched; block 0 stays cold. Verify by
	// flushing, dropping cache and counting disk reads.
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().DiskReads
	if _, err := s.GetColumnRange("m", "i", "c", 150, 220); err != nil {
		t.Fatal(err)
	}
	reads := s.Stats().DiskReads - before
	if reads > 2 {
		t.Fatalf("range read touched %d partitions, want <= 2", reads)
	}

	// Errors.
	if _, err := s.GetColumnRange("m", "i", "c", -1, 10); err == nil {
		t.Fatal("negative from accepted")
	}
	if _, err := s.GetColumnRange("m", "i", "c", 10, 5); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := s.GetColumnRange("m", "i", "c", 200, 400); err == nil {
		t.Fatal("out-of-bounds range accepted")
	}
	if _, err := s.GetColumnRange("m", "i", "ghost", 0, 10); err == nil {
		t.Fatal("missing column accepted")
	}
}

// TestScanColumnOps: the threshold predicates the store re-exports, applied
// to a column read back across block boundaries, count the same rows as the
// predicates' definitions.
func TestScanColumnOps(t *testing.T) {
	s := openTest(t, Config{RowBlockRows: 3})
	vals := []float32{5, 10, 15, 20}
	putBlocks(t, s, "m", "i", "c", vals, nil)
	got, err := s.GetColumnRange("m", "i", "c", 0, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		op    Op
		bound float32
		want  int
	}{
		{Gt, 10, 2},
		{Ge, 10, 3},
		{Lt, 10, 1},
		{Le, 10, 2},
	}
	for _, c := range cases {
		n := 0
		for _, v := range got {
			if c.op.Match(v, c.bound) {
				n++
			}
		}
		if n != c.want {
			t.Errorf("%v %v: %d matches, want %d", c.op, c.bound, n, c.want)
		}
	}
	if Gt.String() != ">" || Le.String() != "<=" {
		t.Error("Op strings")
	}
}

// TestColumnSignatureTracksPhysicalIdentity: the signature an index is
// stamped with holds no summary of the values, so every change of a
// column's content must reach it through a block's partition, chunk index
// or partition generation.
func TestColumnSignatureTracksPhysicalIdentity(t *testing.T) {
	s := openTest(t, Config{RowBlockRows: 100})
	sig := func() uint32 {
		t.Helper()
		v, err := s.ColumnSignature("m", "i", "c")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	vals := make([]float32, 150)
	for i := range vals {
		vals[i] = float32(i)
	}
	putBlocks(t, s, "m", "i", "c", vals, nil)
	putBlocks(t, s, "m", "gone", "c", randCol(100, 7), nil)
	before := sig()

	// A grown open block replaces its chunk under the same key.
	grown := append(append([]float32(nil), vals[100:]...), 1e6)
	if _, err := s.PutColumnReplace(key("m", "i", "c", 1), grown, nil); err != nil {
		t.Fatal(err)
	}
	afterReplace := sig()
	if afterReplace == before {
		t.Fatal("signature unchanged by PutColumnReplace")
	}

	// Compaction rewrites the shared partition under a new generation.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.DeleteColumns("m", "gone") == 0 {
		t.Fatal("nothing deleted")
	}
	if dropped, _, err := s.Compact(); err != nil || dropped == 0 {
		t.Fatalf("compact dropped %d chunks, err %v", dropped, err)
	}
	afterCompact := sig()
	if afterCompact == afterReplace {
		t.Fatal("signature unchanged by Compact")
	}

	// Deleting the column and storing it again maps it to fresh chunks.
	if s.DeleteColumns("m", "i") == 0 {
		t.Fatal("nothing deleted")
	}
	putBlocks(t, s, "m", "i", "c", append(vals[:100:100], grown...), nil)
	if sig() == afterCompact {
		t.Fatal("signature unchanged by DeleteColumns and a re-put")
	}
}
