package colstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestDeleteModelAndCompact(t *testing.T) {
	s := openTest(t, Config{})
	// Two models; m2 shares one column's data with m1 (dedup).
	shared := randCol(500, 1)
	own1 := randCol(500, 2)
	own2 := randCol(500, 3)
	s.PutColumn(key("m1", "i", "shared", 0), shared, nil)
	s.PutColumn(key("m1", "i", "own", 0), own1, nil)
	s.PutColumn(key("m2", "i", "shared", 0), shared, nil) // dedups to m1's chunk
	s.PutColumn(key("m2", "i", "own", 0), own2, nil)

	if removed := s.DeleteModel("m1"); removed != 2 {
		t.Fatalf("removed %d, want 2", removed)
	}
	if s.DeleteModel("ghost") != 0 {
		t.Fatal("phantom delete")
	}
	// m1's columns are gone; m2's remain readable, including the shared one.
	if s.Has(key("m1", "i", "own", 0)) {
		t.Fatal("deleted column still present")
	}
	got, err := s.GetColumn(key("m2", "i", "shared", 0))
	if err != nil || got[0] != shared[0] {
		t.Fatalf("shared column unreadable after delete: %v", err)
	}

	// Only m1's exclusive chunk is garbage (2000 bytes).
	dropped, reclaimed, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 || reclaimed != 2000 {
		t.Fatalf("compact dropped %d / %d bytes", dropped, reclaimed)
	}
	// Everything still readable after remapping.
	for _, k := range []ColumnKey{key("m2", "i", "shared", 0), key("m2", "i", "own", 0)} {
		if _, err := s.GetColumn(k); err != nil {
			t.Fatalf("post-compact read %v: %v", k, err)
		}
	}
	// Idempotent: nothing left to reclaim.
	if d2, r2, err := s.Compact(); err != nil || d2 != 0 || r2 != 0 {
		t.Fatalf("second compact: %d/%d/%v", d2, r2, err)
	}
}

func TestCompactOnDiskPartitions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{PartitionTargetBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.PutColumn(key("m1", "i", fmt.Sprintf("c%d", i), 0), randCol(512, int64(i)), nil)
		s.PutColumn(key("m2", "i", fmt.Sprintf("c%d", i), 0), randCol(512, int64(100+i)), nil)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before, _ := s.DiskBytes()
	s.DeleteModel("m1")
	if _, _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	after, _ := s.DiskBytes()
	if after >= before {
		t.Fatalf("compaction did not shrink disk: %d -> %d", before, after)
	}
	// Survives reopen.
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s2.GetColumn(key("m2", "i", fmt.Sprintf("c%d", i), 0)); err != nil {
			t.Fatalf("reopened read after compact: %v", err)
		}
		if s2.Has(key("m1", "i", fmt.Sprintf("c%d", i), 0)) {
			t.Fatal("deleted column visible after reopen")
		}
	}
}

func TestDeletePreventsDedupResurrection(t *testing.T) {
	s := openTest(t, Config{})
	vals := randCol(100, 9)
	s.PutColumn(key("m1", "i", "c", 0), vals, nil)
	s.DeleteModel("m1")
	// Re-putting identical data must NOT dedup against the garbage chunk.
	res, err := s.PutColumn(key("m2", "i", "c", 0), vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deduped {
		t.Fatal("dedup resurrected a garbage chunk")
	}
	if got, err := s.GetColumn(key("m2", "i", "c", 0)); err != nil || got[0] != vals[0] {
		t.Fatalf("re-put read: %v", err)
	}
}

func TestCompactEmptyPartitionRemoved(t *testing.T) {
	s := openTest(t, Config{PartitionTargetBytes: 1 << 10})
	s.PutColumn(key("m1", "i", "c", 0), randCol(512, 1), nil) // fills one partition
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.DeleteModel("m1")
	dropped, _, err := s.Compact()
	if err != nil || dropped != 1 {
		t.Fatalf("compact: %d, %v", dropped, err)
	}
	if st := s.Stats(); st.Partitions != 0 {
		t.Fatalf("empty partition survived: %+v", st.Partitions)
	}
}

func TestVerifyHealthyStore(t *testing.T) {
	s := openTest(t, Config{})
	for i := 0; i < 5; i++ {
		s.PutColumn(key("m", "i", fmt.Sprintf("c%d", i), 0), randCol(200, int64(i)), nil)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("healthy store reported problems: %v", rep.Problems)
	}
	if rep.Chunks != 5 || rep.Columns != 5 || rep.GarbageChunks != 0 {
		t.Fatalf("report %+v", rep)
	}
}

func TestVerifyFindsGarbageAndCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{PartitionTargetBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s.PutColumn(key("m1", "i", "a", 0), randCol(400, 1), nil)
	s.PutColumn(key("m2", "i", "b", 0), randCol(400, 2), nil)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.DeleteModel("m1")
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.GarbageChunks != 1 {
		t.Fatalf("garbage %d, want 1", rep.GarbageChunks)
	}

	// Corrupt one partition file on disk and drop caches: Verify reports it.
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "partition_*.bin.gz"))
	if len(matches) == 0 {
		t.Fatal("no partitions on disk")
	}
	if err := os.Truncate(matches[0], 3); err != nil {
		t.Fatal(err)
	}
	rep, err = s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) == 0 {
		t.Fatal("corruption not reported")
	}
}

// TestPutColumnReplaceGrowsOpenBlock covers the streaming engine's
// open-block lifecycle: the same key is re-put with ever longer prefixes
// of a filling row block, each swap replacing the previous chunk without
// the key ever going unresolvable, and the displaced chunks are reclaimed
// by Compact.
func TestPutColumnReplaceGrowsOpenBlock(t *testing.T) {
	s := openTest(t, Config{})
	k := key("live", "acts", "v", 0)
	full := randCol(512, 7)

	for _, n := range []int{100, 100, 256, 512} {
		if _, err := s.PutColumnReplace(k, full[:n], nil); err != nil {
			t.Fatalf("replace with %d rows: %v", n, err)
		}
		got, err := s.GetColumn(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("read %d rows after replace, want %d", len(got), n)
		}
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("row %d = %v, want %v", i, got[i], full[i])
			}
		}
	}

	// Plain PutColumn still rejects a conflicting re-put.
	if _, err := s.PutColumn(k, full[:8], nil); err == nil {
		t.Fatal("conflicting PutColumn accepted")
	}

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetColumn(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(full) {
		t.Fatalf("post-compact read %d rows, want %d", len(got), len(full))
	}
}
