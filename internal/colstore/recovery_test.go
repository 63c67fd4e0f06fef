package colstore

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"mistique/internal/codec"
	"mistique/internal/faultfs"
)

// Fault-injected crash-safety suite. The pattern throughout: run a write
// path (flush, compaction, manifest write) with a faultfs.Injector armed
// to crash at one specific point, then reopen the directory with a clean
// FS and assert the recovery invariants — every column reads back exactly
// the stored values or answers ErrUnavailable/ErrNotStored; never wrong
// data, never a panic — and that re-putting the lost columns (what the
// engine's rerun fallback does) fully heals the store.

// fillStore puts nCols deterministic columns and returns key -> values.
// Distinct seedBases yield distinct data — identical ones would dedup and
// leave nothing for the flush under test to write.
func fillStore(t *testing.T, s *Store, model string, nCols int, seedBase int64) map[ColumnKey][]float32 {
	t.Helper()
	data := make(map[ColumnKey][]float32, nCols)
	for j := 0; j < nCols; j++ {
		k := key(model, "i", fmt.Sprintf("c%d", j), 0)
		vals := randCol(256, seedBase+int64(j))
		if _, err := s.PutColumn(k, vals, nil); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		data[k] = vals
	}
	return data
}

// verifyNoWrongValues checks every column either reads back exactly or
// fails with a recoverable sentinel. Returns the lost keys.
func verifyNoWrongValues(t *testing.T, s *Store, data map[ColumnKey][]float32) []ColumnKey {
	t.Helper()
	var lost []ColumnKey
	for k, want := range data {
		got, err := s.GetColumn(k)
		if err != nil {
			if !errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrNotStored) {
				t.Fatalf("column %s failed with non-recoverable error: %v", k, err)
			}
			lost = append(lost, k)
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("column %s length %d, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("column %s silently corrupted at %d", k, i)
			}
		}
	}
	return lost
}

// mustReadExact asserts every column reads back exactly.
func mustReadExact(t *testing.T, s *Store, data map[ColumnKey][]float32) {
	t.Helper()
	if lost := verifyNoWrongValues(t, s, data); len(lost) > 0 {
		t.Fatalf("columns unavailable, want all readable: %v", lost)
	}
}

// relog re-puts every column (the store-level equivalent of the engine's
// rerun-and-rematerialize fallback) and asserts everything reads after.
func relog(t *testing.T, s *Store, data map[ColumnKey][]float32) {
	t.Helper()
	for k, vals := range data {
		if _, err := s.PutColumn(k, vals, nil); err != nil {
			t.Fatalf("re-put %s after recovery: %v", k, err)
		}
	}
	mustReadExact(t, s, data)
}

type faultPoint struct {
	name  string
	fault faultfs.Fault
}

// crashPoints enumerates every injection point of the flush write path:
// partition file create/write/sync/close/rename, manifest file ditto, and
// the two directory fsyncs.
func crashPoints() []faultPoint {
	pts := []faultPoint{
		{"partition-create", faultfs.Fault{Op: faultfs.OpCreate, PathContains: "partition_", Crash: true}},
		{"partition-torn-write", faultfs.Fault{Op: faultfs.OpWrite, PathContains: "partition_", AfterBytes: 64, Crash: true}},
		{"partition-sync", faultfs.Fault{Op: faultfs.OpSync, PathContains: "partition_", Crash: true}},
		{"partition-close", faultfs.Fault{Op: faultfs.OpClose, PathContains: "partition_", Crash: true}},
		{"partition-rename", faultfs.Fault{Op: faultfs.OpRename, PathContains: "partition_", Crash: true}},
		{"manifest-create", faultfs.Fault{Op: faultfs.OpCreate, PathContains: manifestName, Crash: true}},
		{"manifest-torn-write", faultfs.Fault{Op: faultfs.OpWrite, PathContains: manifestName, AfterBytes: 32, Crash: true}},
		{"manifest-sync", faultfs.Fault{Op: faultfs.OpSync, PathContains: manifestName, Crash: true}},
		{"manifest-close", faultfs.Fault{Op: faultfs.OpClose, PathContains: manifestName, Crash: true}},
		{"manifest-rename", faultfs.Fault{Op: faultfs.OpRename, PathContains: manifestName, Crash: true}},
		// SyncDir sees only the directory path; the Countdown selects which
		// call dies (0 = after the partition rename, 1 = after the manifest
		// rename).
		{"partition-syncdir", faultfs.Fault{Op: faultfs.OpSyncDir, Countdown: 0, Crash: true}},
		{"manifest-syncdir", faultfs.Fault{Op: faultfs.OpSyncDir, Countdown: 1, Crash: true}},
	}
	return pts
}

// crashCodecs are the codec configs every crash matrix runs under: the
// recovery invariants must hold regardless of how partition bytes are
// framed on disk.
var crashCodecs = []string{"gzip", "store", "actz"}

// TestCrashMatrixFirstFlush kills the very first flush at every injection
// point, under every codec. The committed state is "nothing": reopening
// must yield a working (possibly empty) store with no wrong values, and
// re-logging the data must fully heal it.
func TestCrashMatrixFirstFlush(t *testing.T) {
	for _, cdc := range crashCodecs {
		for _, fp := range crashPoints() {
			cdc, fp := cdc, fp
			t.Run(cdc+"/"+fp.name, func(t *testing.T) {
				dir := t.TempDir()
				inj := faultfs.NewInjector(nil)
				pinProcs(t, 1)
				s, err := Open(dir, Config{FS: inj, Codec: cdc})
				if err != nil {
					t.Fatal(err)
				}
				data := fillStore(t, s, "m", 6, 1000)
				inj.Arm(fp.fault)
				if err := s.Flush(); err == nil {
					t.Fatalf("flush survived a crash at %s", fp.name)
				}
				if !inj.Fired() {
					t.Fatalf("fault %s never fired", fp.name)
				}

				// "Reboot": reopen the directory with a clean filesystem.
				s2, err := Open(dir, Config{Codec: cdc})
				if err != nil {
					t.Fatalf("reopen after crash at %s: %v", fp.name, err)
				}
				verifyNoWrongValues(t, s2, data)
				relog(t, s2, data)
				if err := s2.Flush(); err != nil {
					t.Fatalf("flush after recovery: %v", err)
				}

				// And the healed state survives another reopen.
				s3, err := Open(dir, Config{Codec: cdc})
				if err != nil {
					t.Fatal(err)
				}
				mustReadExact(t, s3, data)
			})
		}
	}
}

// TestCrashMatrixSecondFlush kills the second flush at every injection
// point. The first flush's data is committed: it must read back exactly
// after the crash, at every point — the durability half of the contract.
// The uncommitted second batch may read exactly or be gone, never wrong.
func TestCrashMatrixSecondFlush(t *testing.T) {
	for _, cdc := range crashCodecs {
		for _, fp := range crashPoints() {
			cdc, fp := cdc, fp
			t.Run(cdc+"/"+fp.name, func(t *testing.T) {
				dir := t.TempDir()
				inj := faultfs.NewInjector(nil)
				pinProcs(t, 1)
				s, err := Open(dir, Config{FS: inj, Codec: cdc})
				if err != nil {
					t.Fatal(err)
				}
				committed := fillStore(t, s, "old", 4, 1000)
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				fresh := fillStore(t, s, "new", 4, 5000)
				inj.Arm(fp.fault)
				if err := s.Flush(); err == nil {
					t.Fatalf("flush survived a crash at %s", fp.name)
				}
				if !inj.Fired() {
					t.Fatalf("fault %s never fired", fp.name)
				}

				s2, err := Open(dir, Config{Codec: cdc})
				if err != nil {
					t.Fatalf("reopen after crash at %s: %v", fp.name, err)
				}
				mustReadExact(t, s2, committed)
				verifyNoWrongValues(t, s2, fresh)
				relog(t, s2, fresh)
			})
		}
	}
}

// TestCrashMatrixCompact kills compaction at every injection point,
// including the post-manifest removal of old-generation files. The kept
// model's data must read back exactly at every point: the generation
// scheme guarantees that whichever manifest survived references intact
// files, never a remapped file under the old index.
func TestCrashMatrixCompact(t *testing.T) {
	pts := append(crashPoints(),
		faultPoint{"old-gen-remove", faultfs.Fault{Op: faultfs.OpRemove, PathContains: "partition_", Crash: true}},
	)
	for _, cdc := range crashCodecs {
		for _, fp := range pts {
			cdc, fp := cdc, fp
			t.Run(cdc+"/"+fp.name, func(t *testing.T) {
				dir := t.TempDir()
				inj := faultfs.NewInjector(nil)
				pinProcs(t, 1)
				s, err := Open(dir, Config{FS: inj, Codec: cdc})
				if err != nil {
					t.Fatal(err)
				}
				// Interleave keep/drop columns so every partition holds garbage
				// after the delete and compaction rewrites (not removes) it.
				keep := make(map[ColumnKey][]float32)
				for j := 0; j < 4; j++ {
					kk := key("keep", "i", fmt.Sprintf("c%d", j), 0)
					kv := randCol(256, int64(2000+j))
					if _, err := s.PutColumn(kk, kv, nil); err != nil {
						t.Fatal(err)
					}
					keep[kk] = kv
					dk := key("drop", "i", fmt.Sprintf("c%d", j), 0)
					if _, err := s.PutColumn(dk, randCol(256, int64(3000+j)), nil); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				if n := s.DeleteModel("drop"); n != 4 {
					t.Fatalf("deleted %d columns, want 4", n)
				}

				inj.Arm(fp.fault)
				_, _, cerr := s.Compact()
				if !inj.Fired() {
					t.Skipf("fault %s not reached by this compaction", fp.name)
				}
				if cerr == nil && fp.fault.Op != faultfs.OpRemove {
					t.Fatalf("compact survived a crash at %s", fp.name)
				}

				s2, err := Open(dir, Config{})
				if err != nil {
					t.Fatalf("reopen after crash at %s: %v", fp.name, err)
				}
				mustReadExact(t, s2, keep)
				for j := 0; j < 4; j++ {
					if s2.Has(key("drop", "i", fmt.Sprintf("c%d", j), 0)) {
						// The old manifest may legitimately still hold the dropped
						// columns (the delete never committed); they must at least
						// read without error or answer a recoverable sentinel.
						if _, err := s2.GetColumn(key("drop", "i", fmt.Sprintf("c%d", j), 0)); err != nil &&
							!errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrNotStored) {
							t.Fatalf("dropped column read failed hard: %v", err)
						}
					}
				}
				// A clean compaction must succeed now and keep the data intact.
				if n := s2.DeleteModel("drop"); n > 0 {
					// old manifest survived; redo the delete before compacting
					_ = n
				}
				if _, _, err := s2.Compact(); err != nil {
					t.Fatalf("compact after recovery: %v", err)
				}
				mustReadExact(t, s2, keep)
			})
		}
	}
}

// TestCompactGenerationOnDisk asserts the crash-safety mechanism itself:
// compaction writes a NEW file generation and removes the old one only
// after the manifest commits, so the directory never holds a remapped
// file under a name the live manifest maps to old indices.
func TestCompactGenerationOnDisk(t *testing.T) {
	dir := t.TempDir()
	pinProcs(t, 1)
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	keep := fillStore(t, s, "keep", 2, 1000)
	drop := fillStore(t, s, "drop", 2, 5000)
	_ = drop
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, partFileName(0, 0))); err != nil {
		t.Fatalf("gen-0 file missing before compact: %v", err)
	}
	s.DeleteModel("drop")
	if _, _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, partFileName(0, 1))); err != nil {
		t.Fatalf("gen-1 file missing after compact: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, partFileName(0, 0))); !os.IsNotExist(err) {
		t.Fatalf("gen-0 file not removed after commit: %v", err)
	}
	mustReadExact(t, s, keep)

	// Reopen reads from the new generation.
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustReadExact(t, s2, keep)
	if rep := s2.LastRecovery(); !rep.Clean() {
		t.Fatalf("recovery not clean after committed compact: %+v", rep)
	}
}

// TestOrphanTempSweep plants crashed-write debris and checks Open removes
// it and reports it.
func TestOrphanTempSweep(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := fillStore(t, s, "m", 2, 1000)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"partition_00000099.bin.gz.tmp123", manifestName + ".tmp456"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := s2.LastRecovery()
	if len(rep.OrphanTempsRemoved) != 2 {
		t.Fatalf("swept %v, want 2 orphans", rep.OrphanTempsRemoved)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if !e.IsDir() && (filepath.Ext(e.Name()) == "" || e.Name() == "debris") {
			t.Fatalf("temp debris survived: %s", e.Name())
		}
	}
	mustReadExact(t, s2, data)
}

// corruptOneByte flips a byte in the middle of a file.
func corruptOneByte(t *testing.T, path string) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptPartitionQuarantinedOnOpen bit-flips a flushed partition file
// and checks the recovery sweep catches it: the partition is quarantined
// into corrupt/, its columns answer ErrUnavailable, and re-logging heals.
func TestCorruptPartitionQuarantinedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := fillStore(t, s, "m", 3, 1000)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	corruptOneByte(t, filepath.Join(dir, partFileName(0, 0)))

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("open aborted on corrupt partition: %v", err)
	}
	rep := s2.LastRecovery()
	if len(rep.CorruptPartitions) != 1 || rep.CorruptPartitions[0] != 0 {
		t.Fatalf("corrupt partitions %v, want [0]", rep.CorruptPartitions)
	}
	if len(rep.LostChunks) == 0 {
		t.Fatal("no lost chunks reported")
	}
	if st := s2.Stats(); st.CorruptPartitions != 1 {
		t.Fatalf("stats.CorruptPartitions = %d", st.CorruptPartitions)
	}
	if _, err := os.Stat(filepath.Join(dir, corruptDirName, partFileName(0, 0))); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	for k := range data {
		if _, err := s2.GetColumn(k); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("column %s: err %v, want ErrUnavailable", k, err)
		}
	}
	relog(t, s2, data)
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustReadExact(t, s3, data)
}

// TestCorruptPartitionQuarantinedOnColdRead corrupts the file after a
// clean Open has verified it, so the checksum failure surfaces on the
// first cold read — which must quarantine, not panic or mis-read.
func TestCorruptPartitionQuarantinedOnColdRead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := fillStore(t, s, "m", 3, 1000)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s2.LastRecovery(); !rep.Clean() {
		t.Fatalf("recovery before the corruption: %+v", rep)
	}
	corruptOneByte(t, filepath.Join(dir, partFileName(0, 0)))
	var k0 ColumnKey
	for k := range data {
		k0 = k
		break
	}
	if _, err := s2.GetColumn(k0); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("cold read of corrupt partition: %v, want ErrUnavailable", err)
	}
	if st := s2.Stats(); st.CorruptPartitions != 1 {
		t.Fatalf("stats.CorruptPartitions = %d", st.CorruptPartitions)
	}
	// Every other column of the same partition answers unavailable too.
	for k := range data {
		if _, err := s2.GetColumn(k); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("column %s after quarantine: %v", k, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, corruptDirName, partFileName(0, 0))); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	relog(t, s2, data)
}

// TestMissingPartitionFile deletes a flushed partition file outright.
func TestMissingPartitionFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := fillStore(t, s, "m", 2, 1000)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, partFileName(0, 0))); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := s2.LastRecovery()
	if len(rep.MissingPartitions) != 1 || rep.MissingPartitions[0] != 0 {
		t.Fatalf("missing partitions %v, want [0]", rep.MissingPartitions)
	}
	for k := range data {
		if _, err := s2.GetColumn(k); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("column %s: %v, want ErrUnavailable", k, err)
		}
	}
	relog(t, s2, data)
}

// TestTornTailPartition rewrites a two-chunk partition file with only its
// first chunk (a valid file that is shorter than the manifest promised —
// what a lost tail write looks like after an fsync-less filesystem crash).
// Only the tail chunk may be reported lost; the head stays readable.
func TestTornTailPartition(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	k0, k1 := key("m", "i", "head", 0), key("m", "i", "tail", 0)
	v0, v1 := randCol(128, 7), randCol(128, 8)
	if _, err := s.PutColumn(k0, v0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutColumn(k1, v1, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, partFileName(0, 0))
	chunks, _, _, err := readPartitionFile(path, 0)
	if err != nil || len(chunks) != 2 {
		t.Fatalf("expected 2 chunks in one partition, got %d (%v)", len(chunks), err)
	}
	if _, _, _, err := writePartitionFileAt(faultfs.OS(), path, chunks[:1], codec.MustByID(codec.IDGzip)); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := s2.LastRecovery()
	if len(rep.LostChunks) != 1 || rep.LostChunks[0] != (ChunkID{Partition: 0, Index: 1}) {
		t.Fatalf("lost chunks %v, want [{0 1}]", rep.LostChunks)
	}
	got, err := s2.GetColumn(k0)
	if err != nil {
		t.Fatalf("head chunk unreadable: %v", err)
	}
	for i := range v0 {
		if got[i] != v0[i] {
			t.Fatalf("head chunk corrupted at %d", i)
		}
	}
	if _, err := s2.GetColumn(k1); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("tail chunk: %v, want ErrUnavailable", err)
	}
	// Healing the tail must not disturb the head.
	if _, err := s2.PutColumn(k1, v1, nil); err != nil {
		t.Fatal(err)
	}
	mustReadExact(t, s2, map[ColumnKey][]float32{k0: v0, k1: v1})
}

// TestManifestCorruptFailSoft scribbles over the manifest: Open must not
// abort — it quarantines the manifest and the now-unreferenced partition
// files and starts from an empty, fully usable logical state.
func TestManifestCorruptFailSoft(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := fillStore(t, s, "m", 2, 1000)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("open aborted on corrupt manifest: %v", err)
	}
	rep := s2.LastRecovery()
	if !rep.ManifestQuarantined {
		t.Fatalf("recovery report %+v, want ManifestQuarantined", rep)
	}
	if len(rep.ExtraFilesQuarantined) == 0 {
		t.Fatal("orphaned partition files not quarantined")
	}
	for k := range data {
		if _, err := s2.GetColumn(k); !errors.Is(err, ErrNotStored) {
			t.Fatalf("column %s on empty store: %v, want ErrNotStored", k, err)
		}
	}
	// The store is fully usable: relog, flush, reopen.
	relog(t, s2, data)
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustReadExact(t, s3, data)
	if rep := s3.LastRecovery(); !rep.Clean() {
		t.Fatalf("recovery after heal not clean: %+v", rep)
	}
}

// TestENOSPCFlushRecovers fails a partition write with ENOSPC (no crash):
// Flush must report it, the store must keep serving from memory, and a
// retry once space "frees up" must succeed durably.
func TestENOSPCFlushRecovers(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	pinProcs(t, 1)
	s, err := Open(dir, Config{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	data := fillStore(t, s, "m", 4, 1000)
	inj.Arm(faultfs.Fault{Op: faultfs.OpWrite, PathContains: "partition_", Err: syscall.ENOSPC})
	if err := s.Flush(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("flush error %v, want ENOSPC", err)
	}
	// Still fully readable from memory.
	mustReadExact(t, s, data)

	inj.Disarm()
	if err := s.Flush(); err != nil {
		t.Fatalf("flush after ENOSPC cleared: %v", err)
	}
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustReadExact(t, s2, data)
	if rep := s2.LastRecovery(); !rep.Clean() {
		t.Fatalf("recovery not clean: %+v", rep)
	}
}

// TestManifestGenerationAdvances checks the generation number is bumped
// by every manifest write and survives reopen — the breadcrumb the crash
// matrix uses to tell pre-flush from post-flush state.
func TestManifestGenerationAdvances(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, "m", 1, 1000)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	g1 := s.ManifestGeneration()
	if g1 == 0 {
		t.Fatal("generation not stamped")
	}
	fillStore(t, s, "m2", 1, 5000)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	g2 := s.ManifestGeneration()
	if g2 <= g1 {
		t.Fatalf("generation did not advance: %d -> %d", g1, g2)
	}
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.ManifestGeneration(); got != g2 {
		t.Fatalf("reopened generation %d, want %d", got, g2)
	}
}

// TestFsyncAccounting: the durability work is visible in Stats.
func TestFsyncAccounting(t *testing.T) {
	s := openTest(t, Config{})
	fillStore(t, s, "m", 2, 1000)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	// At least: partition file + its dir + manifest file + its dir.
	if st.FsyncCount < 4 {
		t.Fatalf("FsyncCount = %d, want >= 4", st.FsyncCount)
	}
}

// TestManifestRoundTripUnderEviction is the eviction round-trip check: a
// tiny memory budget forces payload eviction between flushes, and a fresh
// Store over the directory must serve identical values and report the same
// column signatures.
func TestManifestRoundTripUnderEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{MemBudgetBytes: 8 << 10, PartitionTargetBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	data := make(map[ColumnKey][]float32)
	for j := 0; j < 16; j++ {
		k := key("m", "i", fmt.Sprintf("c%d", j), 0)
		// Shifted ranges keep every chunk distinct (no dedup).
		vals := make([]float32, 256)
		for i := range vals {
			vals[i] = float32(j*1000 + i)
		}
		if _, err := s.PutColumn(k, vals, nil); err != nil {
			t.Fatal(err)
		}
		data[k] = vals
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("budget never forced an eviction; test misconfigured")
	}

	s2, err := Open(dir, Config{MemBudgetBytes: 8 << 10, PartitionTargetBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	mustReadExact(t, s2, data)
	// The physical identity an index is stamped with survives the round
	// trip, so a rebuilt index is not needed just because the store reopened.
	for k := range data {
		want, err := s.ColumnSignature(k.Model, k.Intermediate, k.Column)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s2.ColumnSignature(k.Model, k.Intermediate, k.Column)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: signature %08x after reopen, want %08x", k, got, want)
		}
	}
}

// TestQuarantineTombstoneLifecycle walks a quarantined partition through
// its full life: while columns still point into it, Verify flags the data
// loss and Compact keeps the tombstone; after every mapping heals via
// re-log, Verify is clean and Compact drops the tombstone from the index
// and manifest (the quarantined file stays in corrupt/ for post-mortem).
func TestQuarantineTombstoneLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := fillStore(t, s, "m", 3, 1000)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	corruptOneByte(t, filepath.Join(dir, partFileName(0, 0)))

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Lost and still referenced: Verify must complain, Compact must keep
	// the tombstone (the loss is not resolved yet).
	rep, err := s2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) == 0 {
		t.Fatal("Verify clean while quarantined columns are unhealed")
	}
	if _, _, err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	for k := range data {
		if _, err := s2.GetColumn(k); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("column %s: err %v, want ErrUnavailable after compact", k, err)
		}
	}

	// Heal every mapping, then compact: the tombstone is garbage now.
	relog(t, s2, data)
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err = s2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("Verify problems after full heal: %v", rep.Problems)
	}
	before := rep.Partitions
	if _, _, err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	rep, err = s2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partitions != before-1 {
		t.Fatalf("compact kept the dead tombstone: %d partitions, want %d", rep.Partitions, before-1)
	}
	mustReadExact(t, s2, data)

	// The drop survives reopen, and the reopened directory is clean.
	s3, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !s3.LastRecovery().Clean() {
		t.Fatalf("reopen after tombstone drop not clean: %+v", s3.LastRecovery())
	}
	mustReadExact(t, s3, data)
}

// serializeV1Image hand-builds a version-1 partition image (no chunk
// CRCs, no footer) from decoded chunks — the format of pre-checksum
// stores, which must stay readable forever.
func serializeV1Image(chunks []*chunk) []byte {
	img := []byte(partMagic)
	img = binary.LittleEndian.AppendUint16(img, 1)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(chunks)))
	for _, c := range chunks {
		img = binary.LittleEndian.AppendUint32(img, uint32(c.count))
		img = binary.LittleEndian.AppendUint32(img, uint32(c.q.MarshaledSize()))
		img = binary.LittleEndian.AppendUint32(img, uint32(len(c.enc)))
		img = c.q.AppendBinary(img)
		img = append(img, c.enc...)
	}
	return img
}

// TestMixedVersionDirectory builds a directory holding every on-disk
// vintage at once — a v1 gzip file (pre-checksum binary), a v2 gzip file
// (pre-codec binary), a v3 actz container (this binary), and a file
// stamped with a future container version (a NEWER binary) — then
// reopens it. The three readable vintages must serve bit-exact; the
// future file is marked lost with durable.ErrUnsupported semantics: its
// columns answer ErrUnavailable, the file is NOT deleted or moved to
// corrupt/, and re-logging heals without touching it.
func TestMixedVersionDirectory(t *testing.T) {
	dir := t.TempDir()

	// Partition 0: gzip legacy framing (v2 image).
	s, err := Open(dir, Config{Codec: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	batchA := fillStore(t, s, "a", 2, 1000)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Partitions 1-3 under actz: v3 containers.
	s, err = Open(dir, Config{Codec: "actz"})
	if err != nil {
		t.Fatal(err)
	}
	batchB := fillStore(t, s, "b", 2, 2000)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	batchC := fillStore(t, s, "c", 2, 3000)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	batchD := fillStore(t, s, "d", 2, 4000)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Rewrite partition 2 as a v1 image under bare gzip — byte-for-byte
	// what a pre-checksum binary would have left behind.
	p2 := filepath.Join(dir, partFileName(2, 0))
	chunks, _, _, err := readPartitionFile(p2, 0)
	if err != nil {
		t.Fatal(err)
	}
	v1blob, err := codec.MustByID(codec.IDGzip).Compress(nil, serializeV1Image(chunks), gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, v1blob, 0o644); err != nil {
		t.Fatal(err)
	}

	// Stamp partition 3's container with a future version.
	p3 := filepath.Join(dir, partFileName(3, 0))
	blob, err := os.ReadFile(p3)
	if err != nil {
		t.Fatal(err)
	}
	blob[4] = contVersion + 6
	if err := os.WriteFile(p3, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("open on mixed-version directory: %v", err)
	}
	rep := s2.LastRecovery()
	if len(rep.UnsupportedPartitions) != 1 || rep.UnsupportedPartitions[0] != 3 {
		t.Fatalf("unsupported partitions %v, want [3]", rep.UnsupportedPartitions)
	}
	if len(rep.CorruptPartitions) != 0 || len(rep.MissingPartitions) != 0 {
		t.Fatalf("mixed vintages misread as damage: %+v", rep)
	}
	if st := s2.Stats(); st.UnsupportedPartitions != 1 || st.CorruptPartitions != 0 {
		t.Fatalf("stats: unsupported=%d corrupt=%d, want 1/0", st.UnsupportedPartitions, st.CorruptPartitions)
	}
	mustReadExact(t, s2, batchA)
	mustReadExact(t, s2, batchB)
	mustReadExact(t, s2, batchC)
	for k := range batchD {
		if _, err := s2.GetColumn(k); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("future-format column %s: %v, want ErrUnavailable", k, err)
		}
	}
	// The future file must survive in place — not deleted, not moved.
	if _, err := os.Stat(p3); err != nil {
		t.Fatalf("future-format file was removed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, corruptDirName, partFileName(3, 0))); !os.IsNotExist(err) {
		t.Fatal("future-format file was quarantined into corrupt/")
	}
	// Healing via re-log leaves the file alone and serves everything.
	relog(t, s2, batchD)
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p3); err != nil {
		t.Fatalf("future-format file removed by heal: %v", err)
	}
	s3, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []map[ColumnKey][]float32{batchA, batchB, batchC, batchD} {
		mustReadExact(t, s3, batch)
	}
}

// TestPostPublishSyncDirReturnsSuccess is the regression test for the
// post-publish error-accounting bug: once the rename has published the
// partition file, a failing directory fsync must NOT fail the flush (the
// manifest write that follows fsyncs the same directory). Before the fix
// the partition stayed dirty forever and every later Flush rewrote and
// re-counted the same bytes.
func TestPostPublishSyncDirReturnsSuccess(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	pinProcs(t, 1)
	s, err := Open(dir, Config{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	data := fillStore(t, s, "m", 4, 1000)
	// One-shot fault: the first SyncDir — the one right after the
	// partition rename — fails; the manifest's SyncDir succeeds.
	inj.Arm(faultfs.Fault{Op: faultfs.OpSyncDir, Countdown: 0, Err: faultfs.ErrInjected})
	if err := s.Flush(); err != nil {
		t.Fatalf("flush failed on post-publish SyncDir error: %v", err)
	}
	if !inj.Fired() {
		t.Fatal("SyncDir fault never fired")
	}
	writes := s.Stats().DiskWrites
	// The partition is clean: an idle Flush must not rewrite it.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DiskWrites; got != writes {
		t.Fatalf("clean partition re-flushed: DiskWrites %d -> %d", writes, got)
	}
	// And the published file is real: a clean reopen serves it from disk.
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.LastRecovery().Clean() {
		t.Fatalf("recovery not clean: %+v", s2.LastRecovery())
	}
	mustReadExact(t, s2, data)
}
