package cas

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mistique/internal/durable"
	"mistique/internal/faultfs"
)

func openTable(t *testing.T, dir string) *Table {
	t.Helper()
	tab, err := OpenTable(dir, nil)
	if err != nil {
		t.Fatalf("OpenTable: %v", err)
	}
	return tab
}

func TestTablePutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tab := openTable(t, dir)
	a := randBytes(t, 5000, 1)
	b := randBytes(t, 100, 2)
	ka, kb := tab.Put(a), tab.Put(b)
	for _, tc := range []struct {
		k    Key
		want []byte
	}{{ka, a}, {kb, b}} {
		got, err := tab.Get(tc.k)
		if err != nil {
			t.Fatalf("Get pending: %v", err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Fatal("pending payload mismatch")
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := tab.Get(ka)
	if err != nil || !bytes.Equal(got, a) {
		t.Fatalf("Get flushed: %v", err)
	}

	// Reopen: refcounts are not persisted, membership is.
	tab2 := openTable(t, dir)
	got, err = tab2.Get(kb)
	if err != nil || !bytes.Equal(got, b) {
		t.Fatalf("Get after reopen: %v", err)
	}
	if tab2.Refs(kb) != 0 {
		t.Fatalf("refs persisted unexpectedly: %d", tab2.Refs(kb))
	}
	if err := tab2.AddRef(kb); err != nil || tab2.Refs(kb) != 1 {
		t.Fatalf("AddRef: %v refs=%d", err, tab2.Refs(kb))
	}
	if err := tab2.AddRef(KeyOf([]byte("missing"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("AddRef missing: %v", err)
	}
}

func TestTableDedup(t *testing.T) {
	tab := openTable(t, t.TempDir())
	data := randBytes(t, 3000, 3)
	k1 := tab.Put(data)
	k2 := tab.Put(append([]byte(nil), data...))
	if k1 != k2 {
		t.Fatal("identical payloads got different keys")
	}
	st := tab.Stats()
	if st.Chunks != 1 || st.DedupHits != 1 || st.DedupBytes != 3000 {
		t.Fatalf("stats = %+v", st)
	}
	if tab.Refs(k1) != 2 {
		t.Fatalf("refs = %d, want 2", tab.Refs(k1))
	}
}

func TestTableGCDropsUnreferenced(t *testing.T) {
	dir := t.TempDir()
	tab := openTable(t, dir)
	keep := tab.Put(randBytes(t, 4096, 4))
	drop := tab.Put(randBytes(t, 4096, 5))
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	tab.Release(drop)
	n, bytesFreed, err := tab.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if n != 1 || bytesFreed != 4096 {
		t.Fatalf("GC dropped %d/%d bytes", n, bytesFreed)
	}
	if _, err := tab.Get(drop); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dropped chunk still readable: %v", err)
	}
	if _, err := tab.Get(keep); err != nil {
		t.Fatalf("referenced chunk lost by GC: %v", err)
	}
	// The mostly-dead segment was rewritten; reopen must still serve it.
	tab2 := openTable(t, dir)
	if _, err := tab2.Get(keep); err != nil {
		t.Fatalf("referenced chunk lost across reopen: %v", err)
	}
	if _, err := tab2.Get(drop); !errors.Is(err, ErrNotFound) {
		t.Fatal("GC'd chunk resurrected on reopen")
	}
}

func TestTableGCPendingChunk(t *testing.T) {
	tab := openTable(t, t.TempDir())
	k := tab.Put(randBytes(t, 100, 6))
	tab.Release(k)
	if n, _, err := tab.GC(); err != nil || n != 1 {
		t.Fatalf("GC pending: n=%d err=%v", n, err)
	}
	if tab.Stats().PendingChunks != 0 {
		t.Fatal("pending queue not cleaned")
	}
}

func TestTableCorruptChunkDetected(t *testing.T) {
	dir := t.TempDir()
	tab := openTable(t, dir)
	k := tab.Put(randBytes(t, 8192, 7))
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the segment payload.
	seg := filepath.Join(dir, segName(0))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[4000] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Get(k); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("bit flip not caught: %v", err)
	}
}

func TestTableCorruptIndexRejected(t *testing.T) {
	dir := t.TempDir()
	tab := openTable(t, dir)
	tab.Put(randBytes(t, 1000, 8))
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(dir, indexName)
	raw, _ := os.ReadFile(idx)
	raw[len(raw)/2] ^= 0x01
	os.WriteFile(idx, raw, 0o644)
	if _, err := OpenTable(dir, nil); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("corrupt index accepted: %v", err)
	}
}

func TestTableSweepRemovesOrphans(t *testing.T) {
	dir := t.TempDir()
	tab := openTable(t, dir)
	tab.Put(randBytes(t, 1000, 9))
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	// Fake crash leftovers: a temp file and a segment the index does
	// not reference.
	os.WriteFile(filepath.Join(dir, "seg-12345.tmp"), []byte("junk"), 0o644)
	os.WriteFile(filepath.Join(dir, segName(99)), []byte("junk"), 0o644)
	openTable(t, dir)
	for _, name := range []string{"seg-12345.tmp", segName(99)} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived sweep", name)
		}
	}
}

func TestTableFlushFailureIsRetryable(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS())
	tab, err := OpenTable(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(t, 2048, 10)
	k := tab.Put(data)
	inj.Arm(faultfs.Fault{Op: faultfs.OpSync, PathContains: "seg_"})
	if err := tab.Flush(); err == nil {
		t.Fatal("injected sync fault did not surface")
	}
	inj.Disarm()
	if err := tab.Flush(); err != nil {
		t.Fatalf("retry after fault: %v", err)
	}
	got, err := tab.Get(k)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("payload lost across failed flush: %v", err)
	}
}
