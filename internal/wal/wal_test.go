package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"mistique/internal/durable"
)

func openT(t *testing.T, path string) (*Log, OpenResult) {
	t.Helper()
	l, res, err := Open(path, nil)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { l.Close() })
	return l, res
}

func rec(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.wal")
	l, res := openT(t, path)
	if len(res.Records) != 0 || res.TornBytes != 0 {
		t.Fatalf("fresh log replayed %d records, torn %d", len(res.Records), res.TornBytes)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if apps, syncs := l.Stats(); apps != n || syncs < n {
		t.Fatalf("stats: appends=%d syncs=%d, want %d appends and >=%d syncs", apps, syncs, n, n)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, res2 := openT(t, path)
	if res2.TornBytes != 0 {
		t.Fatalf("clean file reported torn tail of %d bytes", res2.TornBytes)
	}
	if len(res2.Records) != n {
		t.Fatalf("replayed %d records, want %d", len(res2.Records), n)
	}
	for i, r := range res2.Records {
		if !bytes.Equal(r, rec(i)) {
			t.Fatalf("record %d = %q, want %q", i, r, rec(i))
		}
	}
	// Appends after replay land behind the replayed records.
	if err := l2.Append(rec(n)); err != nil {
		t.Fatalf("Append after replay: %v", err)
	}
	l2.Close()
	_, res3 := openT(t, path)
	if len(res3.Records) != n+1 || !bytes.Equal(res3.Records[n], rec(n)) {
		t.Fatalf("post-replay append lost: %d records", len(res3.Records))
	}
}

func TestAppendBatchSingleSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.wal")
	l, _ := openT(t, path)
	_, syncs0 := l.Stats()
	batch := [][]byte{rec(0), rec(1), rec(2)}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	apps, syncs := l.Stats()
	if apps != 3 {
		t.Fatalf("appends = %d, want 3", apps)
	}
	if syncs != syncs0+1 {
		t.Fatalf("syncs = %d, want %d (one fsync per batch)", syncs, syncs0+1)
	}
	l.Close()
	_, res := openT(t, path)
	if len(res.Records) != 3 {
		t.Fatalf("replayed %d records, want 3", len(res.Records))
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 3, 7, 8, 9, 12} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.wal")
			l, _ := openT(t, path)
			for i := 0; i < 3; i++ {
				if err := l.Append(rec(i)); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			l.Close()

			// Tear: append `cut` bytes of a fourth record's frame by hand.
			full := make([]byte, 8+len(rec(3)))
			binary.LittleEndian.PutUint32(full[:4], uint32(len(rec(3))))
			binary.LittleEndian.PutUint32(full[4:8], crc32.Checksum(rec(3), crc32.MakeTable(crc32.Castagnoli)))
			copy(full[8:], rec(3))
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(full[:cut]); err != nil {
				t.Fatal(err)
			}
			f.Close()

			l2, res := openT(t, path)
			if len(res.Records) != 3 {
				t.Fatalf("replayed %d records, want 3 (acked prefix)", len(res.Records))
			}
			if res.TornBytes != int64(cut) {
				t.Fatalf("TornBytes = %d, want %d", res.TornBytes, cut)
			}
			// The truncation is physical: reopening again sees a clean file.
			l2.Close()
			_, res2 := openT(t, path)
			if res2.TornBytes != 0 || len(res2.Records) != 3 {
				t.Fatalf("after truncation: %d records, torn %d", len(res2.Records), res2.TornBytes)
			}
		})
	}
}

func TestCorruptMiddleEndsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mid.wal")
	l, _ := openT(t, path)
	for i := 0; i < 4; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of record 2: it and everything after drop.
	off := len(header) + 2*(8+len(rec(0))) + 8
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, res := openT(t, path)
	if len(res.Records) != 2 {
		t.Fatalf("replayed %d records, want 2 (prefix before corruption)", len(res.Records))
	}
	if res.TornBytes == 0 {
		t.Fatal("corrupted tail not reported as torn")
	}
}

func TestWrongMagicRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.wal")
	if err := os.WriteFile(path, []byte("definitely not a WAL file"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(path, nil)
	if !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("Open on foreign file: err = %v, want durable.ErrCorrupt", err)
	}
	// The foreign file must survive untouched.
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "definitely not a WAL file" {
		t.Fatalf("foreign file clobbered: %q, %v", data, err)
	}
}

func TestRewriteKeepsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rw.wal")
	l, _ := openT(t, path)
	for i := 0; i < 6; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Flush drained records 0-3; keep the tail.
	if err := l.Rewrite([][]byte{rec(4), rec(5)}); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	// The log stays appendable after the handle swap.
	if err := l.Append(rec(6)); err != nil {
		t.Fatalf("Append after Rewrite: %v", err)
	}
	l.Close()
	_, res := openT(t, path)
	want := [][]byte{rec(4), rec(5), rec(6)}
	if len(res.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(res.Records), len(want))
	}
	for i, r := range res.Records {
		if !bytes.Equal(r, want[i]) {
			t.Fatalf("record %d = %q, want %q", i, r, want[i])
		}
	}
	// Rewrite to empty drops everything.
	l2, _ := openT(t, path)
	if err := l2.Rewrite(nil); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, res2 := openT(t, path)
	if len(res2.Records) != 0 {
		t.Fatalf("rewrite-to-empty left %d records", len(res2.Records))
	}
}

func TestEmptyPayloadAndSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sz.wal")
	l, _ := openT(t, path)
	if got := l.Size(); got != int64(len(header)) {
		t.Fatalf("fresh size = %d, want %d", got, len(header))
	}
	if err := l.Append(nil); err != nil {
		t.Fatalf("Append(nil): %v", err)
	}
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	wantSize := int64(len(header) + 8 + 0 + 8 + 1)
	if got := l.Size(); got != wantSize {
		t.Fatalf("size = %d, want %d", got, wantSize)
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() != wantSize {
		t.Fatalf("on-disk size = %v/%v, want %d", st, err, wantSize)
	}
	l.Close()
	_, res := openT(t, path)
	if len(res.Records) != 2 || len(res.Records[0]) != 0 || string(res.Records[1]) != "x" {
		t.Fatalf("bad replay of empty payload: %#v", res.Records)
	}
}

func TestClosedLogRefusesAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.wal")
	l, _ := openT(t, path)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(0)); err == nil {
		t.Fatal("Append on closed log succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.wal")
	l, _ := openT(t, path)
	big := make([]byte, maxRecordBytes+1)
	if err := l.Append(big); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestDecodeGarbageLengths(t *testing.T) {
	// A frame whose length field is huge must end the prefix, not allocate.
	buf := append([]byte{}, header[:]...)
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(maxRecordBytes)+7)
	buf = append(buf, frame[:]...)
	recs, validLen, err := Decode(buf)
	if err != nil || len(recs) != 0 || validLen != int64(len(header)) {
		t.Fatalf("Decode garbage-length: recs=%d validLen=%d err=%v", len(recs), validLen, err)
	}
}
