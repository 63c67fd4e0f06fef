package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"mistique/internal/faultfs"
)

var (
	oldImage = []byte("old image: the bytes a reader saw before the publish")
	newHead  = []byte("new image, first write | ")
	newTail  = []byte("second write of the new image")
	newImage = append(append([]byte(nil), newHead...), newTail...)
)

// writeNew emits newImage in two writes, the shape of a multi-record
// artifact (a WAL rewrite, a CAS segment).
func writeNew(w io.Writer) error {
	if _, err := w.Write(newHead); err != nil {
		return err
	}
	_, err := w.Write(newTail)
	return err
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

func TestPublishReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.bin")
	for _, want := range [][]byte{oldImage, newImage} {
		n, err := Publish(faultfs.OS(), path, func(w io.Writer) error {
			_, err := w.Write(want)
			return err
		})
		if err != nil || n != 2 {
			t.Fatalf("Publish = %d fsyncs, %v; want 2, nil", n, err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Fatalf("published %q, want %q", got, want)
		}
	}
	if names := dirNames(t, filepath.Dir(path)); len(names) != 1 {
		t.Fatalf("debris beside the artifact: %v", names)
	}
	// A write callback's own error aborts the publish like an IO error.
	boom := errors.New("encode failed")
	if _, err := Publish(faultfs.OS(), path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("callback error not surfaced: %v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, newImage) {
		t.Fatal("aborted publish touched the artifact")
	}
}

// TestPublishCrashMatrix fails or kills Publish at every faultfs call it
// issues, over an existing artifact and over none. The target must be
// byte-for-byte the old image (absent, when there was none) or the new
// one; an error path leaves no temp behind; a crash path's temp is
// collected by SweepTemps; the fsync count is exact.
func TestPublishCrashMatrix(t *testing.T) {
	cases := []struct {
		name      string
		fault     faultfs.Fault
		fsyncs    int
		published bool // the rename happened: target holds the new image
		orphan    bool // a crash here strands the temp file
	}{
		{"create", faultfs.Fault{Op: faultfs.OpCreate}, 0, false, false},
		{"write-torn", faultfs.Fault{Op: faultfs.OpWrite, AfterBytes: 7}, 0, false, true},
		{"write-torn-second", faultfs.Fault{Op: faultfs.OpWrite, AfterBytes: int64(len(newHead)) + 3}, 0, false, true},
		{"write", faultfs.Fault{Op: faultfs.OpWrite, Countdown: 1}, 0, false, true},
		{"sync", faultfs.Fault{Op: faultfs.OpSync}, 0, false, true},
		{"close", faultfs.Fault{Op: faultfs.OpClose}, 1, false, true},
		{"rename", faultfs.Fault{Op: faultfs.OpRename}, 1, false, true},
		{"syncdir", faultfs.Fault{Op: faultfs.OpSyncDir}, 1, true, false},
	}
	for _, tc := range cases {
		for _, crash := range []bool{false, true} {
			for _, hadOld := range []bool{true, false} {
				name := tc.name + map[bool]string{false: "/error", true: "/crash"}[crash] +
					map[bool]string{false: "/first", true: "/replace"}[hadOld]
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					path := filepath.Join(dir, "artifact.bin")
					if hadOld {
						if err := os.WriteFile(path, oldImage, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					inj := faultfs.NewInjector(nil)
					f := tc.fault
					f.PathContains, f.Crash, f.Err = "artifact.bin", crash, syscall.ENOSPC
					if f.Op == faultfs.OpSyncDir {
						f.PathContains = dir
					}
					inj.Arm(f)

					n, err := Publish(inj, path, writeNew)
					if !inj.Fired() {
						t.Fatal("fault never fired")
					}
					wantErr := error(syscall.ENOSPC)
					if crash {
						wantErr = faultfs.ErrCrashed
					}
					if !errors.Is(err, wantErr) {
						t.Fatalf("err = %v, want one wrapping %v", err, wantErr)
					}
					if got := errors.Is(err, ErrDirSync); got != tc.published {
						t.Fatalf("errors.Is(err, ErrDirSync) = %v, want %v (%v)", got, tc.published, err)
					}
					if n != tc.fsyncs {
						t.Fatalf("fsyncs = %d, want %d", n, tc.fsyncs)
					}

					got, rerr := os.ReadFile(path)
					switch {
					case tc.published:
						if !bytes.Equal(got, newImage) {
							t.Fatalf("target = %q, want the new image", got)
						}
					case hadOld:
						if !bytes.Equal(got, oldImage) {
							t.Fatalf("target = %q, want the old image untouched", got)
						}
					default:
						if !errors.Is(rerr, os.ErrNotExist) {
							t.Fatalf("target appeared from a failed first publish: %q, %v", got, rerr)
						}
					}

					settled := 0
					if hadOld || tc.published {
						settled = 1
					}
					names := dirNames(t, dir)
					if crash && tc.orphan {
						if len(names) != settled+1 {
							t.Fatalf("crash left %v, want the target plus one temp", names)
						}
					} else if len(names) != settled {
						t.Fatalf("temp left behind on an error path: %v", names)
					}
					swept := SweepTemps(faultfs.OS(), dir)
					if (len(swept) == 1) != (crash && tc.orphan) {
						t.Fatalf("SweepTemps removed %v", swept)
					}
					if names = dirNames(t, dir); len(names) != settled {
						t.Fatalf("after sweep: %v", names)
					}

					// "Reboot": the next publish on a healthy FS goes through.
					if n, err := Publish(faultfs.OS(), path, writeNew); err != nil || n != 2 {
						t.Fatalf("publish after recovery = %d, %v", n, err)
					}
					if got, _ := os.ReadFile(path); !bytes.Equal(got, newImage) {
						t.Fatalf("recovered publish wrote %q", got)
					}
				})
			}
		}
	}
}

func TestSweepTempsMatchesEveryTempName(t *testing.T) {
	dir := t.TempDir()
	temps := []string{
		"metadata.json.tmp123", "strm_00ab.wal.tmp9", "smpl_00ab.mqsm.tmp77",
		// Names written by binaries that predate this package.
		"seg-12345.tmp", "index-9.tmp", "objects-1.tmp",
	}
	keep := []string{"metadata.json", "partition_00000001.bin.gz", "smpl_00ab.mqsm.corrupt"}
	for _, name := range append(append([]string(nil), temps...), keep...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if got := SweepTemps(faultfs.OS(), dir); len(got) != len(temps) {
		t.Fatalf("swept %v, want %v", got, temps)
	}
	if got := dirNames(t, dir); len(got) != len(keep)+1 {
		t.Fatalf("left %v, want %v plus the directory", got, keep)
	}
	if got := SweepTemps(faultfs.OS(), filepath.Join(dir, "absent")); got != nil {
		t.Fatalf("missing directory swept %v", got)
	}
	// A file the sweep cannot remove is not reported as removed.
	os.WriteFile(filepath.Join(dir, "a.tmp1"), nil, 0o644)
	inj := faultfs.NewInjector(nil)
	inj.Arm(faultfs.Fault{Op: faultfs.OpRemove})
	if got := SweepTemps(inj, dir); len(got) != 0 {
		t.Fatalf("failed remove reported as swept: %v", got)
	}
}

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.bin")
	write := func() {
		t.Helper()
		if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write()
	if err := Quarantine(faultfs.OS(), path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("bad file still in place: %v", err)
	}
	if got, _ := os.ReadFile(path + ".corrupt"); string(got) != "garbage" {
		t.Fatalf("evidence = %q", got)
	}

	// A failed rename is reported and leaves the file where it was.
	write()
	inj := faultfs.NewInjector(nil)
	inj.Arm(faultfs.Fault{Op: faultfs.OpRename, PathContains: "bad.bin"})
	if err := Quarantine(inj, path); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("rename fault: err = %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("file vanished on a failed quarantine: %v", err)
	}
	// So is a failed directory sync: the move may not survive a crash.
	inj.Arm(faultfs.Fault{Op: faultfs.OpSyncDir})
	if err := Quarantine(inj, path); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("syncdir fault: err = %v", err)
	}
}

func TestSealRoundTrip(t *testing.T) {
	prefix := []byte("123456789")
	sealed := Seal(append([]byte(nil), prefix...))
	if len(sealed) != len(prefix)+4 || !bytes.Equal(sealed[:len(prefix)], prefix) {
		t.Fatalf("Seal rewrote the body: %x", sealed)
	}
	// The footer every existing file carries: CRC-32C (check value
	// 0xE3069283 for "123456789"), little-endian.
	if got, want := sealed[len(prefix):], []byte{0x83, 0x92, 0x06, 0xe3}; !bytes.Equal(got, want) {
		t.Fatalf("footer = %x, want %x", got, want)
	}
	body, ok := Unseal(sealed)
	if !ok || !bytes.Equal(body, prefix) {
		t.Fatalf("Unseal = %q, %v", body, ok)
	}
	for _, short := range [][]byte{nil, {1}, {1, 2, 3}} {
		if _, ok := Unseal(short); ok {
			t.Fatalf("Unseal accepted %d bytes", len(short))
		}
	}
	if body, ok := Unseal(Seal(nil)); !ok || len(body) != 0 {
		t.Fatalf("empty body: %q, %v", body, ok)
	}
}

// FuzzUnseal: arbitrary bytes never panic, a sealed buffer always opens to
// its body, and every single-bit flip of it is rejected.
func FuzzUnseal(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte("MQSM\x01 some body bytes"))
	f.Add(Seal([]byte("already sealed")))
	f.Fuzz(func(t *testing.T, data []byte) {
		Unseal(data)
		sealed := Seal(append([]byte(nil), data...))
		body, ok := Unseal(sealed)
		if !ok || !bytes.Equal(body, data) {
			t.Fatalf("sealed buffer did not open: ok=%v", ok)
		}
		if len(sealed) > 1<<10 {
			sealed = Seal(sealed[:1<<10]) // keep the quadratic flip loop bounded
		}
		for bit := 0; bit < len(sealed)*8; bit++ {
			sealed[bit/8] ^= 1 << (bit % 8)
			if _, ok := Unseal(sealed); ok {
				t.Fatalf("bit flip %d of %d accepted", bit, len(sealed)*8)
			}
			sealed[bit/8] ^= 1 << (bit % 8)
		}
	})
}
