package sample

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mistique/internal/durable"
	"mistique/internal/obs"
)

func TestManagerSaveLoadRemove(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sample")
	m, err := NewManager(ManagerConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := sampleForCodec(t)
	if err := m.Save("m1", "i1", s); err != nil {
		t.Fatal(err)
	}
	got, err := m.Load("m1", "i1")
	if err != nil || got == nil {
		t.Fatalf("Load: %v, %v", got, err)
	}
	if !reflect.DeepEqual(Encode("m1", "i1", got), Encode("m1", "i1", s)) {
		t.Fatal("loaded sample differs")
	}
	if got, err := m.Load("m1", "other"); err != nil || got != nil {
		t.Fatalf("absent sample: %v, %v", got, err)
	}
	m.Remove("m1", "i1")
	if got, err := m.Load("m1", "i1"); err != nil || got != nil {
		t.Fatalf("after Remove: %v, %v", got, err)
	}
}

// TestManagerQuarantinesCorruptFile: a corrupt sample is set aside the way
// every derived artifact is — renamed to *.corrupt, kept as evidence — and
// reads as absent.
func TestManagerQuarantinesCorruptFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sample")
	reg := obs.New()
	m, err := NewManager(ManagerConfig{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := sampleForCodec(t)
	if err := m.Save("m1", "i1", s); err != nil {
		t.Fatal(err)
	}
	path := m.path("m1", "i1")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := m.Load("m1", "i1")
	if err != nil || got != nil {
		t.Fatalf("corrupt load: %v, %v — want absent", got, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file still in place")
	}
	if kept, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(kept, data) {
		t.Fatalf("corrupt file not kept aside as evidence: %v", err)
	}
	if n := reg.Snapshot().Counters["mistique_sample_quarantined_total"]; n != 1 {
		t.Fatalf("quarantined counter = %d, want 1", n)
	}
}

// TestManagerLeavesNewerVersionFileInPlace: a sample a newer binary wrote
// reads as absent (the caller falls back to exact reads) and stays exactly
// where and what it was — not removed, not renamed, not counted as corrupt.
func TestManagerLeavesNewerVersionFileInPlace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sample")
	reg := obs.New()
	m, err := NewManager(ManagerConfig{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	newer := Encode("m1", "i1", sampleForCodec(t))
	newer = newer[:len(newer)-4] // unseal, bump the version, reseal
	newer[4] = versionMQSM + 1
	newer = durable.Seal(newer)
	if _, _, _, err := Decode(newer); !errors.Is(err, durable.ErrUnsupported) {
		t.Fatalf("newer-version image: %v, want ErrUnsupported", err)
	}
	path := m.path("m1", "i1")
	if err := os.WriteFile(path, newer, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := m.Load("m1", "i1"); err != nil || got != nil {
		t.Fatalf("newer-version load: %v, %v — want absent", got, err)
	}
	if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, newer) {
		t.Fatalf("newer-version file disturbed: %v", err)
	}
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Fatalf("directory holds %d entries, want only the newer file", len(names))
	}
	if n := reg.Snapshot().Counters["mistique_sample_quarantined_total"]; n != 0 {
		t.Fatalf("quarantined counter = %d, want 0", n)
	}
}
