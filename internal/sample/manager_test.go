package sample

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
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

// TestManagerPublishKeepsNothingResident: Publish and Read move a live
// stream's sample through the file only. A Save-installed copy is dropped
// by Publish, Read never installs one, and only Load does.
func TestManagerPublishKeepsNothingResident(t *testing.T) {
	reg := obs.New()
	m, err := NewManager(ManagerConfig{Dir: filepath.Join(t.TempDir(), "sample"), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := sampleForCodec(t)
	if err := m.Save("m1", "i1", s); err != nil {
		t.Fatal(err)
	}
	if err := m.Publish("m1", "i1", s); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		got, err := m.Read("m1", "i1")
		if err != nil || got == s || !reflect.DeepEqual(Encode("m1", "i1", got), Encode("m1", "i1", s)) {
			t.Fatalf("Read %d: %p, %v", i, got, err)
		}
	}
	if got, err := m.Load("m1", "i1"); err != nil || got == s {
		t.Fatalf("Load after Publish = %p, %v; want a copy read from the file", got, err)
	}
	if n := reg.Snapshot().Counters["mistique_sample_loads_total"]; n != 3 {
		t.Fatalf("loads = %d, want 3: two Reads and the Load all read the file", n)
	}
}

// TestManagerRemoveDropsResident: Save installs the snapshot, Load answers
// from memory without reading the file, and Remove drops both copies, so
// Load returns nil although a snapshot was resident.
func TestManagerRemoveDropsResident(t *testing.T) {
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
	if got, err := m.Load("m1", "i1"); err != nil || got != s {
		t.Fatalf("Load after Save = %p, %v; want the saved snapshot %p", got, err, s)
	}
	if n := reg.Snapshot().Counters["mistique_sample_loads_total"]; n != 0 {
		t.Fatalf("resident hit read the file: loads = %d", n)
	}
	m.Remove("m1", "i1")
	if got, err := m.Load("m1", "i1"); err != nil || got != nil {
		t.Fatalf("Load after Remove = %v, %v; want nil", got, err)
	}
	if _, err := os.Stat(m.path("m1", "i1")); !os.IsNotExist(err) {
		t.Fatalf("file survived Remove: %v", err)
	}

	// A fresh manager over a saved file reads it once, then stays resident.
	if err := m.Save("m1", "i2", s); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(ManagerConfig{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	first, err := m2.Load("m1", "i2")
	if err != nil || first == nil {
		t.Fatalf("Load from disk = %v, %v", first, err)
	}
	if again, _ := m2.Load("m1", "i2"); again != first {
		t.Fatal("second Load did not return the resident snapshot")
	}
	if n := reg.Snapshot().Counters["mistique_sample_loads_total"]; n != 1 {
		t.Fatalf("loads = %d, want 1", n)
	}
}

// TestManagerConcurrentUse: saves, loads and removes of shared and
// separate keys from several goroutines (run under -race). Every Load sees
// either nothing or a complete snapshot of the key it asked for.
func TestManagerConcurrentUse(t *testing.T) {
	m, err := NewManager(ManagerConfig{Dir: filepath.Join(t.TempDir(), "sample")})
	if err != nil {
		t.Fatal(err)
	}
	s := sampleForCodec(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := fmt.Sprintf("i%d", g)
			for i := 0; i < 20; i++ {
				for _, interm := range []string{own, "shared"} {
					if err := m.Save("m", interm, s); err != nil {
						t.Error(err)
						return
					}
					if got, err := m.Load("m", interm); err != nil || (got != nil && got.Seen != s.Seen) {
						t.Errorf("Load %s: %v, %v", interm, got, err)
						return
					}
					if i%3 == 0 {
						m.Remove("m", interm)
					}
				}
			}
		}(g)
	}
	wg.Wait()
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
	// A fresh manager (the next process) has nothing resident to answer
	// from, so it reads the file.
	m, err = NewManager(ManagerConfig{Dir: dir, Obs: reg})
	if err != nil {
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
