package sample

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
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

func TestManagerQuarantinesCorruptFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sample")
	m, err := NewManager(ManagerConfig{Dir: dir})
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
		t.Fatal("corrupt file not quarantined")
	}
}
