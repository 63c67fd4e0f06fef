package cas

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mistique/internal/durable"
)

func openStore(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	s, err := OpenStore(dir, cfg)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

// perturb rewrites one contiguous window covering the given fraction
// of the blob — a stand-in for one epoch of fine-tuning touching a
// subset of the layers while the rest of the weights stay put.
func perturb(base []byte, seed int64, fraction float64) []byte {
	out := append([]byte(nil), base...)
	n := int(float64(len(out)) * fraction)
	if n < 1 {
		n = 1
	}
	start := int(uint64(seed*7919) % uint64(len(out)-n+1))
	for i := 0; i < n; i++ {
		out[start+i] ^= byte(seed) | 1
	}
	return out
}

func TestStoreFullRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Config{})
	data := randBytes(t, 200_000, 11)
	info, err := s.Put("v0", data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Depth != 0 || info.Base != "" || info.Size != 200_000 || info.Chunks == 0 {
		t.Fatalf("info = %+v", info)
	}
	got, err := s.Get("v0")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get: %v", err)
	}
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Config{})
	got, err = s2.Get("v0")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after reopen: %v", err)
	}
}

func TestStoreDeltaChainRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Config{MaxDepth: 3})
	versions := [][]byte{randBytes(t, 150_000, 12)}
	if _, err := s.Put("v0", versions[0]); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		versions = append(versions, perturb(versions[i-1], int64(i), 0.01))
		info, err := s.PutDelta(fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i-1), versions[i])
		if err != nil {
			t.Fatal(err)
		}
		wantDepth := i
		if wantDepth > 3 {
			// Chain bound: v4 restarts at a full object.
			wantDepth = (i - 1) % 4
			_ = wantDepth
		}
		if info.Depth > 3 {
			t.Fatalf("v%d depth %d exceeds MaxDepth", i, info.Depth)
		}
		if i <= 3 && (info.Depth != i || info.Base == "") {
			t.Fatalf("v%d info = %+v", i, info)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Bit-exact reconstruction for every version, before and after
	// reopen.
	for _, st := range []*Store{s, openStore(t, dir, Config{MaxDepth: 3})} {
		for i, want := range versions {
			got, err := st.Get(fmt.Sprintf("v%d", i))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("v%d: %v", i, err)
			}
		}
	}
}

func TestStoreDeltaDedupsSparseResiduals(t *testing.T) {
	s := openStore(t, t.TempDir(), Config{})
	base := randBytes(t, 500_000, 13)
	if _, err := s.Put("v0", base); err != nil {
		t.Fatal(err)
	}
	info, err := s.PutDelta("v1", "v0", perturb(base, 14, 0.001))
	if err != nil {
		t.Fatal(err)
	}
	if info.NewBytes > int64(len(base))/2 {
		t.Fatalf("sparse residual stored %d new bytes of %d — no dedup win", info.NewBytes, len(base))
	}
}

func TestStorePutDeltaFallsBackToFull(t *testing.T) {
	s := openStore(t, t.TempDir(), Config{MaxDepth: 1})
	if _, err := s.PutDelta("v1", "missing-base", randBytes(t, 1000, 15)); err != nil {
		t.Fatal(err)
	}
	if info, _ := s.Info("v1"); info.Depth != 0 || info.Base != "" {
		t.Fatalf("missing base should store full: %+v", info)
	}
	if _, err := s.PutDelta("v2", "v1", randBytes(t, 1000, 16)); err != nil {
		t.Fatal(err)
	}
	if info, _ := s.Info("v2"); info.Depth != 1 {
		t.Fatalf("v2 info: %+v", info)
	}
	// v2 is at MaxDepth: the next generation restarts full.
	if _, err := s.PutDelta("v3", "v2", randBytes(t, 1000, 17)); err != nil {
		t.Fatal(err)
	}
	if info, _ := s.Info("v3"); info.Depth != 0 {
		t.Fatalf("depth bound not enforced: %+v", info)
	}
	// Self-referential delta degrades to full, never loops.
	if _, err := s.PutDelta("v1", "v1", randBytes(t, 1000, 18)); err != nil {
		t.Fatal(err)
	}
	if info, _ := s.Info("v1"); info.Depth != 0 {
		t.Fatalf("self-delta: %+v", info)
	}
}

func TestStoreCompactCollapsesDeepChains(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Config{MaxDepth: 4})
	data := randBytes(t, 100_000, 19)
	if _, err := s.Put("v0", data); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"v0": data}
	prev := data
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("v%d", i)
		prev = perturb(prev, int64(20+i), 0.01)
		want[name] = prev
		if _, err := s.PutDelta(name, fmt.Sprintf("v%d", i-1), prev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(2); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for name, o := range s.objects {
		if o.depth > 2 {
			t.Fatalf("%s still at depth %d after collapse", name, o.depth)
		}
	}
	for name, w := range want {
		got, err := s.Get(name)
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("%s after compact: %v", name, err)
		}
	}
	// Compact persisted: a reopen serves the collapsed state.
	s2 := openStore(t, dir, Config{MaxDepth: 4})
	for name, w := range want {
		got, err := s2.Get(name)
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("%s after compact+reopen: %v", name, err)
		}
	}
}

func TestStoreDeleteCollapsesDependents(t *testing.T) {
	s := openStore(t, t.TempDir(), Config{})
	base := randBytes(t, 80_000, 22)
	next := perturb(base, 23, 0.01)
	if _, err := s.Put("v0", base); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutDelta("v1", "v0", next); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("v0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("v0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted base still present: %v", err)
	}
	got, err := s.Get("v1")
	if err != nil || !bytes.Equal(got, next) {
		t.Fatalf("dependent lost its data when base deleted: %v", err)
	}
	if info, _ := s.Info("v1"); info.Depth != 0 {
		t.Fatalf("dependent not collapsed: %+v", info)
	}
	if err := s.Delete("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete missing: %v", err)
	}
}

func TestStoreDeleteReleasesChunksForGC(t *testing.T) {
	s := openStore(t, t.TempDir(), Config{})
	if _, err := s.Put("v0", randBytes(t, 64_000, 24)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("v0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(0); err != nil {
		t.Fatal(err)
	}
	if st := s.Table().Stats(); st.Chunks != 0 || st.DiskBytes != 0 {
		t.Fatalf("deleted object's chunks not reclaimed: %+v", st)
	}
}

func TestStoreCorruptReconstructionCaught(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Config{})
	base := randBytes(t, 120_000, 25)
	if _, err := s.Put("v0", base); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutDelta("v1", "v0", perturb(base, 26, 0.01)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte of the segment holding base + residual chunks: the
	// whole-object CRC must refuse both the base and the delta read.
	seg := filepath.Join(dir, segName(0))
	raw, _ := os.ReadFile(seg)
	raw[len(raw)/3] ^= 0x80
	os.WriteFile(seg, raw, 0o644)
	s2 := openStore(t, dir, Config{})
	sawCorrupt := false
	for _, name := range []string{"v0", "v1"} {
		if _, err := s2.Get(name); err != nil {
			if !errors.Is(err, durable.ErrCorrupt) {
				t.Fatalf("%s: error not typed: %v", name, err)
			}
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatal("bit flip in segment went unnoticed")
	}
}

func TestStoreObjectsListingAndNames(t *testing.T) {
	s := openStore(t, t.TempDir(), Config{})
	if _, err := s.Put("", []byte("x")); err == nil {
		t.Fatal("empty name accepted")
	}
	s.Put("b", []byte("bb"))
	s.Put("a", []byte("aa"))
	objs := s.Objects()
	if len(objs) != 2 || objs[0].Name != "a" || objs[1].Name != "b" {
		t.Fatalf("Objects() = %+v", objs)
	}
	if _, ok := s.Info("b"); !ok {
		t.Fatal("Info(b) missing")
	}
	if _, ok := s.Info("zzz"); ok {
		t.Fatal("Info on missing object claims presence")
	}
}

func TestStoreReplaceReleasesOldChunks(t *testing.T) {
	s := openStore(t, t.TempDir(), Config{})
	old := randBytes(t, 50_000, 27)
	s.Put("v", old)
	s.Put("v", randBytes(t, 50_000, 28))
	if err := s.Compact(0); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("v")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, old) {
		t.Fatal("replacement did not take")
	}
	// All of old's unique chunks must be gone after GC.
	for _, c := range Split(old, ChunkerConfig{}) {
		if s.Table().Refs(KeyOf(c)) > 0 && !bytes.Contains(got, c) {
			t.Fatal("old chunk leaked a reference")
		}
	}
}

// TestStoreCompressedResidualPersists pins the residual-compression win:
// a sparse XOR residual must cost a small fraction of the payload (the
// zero runs deflate away instead of defeating chunk-boundary resync),
// and the compressed flag must survive flush + reopen so reconstruction
// still inflates before applying the XOR.
func TestStoreCompressedResidualPersists(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Config{})
	base := randBytes(t, 400_000, 21)
	if _, err := s.Put("v0", base); err != nil {
		t.Fatal(err)
	}
	data := perturb(base, 22, 0.01)
	info, err := s.PutDelta("v1", "v0", data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Depth != 1 {
		t.Fatalf("v1 not delta-encoded: %+v", info)
	}
	// 1% of the bytes changed; the deflated residual must land well
	// under 10% of the payload, far below what raw mostly-zero chunks
	// would re-store.
	if info.NewBytes > int64(len(data))/10 {
		t.Fatalf("residual stored %d new bytes of %d — compression not applied", info.NewBytes, len(data))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{s, openStore(t, dir, Config{})} {
		got, err := st.Get("v1")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("reconstruct v1: %v", err)
		}
	}
	// Collapsing the chain re-stores v1 full and must round-trip too.
	s2 := openStore(t, dir, Config{})
	if err := s2.Delete("v0"); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("v1")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("reconstruct collapsed v1: %v", err)
	}
	if info, _ := s2.Info("v1"); info.Depth != 0 || info.Base != "" {
		t.Fatalf("v1 not collapsed: %+v", info)
	}
}
