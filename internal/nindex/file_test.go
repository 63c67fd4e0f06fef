package nindex

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mistique/internal/durable"
	"mistique/internal/durable/durabletest"
	"mistique/internal/obs"
)

func testColumn(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		switch rng.Intn(10) {
		case 0:
			out[i] = float32(math.NaN())
		case 1:
			out[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
		default:
			out[i] = float32(rng.NormFloat64())
		}
	}
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 17, 300} {
		col := testColumn(n, int64(n)+1)
		x := Build(col, 16, 0xdeadbeef, Config{SegmentEntries: 11, HistogramBins: 5})
		enc := Encode("m\x00i\x00c", x)
		key, got, err := Decode(enc)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if key != "m\x00i\x00c" {
			t.Fatalf("n=%d: key %q", n, key)
		}
		if got.Sig() != x.Sig() || got.Rows() != x.Rows() || got.Segments() != x.Segments() || got.nonNaN != x.nonNaN {
			t.Fatalf("n=%d: header mismatch", n)
		}
		// Canonical: re-encoding the decoded index is byte-identical.
		if !bytes.Equal(Encode(key, got), enc) {
			t.Fatalf("n=%d: decode(encode) not canonical", n)
		}
		// Probes through the decoded copy match the original.
		a, _, err1 := x.TopK(n / 2)
		b, _, err2 := got.TopK(n / 2)
		if err1 != nil || err2 != nil || len(a) != len(b) {
			t.Fatalf("n=%d: topk through codec: %v %v", n, err1, err2)
		}
		for i := range a {
			if a[i].Row != b[i].Row || math.Float32bits(a[i].Value) != math.Float32bits(b[i].Value) {
				t.Fatalf("n=%d: topk entry %d diverges across codec", n, i)
			}
		}
	}
}

// reencode is the MQNI round trip the contract and golden tests share: an
// accepted image must re-encode to a codec fixed point.
func reencode(data []byte) ([]byte, error) {
	key, x, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return Encode(key, x), nil
}

// goldenIndex is the index behind testdata/parent.mqni.
func goldenIndex() []byte {
	return Encode("m\x00i\x00c", Build(testColumn(40, 7), 8, 0xfeed, Config{SegmentEntries: 6, HistogramBins: 4}))
}

func TestDecoderContract(t *testing.T) {
	durabletest.Contract(t, durabletest.Format{
		Image:     goldenIndex(),
		Sealed:    true,
		VersionAt: [2]int{4, 5},
		Decode: func(data []byte) error {
			again, err := reencode(data)
			if err == nil && !bytes.Equal(again, data) {
				t.Fatal("decode(encode) not canonical")
			}
			return err
		},
	})
}

// TestGoldenParentImage: testdata/parent.mqni was written by the commit
// before the decoders moved onto durable.Reader (goldenIndex, run there).
func TestGoldenParentImage(t *testing.T) {
	durabletest.Golden(t, "parent.mqni", goldenIndex(), reencode)
}

func managerForTest(t *testing.T, dir string) (*Manager, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	m, err := NewManager(ManagerConfig{Dir: dir, Obs: reg, Index: Config{SegmentEntries: 16}})
	if err != nil {
		t.Fatal(err)
	}
	return m, reg
}

func fetchOf(col []float32, blockRows int) Fetch {
	return func() ([]float32, int, error) { return col, blockRows, nil }
}

func counterVal(reg *obs.Registry, name string) int64 {
	return reg.Snapshot().Counters[name]
}

func TestManagerBuildsPersistsAndReloads(t *testing.T) {
	dir := t.TempDir()
	col := testColumn(300, 4)
	key := Key{Model: "m", Intermediate: "i", Column: "c"}

	m1, reg1 := managerForTest(t, dir)
	got, err := m1.TopK(key, 11, 5, fetchOf(col, 32))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("topk returned %d entries", len(got))
	}
	if counterVal(reg1, "mistique_index_builds_total") != 1 {
		t.Fatal("first probe did not build")
	}
	// Second probe: cache hit, no rebuild.
	if _, err := m1.FilterRows(key, 11, Gt, 0, fetchOf(col, 32)); err != nil {
		t.Fatal(err)
	}
	if counterVal(reg1, "mistique_index_builds_total") != 1 || counterVal(reg1, "mistique_index_hits_total") == 0 {
		t.Fatal("second probe rebuilt instead of hitting the cache")
	}

	// A fresh manager over the same dir loads the persisted file: hit, not build.
	m2, reg2 := managerForTest(t, dir)
	failFetch := Fetch(func() ([]float32, int, error) { return nil, 0, errors.New("must not fetch") })
	got2, err := m2.TopK(key, 11, 5, failFetch)
	if err != nil {
		t.Fatalf("reload probe: %v", err)
	}
	for i := range got {
		if got[i] != got2[i] {
			t.Fatalf("reloaded answer diverges at %d", i)
		}
	}
	if counterVal(reg2, "mistique_index_builds_total") != 0 {
		t.Fatal("reload rebuilt despite valid file")
	}

	// A different signature rejects both cache and file and rebuilds.
	if _, err := m2.TopK(key, 12, 5, fetchOf(col, 32)); err != nil {
		t.Fatal(err)
	}
	if counterVal(reg2, "mistique_index_builds_total") != 1 {
		t.Fatal("stale signature did not force a rebuild")
	}
}

func TestManagerQuarantinesCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	col := testColumn(120, 8)
	key := Key{Model: "m", Intermediate: "i", Column: "c"}
	m1, _ := managerForTest(t, dir)
	if _, err := m1.TopK(key, 1, 3, fetchOf(col, 32)); err != nil {
		t.Fatal(err)
	}
	p := m1.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("index file not published: %v", err)
	}
	data[len(data)/2] ^= 0x55
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh manager must quarantine the corrupt file and transparently rebuild.
	m2, reg2 := managerForTest(t, dir)
	got, err := m2.TopK(key, 1, 3, fetchOf(col, 32))
	if err != nil {
		t.Fatal(err)
	}
	want := Build(col, 32, 1, Config{SegmentEntries: 16})
	wantEntries, _, _ := want.TopK(3)
	for i := range got {
		if got[i] != wantEntries[i] {
			t.Fatalf("rebuilt answer diverges at %d", i)
		}
	}
	if counterVal(reg2, "mistique_index_quarantined_total") != 1 {
		t.Fatal("corrupt file not quarantined")
	}
	if counterVal(reg2, "mistique_index_builds_total") != 1 {
		t.Fatal("corrupt file not rebuilt")
	}
	if _, err := os.Stat(p + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// The rebuild re-published a clean file.
	if _, _, err := Decode(mustRead(t, p)); err != nil {
		t.Fatalf("re-published file invalid: %v", err)
	}
}

// TestManagerLeavesNewerVersionFileInPlace: an index file a newer binary
// wrote is neither renamed aside nor overwritten — the probe answers from
// an index rebuilt in memory only, and the file is byte-for-byte what the
// newer binary left.
func TestManagerLeavesNewerVersionFileInPlace(t *testing.T) {
	dir := t.TempDir()
	col := testColumn(120, 8)
	key := Key{Model: "m", Intermediate: "i", Column: "c"}
	m, reg := managerForTest(t, dir)
	newer := Encode(key.fileKey(), Build(col, 32, 1, Config{}))
	newer = newer[:len(newer)-4] // unseal, bump the version, reseal
	newer[4] = fileVersion + 1
	newer = durable.Seal(newer)
	if _, _, err := Decode(newer); !errors.Is(err, durable.ErrUnsupported) {
		t.Fatalf("newer-version image: %v, want ErrUnsupported", err)
	}
	p := m.path(key)
	if err := os.WriteFile(p, newer, 0o644); err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 2; probe++ {
		got, err := m.TopK(key, 1, 3, fetchOf(col, 32))
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := Build(col, 32, 1, Config{SegmentEntries: 16}).TopK(3)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("probe %d: in-memory rebuild diverges at %d", probe, i)
			}
		}
	}
	if counterVal(reg, "mistique_index_builds_total") != 1 || counterVal(reg, "mistique_index_quarantined_total") != 0 {
		t.Fatalf("builds %d, quarantines %d; want 1, 0",
			counterVal(reg, "mistique_index_builds_total"), counterVal(reg, "mistique_index_quarantined_total"))
	}
	if !bytes.Equal(mustRead(t, p), newer) {
		t.Fatal("newer-version file was overwritten")
	}
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Fatalf("directory holds %d entries, want only the newer file", len(names))
	}
}

func mustRead(t *testing.T, p string) []byte {
	t.Helper()
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestManagerEvictsLRUUnderBudget(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	col := testColumn(2000, 3)
	one := Build(col, 64, 0, Config{})
	// Budget holds roughly two indexes.
	m, err := NewManager(ManagerConfig{Dir: dir, Obs: reg, MemBudgetBytes: 2*one.Bytes() + one.Bytes()/2})
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{{Model: "m", Column: "a"}, {Model: "m", Column: "b"}, {Model: "m", Column: "c"}}
	for _, k := range keys {
		if _, err := m.TopK(k, 1, 3, fetchOf(col, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if counterVal(reg, "mistique_index_evictions_total") == 0 {
		t.Fatal("budget never evicted")
	}
	if got := m.ResidentBytes(); got > 2*one.Bytes()+one.Bytes()/2 {
		t.Fatalf("resident %d over budget", got)
	}
	// The evicted index reloads from its file, not a rebuild.
	builds := counterVal(reg, "mistique_index_builds_total")
	for _, k := range keys {
		if _, err := m.TopK(k, 1, 3, fetchOf(col, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if counterVal(reg, "mistique_index_builds_total") != builds {
		t.Fatal("eviction forced a rebuild despite the persisted file")
	}
}

func TestManagerInvalidate(t *testing.T) {
	dir := t.TempDir()
	m, _ := managerForTest(t, dir)
	col := testColumn(50, 5)
	ka := Key{Model: "m1", Intermediate: "i", Column: "a"}
	kb := Key{Model: "m2", Intermediate: "i", Column: "b"}
	for _, k := range []Key{ka, kb} {
		if _, err := m.TopK(k, 1, 2, fetchOf(col, 16)); err != nil {
			t.Fatal(err)
		}
	}
	m.Invalidate(ka)
	if _, err := os.Stat(m.path(ka)); !os.IsNotExist(err) {
		t.Fatal("Invalidate left the file")
	}
	if m.ResidentBytes() <= 0 {
		t.Fatal("other model's index should stay resident")
	}
	m.InvalidateModel("m2")
	if m.ResidentBytes() != 0 {
		t.Fatal("InvalidateModel left resident bytes")
	}
	if _, err := os.Stat(m.path(kb)); !os.IsNotExist(err) {
		t.Fatal("InvalidateModel left m2's file")
	}
	// Probes after invalidation rebuild cleanly.
	if _, err := m.TopK(ka, 1, 2, fetchOf(col, 16)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("rebuild did not re-publish")
	}
}

func TestManagerRebuildsOnProbeError(t *testing.T) {
	// A byte pattern that passes the CRC (we re-sign it) but carries a
	// structurally broken row list would be caught at decode; simulate the
	// rarer case — an in-memory index whose segment payload misbehaves — by
	// installing a hand-corrupted index directly.
	dir := t.TempDir()
	reg := obs.New()
	m, err := NewManager(ManagerConfig{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	col := testColumn(100, 6)
	key := Key{Model: "m", Intermediate: "i", Column: "c"}
	bad := Build(col, 32, 9, Config{SegmentEntries: 16})
	bad.segs[0].rowsEnc = bad.segs[0].rowsEnc[:1] // torn payload
	e, _ := m.lookup(key, 9)
	m.install(key, e, bad)

	got, err := m.TopK(key, 9, 4, fetchOf(col, 32))
	if err != nil {
		t.Fatalf("probe with broken cached index: %v", err)
	}
	want, _, _ := Build(col, 32, 9, Config{}).TopK(4)
	for i := range got {
		if got[i].Row != want[i].Row {
			t.Fatalf("rebuilt probe row %d = %d, want %d", i, got[i].Row, want[i].Row)
		}
	}
	if counterVal(reg, "mistique_index_rebuilds_total") != 1 {
		t.Fatal("probe error did not count a rebuild")
	}
}
