package colstore

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"mistique/internal/quant"
)

// TestManifestKeys pins the top-level keys of MANIFEST.json.gz. Every
// section is rewritten on each flush, so a new one must have a reader:
// adding a key means editing this list in the same change.
func TestManifestKeys(t *testing.T) {
	var m manifest
	// Give every field a non-zero value so omitempty hides none of them.
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		}
	}
	blob, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(blob, &top); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range top {
		got = append(got, k)
	}
	slices.Sort(got)
	want := []string{"columns", "deltas", "generation", "next_partition", "partitions", "stats", "version"}
	if !slices.Equal(got, want) {
		t.Fatalf("manifest keys %q, want %q", got, want)
	}
}

// fixtureColumn is one column put of the parent_zones fixture.
type fixtureColumn struct {
	key    ColumnKey
	vals   []float32
	q      *quant.Quantizer
	parent *ColumnKey // PutColumnDelta against this key when set
}

// parentZonesConfig is the store configuration testdata/parent_zones was
// written with.
var parentZonesConfig = Config{RowBlockRows: 64}

// parentZonesColumns is the content of testdata/parent_zones: a FULL
// column over four blocks (one value NaN), an LP and an 8-bit column,
// and a second version of the FULL column put as a delta against the first.
func parentZonesColumns(t testing.TB) []fixtureColumn {
	t.Helper()
	const rows = 200
	full := make([]float32, rows)
	lp := make([]float32, rows)
	for i := range full {
		full[i] = float32(i)*0.5 - 40
		lp[i] = float32(math.Sin(float64(i) / 7))
	}
	full[3] = float32(math.NaN())
	next := append([]float32(nil), full...)
	next[10], next[100] = 1, 2
	kbit, err := quant.FitKBit(lp, 8)
	if err != nil {
		t.Fatal(err)
	}

	var out []fixtureColumn
	add := func(model, col string, vals []float32, q *quant.Quantizer, parentModel string) {
		br := parentZonesConfig.RowBlockRows
		for b := 0; b*br < len(vals); b++ {
			fc := fixtureColumn{key: key(model, "acts", col, b), vals: vals[b*br : min((b+1)*br, len(vals))], q: q}
			if parentModel != "" {
				p := key(parentModel, "acts", col, b)
				fc.parent = &p
			}
			out = append(out, fc)
		}
	}
	add("v0", "full", full, nil, "")
	add("v0", "lp", lp, quant.NewLP(), "")
	add("v0", "kbit", lp, kbit, "")
	add("v1", "full", next, nil, "v0")
	return out
}

// putFixture stores the fixture columns into s.
func putFixture(t testing.TB, s *Store, cols []fixtureColumn) {
	t.Helper()
	for _, c := range cols {
		var err error
		if c.parent != nil {
			_, err = s.PutColumnDelta(c.key, c.vals, c.q, *c.parent)
		} else {
			_, err = s.PutColumn(c.key, c.vals, c.q)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestParentZonesManifestOpens: testdata/parent_zones was written (put,
// Flush) by the commit before the per-chunk zone maps were deleted, so its
// manifest still carries a "zones" section. It must open, read every
// column bit for bit as a fresh store reconstructs the same puts, and
// verify clean; the unknown key is dropped on the next manifest write.
func TestParentZonesManifestOpens(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "parent_zones")
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !manifestHasKey(t, dir, "zones") {
		t.Fatal("fixture manifest has no zones section; regenerate it with the older code")
	}
	s, err := Open(dir, parentZonesConfig)
	if err != nil {
		t.Fatal(err)
	}
	if rep := s.LastRecovery(); !clean(rep) {
		t.Fatalf("recovery on open: %+v", rep)
	}
	cols := parentZonesColumns(t)
	fresh := openTest(t, parentZonesConfig)
	putFixture(t, fresh, cols)
	for _, c := range cols {
		want, err := fresh.GetColumn(c.key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.GetColumn(c.key)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", c.key, len(got), len(want))
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s[%d] = %v, want %v", c.key, i, got[i], want[i])
			}
		}
	}
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) > 0 {
		t.Fatalf("verify: %v", rep.Problems)
	}
	if s.Stats().DeltaChunks == 0 {
		t.Fatal("fixture holds no delta generation")
	}
	s.mu.Lock()
	err = s.writeManifestLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if manifestHasKey(t, dir, "zones") {
		t.Fatal("rewritten manifest still carries zones")
	}
}

// manifestHasKey reports whether dir's manifest has a top-level key.
func manifestHasKey(t *testing.T, dir, k string) bool {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(blob, &top); err != nil {
		t.Fatal(err)
	}
	_, ok := top[k]
	return ok
}

// TestFlushNonFiniteColumns: a chunk holding only infinities or only NaNs
// once made every later manifest write fail, because its per-chunk min/max
// summary was ±Inf, which JSON cannot encode. The manifest carries no
// values now, so such columns flush, reopen and read back bit for bit.
func TestFlushNonFiniteColumns(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{RowBlockRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	data := map[ColumnKey][]float32{
		key("m", "i", "inf", 0): {inf, -inf, inf, -inf},
		key("m", "i", "nan", 0): {nan, nan, nan, nan},
		key("m", "i", "mix", 0): {inf, nan, 1, -2},
	}
	for k, v := range data {
		if _, err := s.PutColumn(k, v, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Config{RowBlockRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range data {
		got, err := s2.GetColumn(k)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s[%d] = %v, want %v", k, i, got[i], want[i])
			}
		}
	}
}
