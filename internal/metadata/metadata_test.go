package metadata

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"mistique/internal/durable"
	"mistique/internal/faultfs"
)

func testModel() *Model {
	return &Model{
		Name:          "zillow_p1",
		Kind:          TRAD,
		TotalExamples: 10000,
		Stages: []Stage{
			{Name: "ReadCSV", Index: 0, ExecSeconds: 0.5, OutputColumns: 20},
			{Name: "Join", Index: 1, ExecSeconds: 0.3, OutputColumns: 25},
		},
	}
}

func TestRegisterAndLookup(t *testing.T) {
	db := NewDB()
	if err := db.RegisterModel(testModel()); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterModel(testModel()); err == nil {
		t.Fatal("duplicate model accepted")
	}
	if db.Model("zillow_p1") == nil || db.Model("nope") != nil {
		t.Fatal("Model lookup broken")
	}
	if !reflect.DeepEqual(db.Models(), []string{"zillow_p1"}) {
		t.Fatalf("Models() = %v", db.Models())
	}
}

func TestIntermediates(t *testing.T) {
	db := NewDB()
	db.RegisterModel(testModel())
	it := &Interm{Name: "interm1", StageIndex: 1, Columns: []string{"a", "b"}, Rows: 10000, Blocks: 10}
	if err := db.AddIntermediate("zillow_p1", it); err != nil {
		t.Fatal(err)
	}
	if err := db.AddIntermediate("zillow_p1", &Interm{Name: "interm1"}); err == nil {
		t.Fatal("duplicate intermediate accepted")
	}
	if err := db.AddIntermediate("ghost", &Interm{Name: "x"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	got := db.Intermediate("zillow_p1", "interm1")
	if got == nil || got.Blocks != 10 {
		t.Fatalf("Intermediate lookup: %+v", got)
	}
	if db.Intermediate("zillow_p1", "ghost") != nil || db.Intermediate("ghost", "x") != nil {
		t.Fatal("phantom intermediate")
	}
}

func TestQueryCounting(t *testing.T) {
	db := NewDB()
	db.RegisterModel(testModel())
	// Lazily created on first query.
	n, err := db.RecordQuery("zillow_p1", "pred")
	if err != nil || n != 1 {
		t.Fatalf("first query: n=%d err=%v", n, err)
	}
	n, _ = db.RecordQuery("zillow_p1", "pred")
	if n != 2 {
		t.Fatalf("second query n=%d", n)
	}
	if it := db.Intermediate("zillow_p1", "pred"); it == nil || it.Materialized {
		t.Fatal("lazy intermediate state wrong")
	}
	if _, err := db.RecordQuery("ghost", "pred"); err == nil {
		t.Fatal("unknown model query accepted")
	}
}

func TestSetMaterialized(t *testing.T) {
	db := NewDB()
	db.RegisterModel(testModel())
	db.AddIntermediate("zillow_p1", &Interm{Name: "interm1"})
	if err := db.SetMaterialized("zillow_p1", "interm1", 12345, "LP_QT"); err != nil {
		t.Fatal(err)
	}
	it := db.Intermediate("zillow_p1", "interm1")
	if !it.Materialized || it.StoredBytes != 12345 || it.QuantScheme != "LP_QT" {
		t.Fatalf("materialized state %+v", it)
	}
	if err := db.SetMaterialized("zillow_p1", "ghost", 1, "x"); err == nil {
		t.Fatal("unknown intermediate accepted")
	}
	if err := db.SetMaterialized("ghost", "x", 1, "x"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := NewDB()
	m := testModel()
	db.RegisterModel(m)
	db.AddIntermediate("zillow_p1", &Interm{Name: "interm1", Columns: []string{"x"}, Rows: 5})
	db.RecordQuery("zillow_p1", "interm1")
	db.SetMaterialized("zillow_p1", "interm1", 99, "FULL")

	path := filepath.Join(t.TempDir(), "meta.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	it := back.Intermediate("zillow_p1", "interm1")
	if it == nil || it.QueryCount != 1 || it.StoredBytes != 99 || !it.Materialized {
		t.Fatalf("loaded intermediate %+v", it)
	}
	if got := back.Model("zillow_p1"); got.TotalExamples != 10000 || len(got.Stages) != 2 {
		t.Fatalf("loaded model %+v", got)
	}
	// Query counting still works on the loaded catalog (byName rebuilt).
	if n, err := back.RecordQuery("zillow_p1", "interm1"); err != nil || n != 2 {
		t.Fatalf("post-load query: n=%d err=%v", n, err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestDeleteModel(t *testing.T) {
	db := NewDB()
	db.RegisterModel(testModel())
	if !db.DeleteModel("zillow_p1") {
		t.Fatal("delete failed")
	}
	if db.DeleteModel("zillow_p1") {
		t.Fatal("double delete succeeded")
	}
	if db.Model("zillow_p1") != nil {
		t.Fatal("model survived delete")
	}
}

func TestSetUnmaterialized(t *testing.T) {
	db := NewDB()
	db.RegisterModel(testModel())
	db.AddIntermediate("zillow_p1", &Interm{Name: "interm1"})
	db.SetMaterialized("zillow_p1", "interm1", 500, "FULL")
	if err := db.SetUnmaterialized("zillow_p1", "interm1"); err != nil {
		t.Fatal(err)
	}
	it := db.Intermediate("zillow_p1", "interm1")
	if it.Materialized || it.StoredBytes != 0 {
		t.Fatalf("unmaterialized state %+v", it)
	}
	if err := db.SetUnmaterialized("zillow_p1", "ghost"); err == nil {
		t.Fatal("unknown intermediate accepted")
	}
	if err := db.SetUnmaterialized("ghost", "x"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	db := NewDB()
	db.RegisterModel(testModel())
	path := filepath.Join(t.TempDir(), "meta.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the models payload (past the envelope prefix) so
	// the JSON still parses but the checksum no longer matches.
	idx := bytes.Index(blob, []byte("zillow_p1"))
	if idx < 0 {
		t.Fatal("payload not found")
	}
	blob[idx] = 'Z'
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("corrupted catalog load: %v, want durable.ErrCorrupt", err)
	}
	// Outright garbage is also durable.ErrCorrupt (vs an IO error).
	if err := os.WriteFile(path, []byte("{{{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("garbage catalog load: %v, want durable.ErrCorrupt", err)
	}
}

func TestLoadLegacyFormat(t *testing.T) {
	// Pre-checksum catalogs ({"models": [...]} with no format/crc fields)
	// must load without verification for migration.
	legacy := []byte(`{"models": [{"name": "old_model", "kind": "TRAD", "total_examples": 5}]}`)
	path := filepath.Join(t.TempDir(), "meta.json")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Model("old_model") == nil {
		t.Fatal("legacy model not loaded")
	}
}

// TestSaveFaultLeavesOldCatalogIntact: a failed publish (internal/durable
// proves it leaves the old bytes and no temp) must surface its cause
// through Save's wrapping and leave a loadable catalog, and the same DB
// must save cleanly afterwards.
func TestSaveFaultLeavesOldCatalogIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.json")
	db := NewDB()
	db.RegisterModel(testModel())
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}

	inj := faultfs.NewInjector(nil)
	db.SetFS(inj)
	db.RegisterModel(&Model{Name: "second", Kind: DNN})
	inj.Arm(faultfs.Fault{Op: faultfs.OpWrite, PathContains: "meta.json", Err: syscall.ENOSPC})
	if err := db.Save(path); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("save error %v, want ENOSPC", err)
	}
	old, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if old.Model("zillow_p1") == nil || old.Model("second") != nil {
		t.Fatal("old catalog damaged by failed save")
	}

	inj.Disarm()
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Model("second") == nil {
		t.Fatal("new catalog missing model")
	}
}

func TestAddStreamRows(t *testing.T) {
	db := NewDB()
	if err := db.AddStreamRows("none", "x", 1, 1, 1); err == nil {
		t.Fatal("unknown model accepted")
	}
	db.RegisterModel(&Model{Name: "live", Kind: Stream})
	if err := db.AddStreamRows("live", "acts", 1, 1, 1); err == nil {
		t.Fatal("unknown intermediate accepted")
	}
	db.AddIntermediate("live", &Interm{Name: "acts", Columns: []string{"a", "b"}, QuantScheme: "FULL"})
	if err := db.AddStreamRows("live", "acts", 2048, 2, 16384); err != nil {
		t.Fatal(err)
	}
	it, _ := db.IntermSnapshot("live", "acts")
	if it.Rows != 2048 || it.Blocks != 2 || it.StoredBytes != 16384 || !it.Materialized {
		t.Fatalf("after stream growth: %+v", it)
	}
	// Replay re-offering already-counted rows must not move shape
	// backwards, but bytes still accumulate when passed.
	if err := db.AddStreamRows("live", "acts", 1024, 1, 0); err != nil {
		t.Fatal(err)
	}
	it, _ = db.IntermSnapshot("live", "acts")
	if it.Rows != 2048 || it.Blocks != 2 || it.StoredBytes != 16384 {
		t.Fatalf("shape moved backwards: %+v", it)
	}
	// Stream models survive a catalog save/load round trip.
	dir := t.TempDir()
	path := filepath.Join(dir, "metadata.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Model("live").Kind != Stream {
		t.Fatalf("stream kind lost: %q", db2.Model("live").Kind)
	}
}
