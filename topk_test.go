package mistique

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"mistique/internal/colstore"
	"mistique/internal/diag"
)

// TestIndexScanParitySchemes is the engine-level arm of the differential
// harness: the indexed TOPK / FilterRows / KNN paths must agree exactly
// with internal/diag full scans over the same reconstructed data, on every
// storage scheme (exact floats, LP-quantized, 8-bit) — the index sees
// whatever the dequantizer hands back, so parity must hold per scheme, not
// just on exact data.
func TestIndexScanParitySchemes(t *testing.T) {
	for _, scheme := range []Scheme{SchemeFull, SchemeLP, Scheme8Bit} {
		t.Run(string(scheme), func(t *testing.T) {
			s, _ := dnnSetup(t, scheme, 96)
			const model, interm = "cnn@e0", "logits"
			it := s.Metadata().Intermediate(model, interm)
			if it == nil || !it.Materialized {
				t.Fatal("logits not materialized")
			}
			n := it.Rows
			for _, column := range it.Columns {
				col, err := s.GetColumn(model, interm, column, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{0, 1, n, n + 1} {
					got, err := s.TopK(model, interm, column, k)
					if err != nil {
						t.Fatalf("%s k=%d: %v", column, k, err)
					}
					want := diag.TopK(col, k)
					if len(got) != len(want) {
						t.Fatalf("%s k=%d: %d entries, oracle %d", column, k, len(got), len(want))
					}
					for i, r := range want {
						if got[i].Row != r || math.Float32bits(got[i].Value) != math.Float32bits(col[r]) {
							t.Fatalf("%s k=%d entry %d: {%d %v}, oracle {%d %v}",
								column, k, i, got[i].Row, got[i].Value, r, col[r])
						}
					}
				}
				for _, op := range []colstore.Op{colstore.Gt, colstore.Ge, colstore.Lt, colstore.Le} {
					bound := col[n/2]
					got, err := s.FilterRows(model, interm, column, op, bound)
					if err != nil {
						t.Fatalf("%s %v: %v", column, op, err)
					}
					want := naiveFilter(col, op, bound)
					if len(got) != len(want) {
						t.Fatalf("%s %v %v: %d rows, oracle %d", column, op, bound, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s %v: row %d = %d, oracle %d", column, op, i, got[i], want[i])
						}
					}
				}
			}
			// KNN through the zone-pruned path vs the naive scan.
			x, err := s.GetRows(model, interm, nil, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []int{0, n / 2, n - 1} {
				for _, k := range []int{0, 1, 5, n, n + 1} {
					got, err := s.KNN(model, interm, q, k)
					if err != nil {
						t.Fatalf("knn q=%d k=%d: %v", q, k, err)
					}
					want := diag.KNN(x, x.Row(q), k, q)
					if len(got) != len(want) {
						t.Fatalf("knn q=%d k=%d: %d rows, oracle %d", q, k, len(got), len(want))
					}
					for i, r := range want {
						if got[i].Row != r {
							t.Fatalf("knn q=%d k=%d: rank %d = row %d, oracle %d", q, k, i, got[i].Row, r)
						}
					}
				}
			}
		})
	}
}

func naiveFilter(col []float32, op colstore.Op, bound float32) []int {
	out := []int{}
	for i, v := range col {
		var match bool
		switch op {
		case colstore.Gt:
			match = v > bound
		case colstore.Ge:
			match = v >= bound
		case colstore.Lt:
			match = v < bound
		default:
			match = v <= bound
		}
		if match {
			out = append(out, i)
		}
	}
	return out
}

// TestFilterRowsIndexHealsAfterLoss is the index-side twin of
// TestFilterRowsHealsAfterLoss: with the neuron index enabled and then
// invalidated, a FilterRows over lost chunks must rebuild the index, whose
// column fetch heals the intermediate by rerunning — the answer survives
// total chunk loss with zero stale-index shortcuts.
func TestFilterRowsIndexHealsAfterLoss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s)
	want, err := s.FilterRows("demo", "joined", "yearbuilt", colstore.Ge, 2015)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().DropCache(); err != nil {
		t.Fatal(err)
	}
	corruptDataFiles(t, dir)
	// Drop the index too (memory + files): the rebuild's column fetch now
	// has nothing valid to read and must go through the heal path.
	s.nidx.InvalidateModel("demo")

	got, err := s.FilterRows("demo", "joined", "yearbuilt", colstore.Ge, 2015)
	if err != nil {
		t.Fatalf("indexed scan against corrupt store: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("healed indexed scan found %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("healed indexed scan row %d = %d, want %d", i, got[i], want[i])
		}
	}
	if s.Store().Stats().RecoveredReads == 0 {
		t.Fatal("index rebuild did not go through the heal path")
	}
}

// TestIndexServesOverLostChunks pins the index-as-replica property: a
// published, signature-valid index answers TOPK correctly even when every
// partition file is corrupt, because it carries its own checksummed copy
// of the column.
func TestIndexServesOverLostChunks(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s)
	want, err := s.TopK("demo", "joined", "yearbuilt", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().DropCache(); err != nil {
		t.Fatal(err)
	}
	corruptDataFiles(t, dir)

	got, err := s.TopK("demo", "joined", "yearbuilt", 10)
	if err != nil {
		t.Fatalf("indexed topk over corrupt store: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replica answer diverges at %d", i)
		}
	}
	if s.Store().Stats().RecoveredReads != 0 {
		t.Fatal("index replica answer should not have touched the corrupt chunks")
	}
}

func TestTopKIndexCountersAndInvalidation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s)
	if _, err := s.TopK("demo", "joined", "yearbuilt", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TopK("demo", "joined", "yearbuilt", 5); err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics()
	if snap.Counters["mistique_index_builds_total"] != 1 {
		t.Fatalf("builds = %d, want 1", snap.Counters["mistique_index_builds_total"])
	}
	if snap.Counters["mistique_index_hits_total"] == 0 {
		t.Fatal("second topk did not hit the cached index")
	}
	if snap.Gauges["mistique_index_bytes"] <= 0 {
		t.Fatal("resident index bytes not reported")
	}

	idxDir := filepath.Join(dir, "data", "nindex")
	entries, err := os.ReadDir(idxDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("index not persisted: %v (%d files)", err, len(entries))
	}
	if err := s.DropModel("demo"); err != nil {
		t.Fatal(err)
	}
	entries, err = os.ReadDir(idxDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Fatalf("DropModel left index file %q", e.Name())
	}
}

func TestTopKDisabledIndexStillAnswers(t *testing.T) {
	s, err := Open(t.TempDir(), Config{Index: IndexConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s)
	got, err := s.TopK("demo", "joined", "yearbuilt", 5)
	if err != nil {
		t.Fatal(err)
	}
	col, err := s.GetColumn("demo", "joined", "yearbuilt", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := diag.TopK(col, 5)
	for i, r := range want {
		if got[i].Row != r {
			t.Fatalf("scan fallback rank %d = row %d, want %d", i, got[i].Row, r)
		}
	}
	if s.Metrics().Counters["mistique_index_builds_total"] != 0 {
		t.Fatal("disabled index still built")
	}
}
