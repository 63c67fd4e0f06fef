package mistique

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mistique/internal/colstore"
	"mistique/internal/diag"
	"mistique/internal/tensor"
)

// TestIndexScanParitySchemes is the engine-level arm of the differential
// harness: the TOPK / FilterRows / KNN answers must agree exactly with
// internal/diag full scans over the same reconstructed data, on every
// storage scheme (exact floats, LP-quantized, 8-bit) — the index sees
// whatever the dequantizer hands back, so parity must hold per scheme, not
// just on exact data. Each scheme runs twice: through the neuron index,
// then with the index disabled, which leaves every op on its full-scan
// twin, both in the logging process and on the reopened store.
func TestIndexScanParitySchemes(t *testing.T) {
	for _, scheme := range []Scheme{SchemeFull, SchemeLP, Scheme8Bit} {
		t.Run(string(scheme), func(t *testing.T) {
			dir := t.TempDir()
			s, _ := dnnSetupIn(t, dir, scheme, 96)
			t.Run("index", func(t *testing.T) { assertScanParity(t, s) })
			t.Run("scan", func(t *testing.T) {
				nidx := s.nidx
				s.nidx = nil
				defer func() { s.nidx = nidx }()
				assertScanParity(t, s)
			})
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			t.Run("scan-reopened", func(t *testing.T) {
				s2, err := Open(dir, dnnSetupConfig)
				if err != nil {
					t.Fatal(err)
				}
				s2.nidx = nil
				assertScanParity(t, s2)
			})
		})
	}
}

// assertScanParity checks every column of cnn@e0.logits: TOPK and
// FilterRows (all four predicates, a stored value and a NaN bound) over
// the whole intermediate and over a window crossing a RowBlock boundary,
// and KNN from three query rows, each against the diag oracle.
func assertScanParity(t *testing.T, s *System) {
	t.Helper()
	const model, interm = "cnn@e0", "logits"
	it := s.Metadata().Intermediate(model, interm)
	if it == nil || !it.Materialized {
		t.Fatal("logits not materialized")
	}
	n := it.Rows
	from, to := 20, n-6 // crosses the 64-row block boundary
	if from >= 64 || to <= 64 {
		t.Fatalf("window [%d, %d) does not cross a block boundary", from, to)
	}
	ctx := context.Background()
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
			sameTopK(t, fmt.Sprintf("%s k=%d", column, k), got, col, 0, k)
			got, err = s.TopKRangeCtx(ctx, model, interm, column, k, from, to)
			if err != nil {
				t.Fatalf("%s k=%d [%d,%d): %v", column, k, from, to, err)
			}
			sameTopK(t, fmt.Sprintf("%s k=%d [%d,%d)", column, k, from, to), got, col[from:to], from, k)
		}
		for _, op := range []colstore.Op{colstore.Gt, colstore.Ge, colstore.Lt, colstore.Le} {
			for _, bound := range []float32{col[n/2], float32(math.NaN())} {
				got, err := s.FilterRows(model, interm, column, op, bound)
				if err != nil {
					t.Fatalf("%s %v %v: %v", column, op, bound, err)
				}
				sameFilter(t, fmt.Sprintf("%s %v %v", column, op, bound), got, naiveFilter(col, op, bound))
				got, err = s.FilterRowsRangeCtx(ctx, model, interm, column, op, bound, from, to)
				if err != nil {
					t.Fatalf("%s %v %v [%d,%d): %v", column, op, bound, from, to, err)
				}
				var want []int
				for _, r := range naiveFilter(col, op, bound) {
					if r >= from && r < to {
						want = append(want, r)
					}
				}
				sameFilter(t, fmt.Sprintf("%s %v %v [%d,%d)", column, op, bound, from, to), got, want)
			}
		}
	}
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
				if got[i].Row != r || got[i].Dist != tensor.L2Dist(x.Row(r), x.Row(q)) {
					t.Fatalf("knn q=%d k=%d: rank %d = {%d %v}, oracle row %d", q, k, i, got[i].Row, got[i].Dist, r)
				}
			}
		}
	}
}

// sameTopK compares a TOPK answer with diag.TopK over col, whose first
// value is global row base.
func sameTopK(t *testing.T, label string, got []TopKEntry, col []float32, base, k int) {
	t.Helper()
	want := diag.TopK(col, k)
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, oracle %d", label, len(got), len(want))
	}
	for i, r := range want {
		if got[i].Row != base+r || math.Float32bits(got[i].Value) != math.Float32bits(col[r]) {
			t.Fatalf("%s entry %d: {%d %v}, oracle {%d %v}", label, i, got[i].Row, got[i].Value, base+r, col[r])
		}
	}
}

func sameFilter(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, oracle %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %d, oracle %d", label, i, got[i], want[i])
		}
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
	// Drop the cached index too: the rebuild's column fetch now has
	// nothing valid to read and must go through the heal path.
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

// TestIndexServesOverLostChunks: a cached, signature-valid index answers
// TOPK correctly even when every partition file is corrupt, because the
// cached index holds its own copy of the column and survives DropCache.
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
			t.Fatalf("cached index answer diverges at %d", i)
		}
	}
	if s.Store().Stats().RecoveredReads != 0 {
		t.Fatal("cached index answer should not have touched the corrupt chunks")
	}
}

// TestIndexRebuildsThroughHealAfterReopen: the index is a cache, not a
// cross-restart replica. After a reopen over corrupt partitions, TOPK and
// FilterRows rebuild the column's index through Execute's heal — the model
// is the backup — and answer exactly what they answered before.
func TestIndexRebuildsThroughHealAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s)
	wantTop, err := s.TopK("demo", "joined", "yearbuilt", 10)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := s.FilterRows("demo", "joined", "yearbuilt", colstore.Ge, 2015)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s2) // re-attach the pipeline the heal re-runs
	if err := s2.Store().DropCache(); err != nil {
		t.Fatal(err)
	}
	corruptDataFiles(t, dir)

	gotTop, err := s2.TopK("demo", "joined", "yearbuilt", 10)
	if err != nil {
		t.Fatalf("topk after reopen over corrupt store: %v", err)
	}
	if len(gotTop) != len(wantTop) {
		t.Fatalf("topk after reopen: %d entries, want %d", len(gotTop), len(wantTop))
	}
	for i := range wantTop {
		if gotTop[i] != wantTop[i] {
			t.Fatalf("topk after reopen diverges at %d: %+v, want %+v", i, gotTop[i], wantTop[i])
		}
	}
	gotRows, err := s2.FilterRows("demo", "joined", "yearbuilt", colstore.Ge, 2015)
	if err != nil {
		t.Fatalf("filter after reopen over corrupt store: %v", err)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("filter after reopen: %d rows, want %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("filter after reopen row %d = %d, want %d", i, gotRows[i], wantRows[i])
		}
	}
	if s2.Store().Stats().RecoveredReads == 0 {
		t.Fatal("answers after reopen did not come through the heal")
	}
}

// TestIndexLeavesNoArtifact: the index cache writes nothing under the
// store, and a data/nindex/ directory an older binary left behind — here
// holding the golden MQNI image that binary wrote — is never read, moved
// or rewritten, not even by DropModel.
func TestIndexLeavesNoArtifact(t *testing.T) {
	dir := t.TempDir()
	idxDir := filepath.Join(dir, "data", "nindex")
	queryAndDrop := func(drop bool) {
		t.Helper()
		s, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		logDemo(t, s)
		if _, err := s.TopK("demo", "joined", "yearbuilt", 5); err != nil {
			t.Fatal(err)
		}
		if _, err := s.FilterRows("demo", "joined", "yearbuilt", colstore.Ge, 2015); err != nil {
			t.Fatal(err)
		}
		if drop {
			if err := s.DropModel("demo"); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	queryAndDrop(false)
	if _, err := os.Stat(idxDir); !os.IsNotExist(err) {
		t.Fatalf("index queries left %s behind (stat: %v)", idxDir, err)
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "parent.mqni"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(idxDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(idxDir, "parent.mqni"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	queryAndDrop(true)
	entries, err := os.ReadDir(idxDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "parent.mqni" {
		t.Fatalf("old index directory holds %v, want only parent.mqni", entries)
	}
	if kept, err := os.ReadFile(filepath.Join(idxDir, "parent.mqni")); err != nil || !bytes.Equal(kept, golden) {
		t.Fatalf("old index file disturbed: %v", err)
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
	if err := s.DropModel("demo"); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Gauges["mistique_index_bytes"]; got != 0 {
		t.Fatalf("DropModel left %d resident index bytes", got)
	}
}

func TestTopKDisabledIndexStillAnswers(t *testing.T) {
	s, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.nidx = nil
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

// TestIndexSeesGrowthOfOpenBlock: a stream's open RowBlock grows in place —
// each flush re-puts a longer prefix under the same key. The index's
// signature holds no row count or value summary, so the new chunk id alone
// must retire the index built over the shorter block: rows that become the
// new maximum show up in the next TOPK and FilterRows.
func TestIndexSeesGrowthOfOpenBlock(t *testing.T) {
	s := openSys(t, Config{RowBlockRows: 64})
	ingest := func(lo, hi int) {
		t.Helper()
		rows := make([][]float32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, []float32{float32(i)})
		}
		if _, err := s.IngestRows("live", "acts", []string{"v"}, rows); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	probe := func(wantTop []int, wantRows []int) {
		t.Helper()
		top, err := s.TopK("live", "acts", "v", len(wantTop))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range wantTop {
			if top[i].Row != r {
				t.Fatalf("topk rank %d = row %d, want %d (answer %+v)", i, top[i].Row, r, top)
			}
		}
		rows, err := s.FilterRows("live", "acts", "v", colstore.Ge, 38)
		if err != nil {
			t.Fatal(err)
		}
		sameFilter(t, "filter >= 38", rows, wantRows)
	}
	ingest(0, 40)
	probe([]int{39, 38}, []int{38, 39})
	ingest(40, 50) // same open block: rows 40..49 are the new maximum
	probe([]int{49, 48}, []int{38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49})
	if got := s.Metrics().Counters["mistique_index_builds_total"]; got < 2 {
		t.Fatalf("index builds = %d, want a rebuild after the block grew", got)
	}
}
