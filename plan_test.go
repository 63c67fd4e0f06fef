package mistique

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mistique/internal/colstore"
	"mistique/internal/cost"
)

// demoQueries is one well-formed Query per op against the demo pipeline's
// "joined" intermediate (and equally against a two-column stream when
// cols is overridden). Every table below derives its rows from it.
func demoQueries(model, interm string, cols ...string) map[Op]Query {
	if len(cols) == 0 {
		cols = []string{"logerror", "yearbuilt"}
	}
	q := func(op Op, f func(*Query)) Query {
		q := Query{Op: op, Model: model, Intermediate: interm}
		f(&q)
		return q
	}
	return map[Op]Query{
		OpGet:        q(OpGet, func(q *Query) { q.Columns, q.To = cols[:1], 40 }),
		OpRows:       q(OpRows, func(q *Query) { q.Columns, q.From, q.To = cols, 10, 50 }),
		OpFilter:     q(OpFilter, func(q *Query) { q.Columns, q.Pred, q.Bound = cols[1:2], colstore.Gt, 0.5 }),
		OpTopK:       q(OpTopK, func(q *Query) { q.Columns, q.K = cols[1:2], 5 }),
		OpKNN:        q(OpKNN, func(q *Query) { q.Columns, q.Row, q.K = cols, 3, 4 }),
		OpColDist:    q(OpColDist, func(q *Query) { q.Columns, q.MaxError = cols[:1], 0.05 }),
		OpApproxTopK: q(OpApproxTopK, func(q *Query) { q.Columns, q.K, q.MaxError = cols[1:2], 5, 0.05 }),
		OpConfusion:  q(OpConfusion, func(q *Query) { q.Columns = cols }),
		OpSampleRows: q(OpSampleRows, func(q *Query) { q.To = 7 }),
	}
}

// storeTouches fingerprints everything a query could have done to the
// store or the catalog's counters: the Stats block, the number of chunk
// reads (warm ones included) and the summed n_query(i) of a model.
func storeTouches(s *System, model string) [3]any {
	var nQuery int64
	for _, it := range s.Metadata().IntermSnapshots(model) {
		nQuery += it.QueryCount
	}
	return [3]any{s.Store().Stats(), s.Metrics().Histograms["mistique_store_chunk_read_seconds"].Count, nQuery}
}

// TestMalformedTargetsFailAlikeOnEveryOp is the one table of every op x
// every malformed target: each op returns the same typed sentinel, Plan
// returns it too, n_query(i) does not move and the store sees no call.
func TestMalformedTargetsFailAlikeOnEveryOp(t *testing.T) {
	s := openSys(t, Config{})
	logDemo(t, s)
	lazy := openSys(t, Config{Gamma: 1e12}) // adaptive: nothing stored
	logDemo(t, lazy)
	rows := s.Metadata().Intermediate("demo", "joined").Rows
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	malformations := []struct {
		name string
		sys  *System
		ctx  context.Context
		want error
		// bend returns the malformed query, or false when the op cannot
		// be malformed this way.
		bend func(Query) (Query, bool)
	}{
		{"unknown model", s, nil, ErrUnknownModel, func(q Query) (Query, bool) { q.Model = "ghost"; return q, true }},
		{"unknown intermediate", s, nil, ErrUnknownIntermediate, func(q Query) (Query, bool) { q.Intermediate = "ghost"; return q, true }},
		{"unknown column", s, nil, ErrUnknownColumn, func(q Query) (Query, bool) {
			q.Columns = append([]string{"typo"}, q.Columns...)[:max(1, len(q.Columns))]
			return q, true
		}},
		{"unmaterialized", lazy, nil, ErrNotMaterialized, func(q Query) (Query, bool) {
			if q.Op == OpGet {
				q.Force = cost.Read.String()
			}
			return q, ops[q.Op].stored || q.Op == OpGet
		}},
		{"inverted range", s, nil, ErrBadQuery, func(q Query) (Query, bool) { q.From, q.To = 9, 4; return q, true }},
		{"negative range", s, nil, ErrBadQuery, func(q Query) (Query, bool) { q.From = -1; return q, true }},
		{"range past the end", s, nil, ErrBadQuery, func(q Query) (Query, bool) { q.From, q.To = rows+1, 0; return q, true }},
		{"negative k", s, nil, ErrBadQuery, func(q Query) (Query, bool) { q.K = -1; return q, true }},
		{"zero k", s, nil, ErrBadQuery, func(q Query) (Query, bool) { q.K = 0; return q, q.Op == OpApproxTopK }},
		{"negative query row", s, nil, ErrBadQuery, func(q Query) (Query, bool) { q.Row = -1; return q, true }},
		{"query row past the end", s, nil, ErrBadQuery, func(q Query) (Query, bool) { q.Row = rows; return q, q.Op == OpKNN }},
		{"no target", s, nil, ErrBadQuery, func(q Query) (Query, bool) { q.Model = ""; return q, true }},
		{"forced SAMPLE", s, nil, ErrBadQuery, func(q Query) (Query, bool) { q.Force = cost.Sample.String(); return q, true }},
		{"canceled context", s, canceled, context.Canceled, func(q Query) (Query, bool) { return q, true }},
	}
	for _, mal := range malformations {
		for op, base := range demoQueries("demo", "joined") {
			q, applies := mal.bend(base)
			if !applies {
				continue
			}
			ctx := mal.ctx
			if ctx == nil {
				ctx = context.Background()
				if _, err := mal.sys.Plan(q); !errors.Is(err, mal.want) {
					t.Errorf("%s, %s: Plan err = %v, want %v", mal.name, op, err, mal.want)
				}
			}
			before := storeTouches(mal.sys, "demo")
			if _, err := mal.sys.Execute(ctx, q); !errors.Is(err, mal.want) {
				t.Errorf("%s, %s: Execute err = %v, want %v", mal.name, op, err, mal.want)
			}
			if after := storeTouches(mal.sys, "demo"); after != before {
				t.Errorf("%s, %s: rejected query touched the store or n_query: %v -> %v", mal.name, op, before, after)
			}
		}
	}

	// The entry points that are not an Execute of their own report the
	// same sentinels.
	if err := s.Prefetch("ghost", "joined"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("Prefetch unknown model: %v", err)
	}
	if err := s.Prefetch("demo", "ghost"); !errors.Is(err, ErrUnknownIntermediate) {
		t.Errorf("Prefetch unknown intermediate: %v", err)
	}
	if err := lazy.Prefetch("demo", "joined"); !errors.Is(err, ErrNotMaterialized) {
		t.Errorf("Prefetch unmaterialized: %v", err)
	}
	if _, _, err := s.Estimate("demo", "ghost", 0); !errors.Is(err, ErrUnknownIntermediate) {
		t.Errorf("Estimate unknown intermediate: %v", err)
	}
	if _, err := NewSession(s, 0).Get("demo", "joined", []string{"typo"}, 0); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("Session.Get unknown column: %v", err)
	}
}

// TestPlanAgreesWithExecute: for every op, automatic and forced, on the
// Zillow pipeline, a CNN and a stream, the strategy, the estimates and the
// normalized query Plan returns are the ones on the executed answer — and
// the ops that choose between READ and RERUN always carry both estimates
// (even when only one strategy was available, or one was forced).
func TestPlanAgreesWithExecute(t *testing.T) {
	zillow := openSys(t, Config{})
	logDemo(t, zillow)
	lazy := openSys(t, Config{Gamma: 1e30}) // adaptive on: RERUN is the only strategy
	logDemo(t, lazy)
	cnn, _ := dnnSetup(t, SchemeFull, 96)
	stream := openSys(t, Config{RowBlockRows: 64})
	ingestStream(t, stream, "live", "acts", []string{"v", "w"}, 0, 300, 50)
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}

	fixtures := []struct {
		name    string
		sys     *System
		queries map[Op]Query
		forces  []string
		want    cost.Strategy // of OpColDist: SAMPLE only where a sample exists
	}{
		{"zillow", zillow, demoQueries("demo", "joined"), []string{"", "READ", "RERUN"}, cost.Read},
		{"zillow unmaterialized", lazy, demoQueries("demo", "joined"), []string{"", "RERUN"}, cost.Rerun},
		{"cnn", cnn, demoQueries("cnn@e0", "logits", "u0", "u1"), []string{"", "READ", "RERUN"}, cost.Read},
		{"stream", stream, demoQueries("live", "acts", "v", "w"), []string{"", "READ"}, cost.Sample},
	}
	for _, fx := range fixtures {
		for op, q := range fx.queries {
			for _, force := range fx.forces {
				if force != "" && op != OpGet {
					continue
				}
				q.Force = force
				p, err := fx.sys.Plan(q)
				if fx.sys == lazy && ops[op].stored {
					if !errors.Is(err, ErrNotMaterialized) {
						t.Errorf("%s, %s: Plan err = %v, want ErrNotMaterialized", fx.name, op, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s, %s force %q: Plan: %v", fx.name, op, force, err)
					continue
				}
				a, err := fx.sys.Execute(context.Background(), q)
				if err != nil {
					t.Errorf("%s, %s force %q: Execute: %v", fx.name, op, force, err)
					continue
				}
				if a.Strategy != p.Strategy || a.EstReadSecs != p.EstReadSecs || a.EstRerunSecs != p.EstRerunSecs ||
					a.EstSampleSecs != p.EstSampleSecs || !reflect.DeepEqual(a.Query, p.Query) {
					t.Errorf("%s, %s force %q: executed %+v, planned %+v", fx.name, op, force, a.Plan, *p)
				}
				if force != "" && p.Strategy.String() != force {
					t.Errorf("%s, %s: forced %s, planned %s", fx.name, op, force, p.Strategy)
				}
				if op == OpColDist && p.Strategy != fx.want {
					t.Errorf("%s, %s: strategy %s, want %s", fx.name, op, p.Strategy, fx.want)
				}
				if !ops[op].stored && p.Strategy != cost.Sample && fx.sys != stream && (p.EstReadSecs <= 0 || p.EstRerunSecs <= 0) {
					t.Errorf("%s, %s force %q: estimates not populated: read=%g rerun=%g", fx.name, op, force, p.EstReadSecs, p.EstRerunSecs)
				}
			}
		}
	}
}

// slowQueryOps reads the slow-query log and returns its records by op.
func slowQueryOps(t *testing.T, dir string) map[Op][]slowQueryRecord {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, slowQueryLogName))
	if err != nil {
		t.Fatalf("slow-query log missing: %v", err)
	}
	byOp := map[Op][]slowQueryRecord{}
	sc := bufio.NewScanner(bytes.NewReader(blob))
	for sc.Scan() {
		var rec slowQueryRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("slow-query line %q does not parse: %v", sc.Text(), err)
		}
		byOp[rec.Op] = append(byOp[rec.Op], rec)
	}
	return byOp
}

// TestSlowQueryLogCoversEveryOp: a slow TopK index build, FilterRows heal,
// KNN, GetRows or approximate query used to be invisible; the shared
// epilogue writes one record per executed query whatever its op.
func TestSlowQueryLogCoversEveryOp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{SlowQueryThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	s.nidx = nil
	logDemo(t, s)
	queries := demoQueries("demo", "joined")
	for op, q := range queries {
		if _, err := s.Execute(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	// A scan over lost chunks heals; the record says so.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().DropCache(); err != nil {
		t.Fatal(err)
	}
	corruptDataFiles(t, dir)
	if _, err := s.FilterRows("demo", "joined", "yearbuilt", colstore.Ge, 2015); err != nil {
		t.Fatal(err)
	}

	byOp := slowQueryOps(t, dir)
	for op := range queries {
		recs := byOp[op]
		if len(recs) == 0 {
			t.Errorf("no slow-query record for %s", op)
			continue
		}
		if r := recs[0]; r.Model != "demo" || r.Intermediate != "joined" || r.Strategy == "" || r.Seconds <= 0 || r.Cols == 0 {
			t.Errorf("%s record incomplete: %+v", op, r)
		}
	}
	if recs := byOp[OpFilter]; len(recs) != 2 || recs[0].Healed || !recs[1].Healed {
		t.Errorf("filter records %+v, want a clean scan then a healed one", recs)
	}
	if r := byOp[OpGet][0]; r.EstReadSecs <= 0 || r.EstRerunSecs <= 0 {
		t.Errorf("get record lacks the estimates Plan computed: %+v", r)
	}
}

// typoQueries returns every way to hand the engine a misspelled column.
func typoQueries(s *System, model, interm string) map[string]func() error {
	one := func(_ any, err error) error { return err }
	return map[string]func() error{
		"GetRows":               func() error { return one(s.GetRows(model, interm, []string{"typo"}, 0, 10)) },
		"FilterRows":            func() error { return one(s.FilterRows(model, interm, "typo", colstore.Gt, 0)) },
		"TopK":                  func() error { return one(s.TopK(model, interm, "typo", 3)) },
		"GetIntermediate":       func() error { return one(s.GetIntermediate(model, interm, []string{"typo"}, 0)) },
		"Fetch":                 func() error { return one(s.Fetch(model, interm, []string{"typo"}, 0, cost.Read)) },
		"GetColumn":             func() error { return one(s.GetColumn(model, interm, "typo", 0)) },
		"ColDist":               func() error { return one(s.ColDist(model, interm, "typo", 1e-12)) },
		"ApproxTopK":            func() error { return one(s.ApproxTopK(model, interm, "typo", 3, 1e-12)) },
		"ConfusionMatrixApprox": func() error { return one(s.ConfusionMatrixApprox(model, interm, "typo", "typo", 1e-12)) },
		"GetIntermediateApprox": func() error { return one(s.GetIntermediateApprox(model, interm, []string{"typo"}, 5)) },
	}
}

// TestTypoColumnNeverDeletesStoredData pins the data-loss fix: a column
// the catalog does not list is ErrUnknownColumn before any store call —
// not "lost chunks" to heal by deleting the intermediate. On a stream
// (which cannot be re-materialized) the old path destroyed every flushed
// row; on a pipeline it deleted, re-ran and re-stored the intermediate.
func TestTypoColumnNeverDeletesStoredData(t *testing.T) {
	stream := openSys(t, Config{RowBlockRows: 64})
	streamCols := []string{"v", "w"}
	ingestStream(t, stream, "live", "acts", streamCols, 0, 300, 50)
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}
	zillow := openSys(t, Config{})
	logDemo(t, zillow)

	for _, fx := range []struct {
		name, model, interm string
		sys                 *System
	}{{"stream", "live", "acts", stream}, {"zillow", "demo", "joined", zillow}} {
		it, _ := fx.sys.Metadata().IntermSnapshot(fx.model, fx.interm)
		want, err := fx.sys.GetRows(fx.model, fx.interm, nil, 0, it.Rows)
		if err != nil {
			t.Fatal(err)
		}
		sigs := make([]uint32, len(it.Columns))
		for j, c := range it.Columns {
			if sigs[j], err = fx.sys.Store().ColumnSignature(fx.model, fx.interm, c); err != nil {
				t.Fatal(err)
			}
		}
		before := storeTouches(fx.sys, fx.model)
		for name, query := range typoQueries(fx.sys, fx.model, fx.interm) {
			if err := query(); !errors.Is(err, ErrUnknownColumn) {
				t.Errorf("%s, %s: err = %v, want ErrUnknownColumn", fx.name, name, err)
			}
		}
		if after := storeTouches(fx.sys, fx.model); after != before {
			t.Errorf("%s: typo queries touched the store: %v -> %v", fx.name, before, after)
		}
		if now, _ := fx.sys.Metadata().IntermSnapshot(fx.model, fx.interm); !now.Materialized {
			t.Fatalf("%s: a typo unmaterialized the intermediate", fx.name)
		}
		for j, c := range it.Columns {
			if sig, err := fx.sys.Store().ColumnSignature(fx.model, fx.interm, c); err != nil || sig != sigs[j] {
				t.Fatalf("%s: column %s signature %d -> %d (%v)", fx.name, c, sigs[j], sig, err)
			}
		}
		got, err := fx.sys.GetRows(fx.model, fx.interm, nil, 0, it.Rows)
		if err != nil {
			t.Fatalf("%s: exact read after the typos: %v", fx.name, err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] && (got.Data[i] == got.Data[i] || want.Data[i] == want.Data[i]) {
				t.Fatalf("%s: stored value %d changed", fx.name, i)
			}
		}
	}
}

// TestStreamBadPartitionKeepsHealthyBlocks: a stream cannot be
// re-materialized, so one quarantined partition must cost exactly the
// blocks it held — the read error comes back naming the unavailable chunk,
// and the mappings, the catalog flag and every healthy block stay.
func TestStreamBadPartitionKeepsHealthyBlocks(t *testing.T) {
	dir := t.TempDir()
	// One chunk per partition, so a bad file is a bad block, not the store.
	s, err := Open(dir, Config{RowBlockRows: 64, Store: colstore.Config{PartitionTargetBytes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"v"}
	const blocks = 4
	ingestStream(t, s, "live", "acts", cols, 0, blocks*64, 64)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().DropCache(); err != nil {
		t.Fatal(err)
	}
	parts, _ := filepath.Glob(filepath.Join(dir, "data", "partition_*"))
	if len(parts) < blocks {
		t.Fatalf("%d partition files for %d blocks: the fixture no longer isolates blocks", len(parts), blocks)
	}
	blob, err := os.ReadFile(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(parts[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, read := range []func() error{
		func() error { _, err := s.GetIntermediate("live", "acts", nil, 0); return err },
		func() error { _, err := s.GetRows("live", "acts", nil, 0, blocks*64); return err },
		func() error { _, err := s.FilterRows("live", "acts", "v", colstore.Ge, 0); return err },
	} {
		err := read()
		if !errors.Is(err, colstore.ErrUnavailable) || !strings.Contains(err.Error(), "unavailable") {
			t.Fatalf("read over the bad partition: err = %v, want the unavailable chunk named", err)
		}
	}
	if it, _ := s.Metadata().IntermSnapshot("live", "acts"); !it.Materialized {
		t.Fatal("one bad partition unmaterialized the stream")
	}
	healthy := 0
	for b := 0; b < blocks; b++ {
		m, err := s.GetRows("live", "acts", cols, b*64, (b+1)*64)
		if err != nil {
			continue
		}
		healthy++
		for i := 0; i < m.Rows; i++ {
			if got, want := m.At(i, 0), streamVal(int64(b*64+i), 0); got != want {
				t.Fatalf("block %d row %d = %v, want %v", b, i, got, want)
			}
		}
	}
	if healthy != blocks-1 {
		t.Fatalf("%d of %d blocks still read, want all but the corrupted one", healthy, blocks)
	}
}
