package mistique

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mistique/internal/colstore"
	"mistique/internal/cost"
)

// confusion answers OpConfusion for a (label, pred) column pair.
func confusion(s *System, model, interm, labelCol, predCol string, maxError float64) (*ConfusionMatrix, error) {
	a, err := s.Execute(context.Background(), Query{Op: OpConfusion, Model: model, Intermediate: interm, Columns: []string{labelCol, predCol}, MaxError: maxError})
	if err != nil {
		return nil, err
	}
	return a.Confusion, nil
}

// ingestValues streams one column into model/interm in modest batches.
func ingestValues(t *testing.T, s *System, model, interm, col string, vals []float32) {
	t.Helper()
	const batch = 97
	for off := 0; off < len(vals); off += batch {
		end := off + batch
		if end > len(vals) {
			end = len(vals)
		}
		rows := make([][]float32, 0, end-off)
		for _, v := range vals[off:end] {
			rows = append(rows, []float32{v})
		}
		if _, err := s.IngestRows(model, interm, []string{col}, rows); err != nil {
			t.Fatal(err)
		}
	}
}

// approxDists are the acceptance distributions: bounds must hold on all of
// them, including the adversarial ones (constant, heavy tail, non-finite
// values mixed in).
func approxDists() (names []string, data map[string][]float32) {
	const n = 6000
	rng := rand.New(rand.NewSource(42))
	data = map[string][]float32{}

	uni := make([]float32, n)
	for i := range uni {
		uni[i] = float32(rng.Float64()*200 - 100)
	}
	data["uniform"] = uni

	heavy := make([]float32, n)
	for i := range heavy {
		heavy[i] = float32(math.Pow(rng.Float64()+1e-9, -1.5)) // Pareto-ish
	}
	data["heavy_tail"] = heavy

	cons := make([]float32, n)
	for i := range cons {
		cons[i] = 3.25
	}
	data["constant"] = cons

	nf := make([]float32, n)
	for i := range nf {
		switch {
		case i%7 == 0:
			nf[i] = float32(math.NaN())
		case i%11 == 0:
			nf[i] = float32(math.Inf(1))
		case i%13 == 0:
			nf[i] = float32(math.Inf(-1))
		default:
			nf[i] = float32(rng.NormFloat64())
		}
	}
	data["nonfinite"] = nf

	names = []string{"uniform", "heavy_tail", "constant", "nonfinite"}
	return names, data
}

// TestColDistDifferentialBounds is the differential harness for ColDist:
// the sampled answer's error bounds must hold against ground truth on
// every distribution, and the exact per-column stats must match exactly.
func TestColDistDifferentialBounds(t *testing.T) {
	names, dists := approxDists()
	for _, name := range names {
		vals := dists[name]
		t.Run(name, func(t *testing.T) {
			s := openSys(t, Config{Store: colstore.Config{RowBlockRows: 256}})
			s.sampleCap = 512
			ingestValues(t, s, "live", "d", "v", vals)

			d, err := s.ColDist("live", "d", "v", 0)
			if err != nil {
				t.Fatal(err)
			}
			if d.Strategy != cost.Sample {
				t.Fatalf("strategy %v, want SAMPLE", d.Strategy)
			}
			var exact ColDist
			exactColDist(&exact, vals)

			if d.Rows != int64(len(vals)) {
				t.Fatalf("rows %d, want %d", d.Rows, len(vals))
			}
			// Counts and extrema are tracked exactly at ingest, never
			// estimated: they must be identical, not just close.
			if d.Finite != exact.Finite || d.NaN != exact.NaN || d.PosInf != exact.PosInf || d.NegInf != exact.NegInf {
				t.Fatalf("counts %+v, want %+v", d, exact)
			}
			if exact.Finite > 0 && (d.Min != exact.Min || d.Max != exact.Max) {
				t.Fatalf("extrema [%v,%v], want [%v,%v]", d.Min, d.Max, exact.Min, exact.Max)
			}
			if exact.Finite == 0 {
				return
			}
			if diff := math.Abs(d.Mean - exact.Mean); diff > d.MeanBound+1e-9 {
				t.Fatalf("mean %v vs exact %v exceeds bound %v", d.Mean, exact.Mean, d.MeanBound)
			}
			if name == "constant" {
				if d.MeanBound != 0 || d.Mean != exact.Mean {
					t.Fatalf("constant column: mean %v bound %v, want exact", d.Mean, d.MeanBound)
				}
			}
			// Median: the returned value's true rank fraction must sit
			// within the rank bound of 0.5 (skip degenerate columns where
			// rank is ill-defined).
			if d.Min != d.Max {
				var less, lessEq float64
				for _, v := range vals {
					if v != v || math.IsInf(float64(v), 0) {
						continue
					}
					if v < d.P50 {
						less++
					}
					if v <= d.P50 {
						lessEq++
					}
				}
				n := float64(exact.Finite)
				slack := d.P50RankBound + 2/n
				if less/n-0.5 > slack || 0.5-lessEq/n > slack {
					t.Fatalf("median %v rank in [%v,%v], bound %v", d.P50, less/n, lessEq/n, d.P50RankBound)
				}
			}
		})
	}
}

// TestColDistTightBoundFallsBack asks for a tighter bound than a 512-row
// sample can deliver: the engine must transparently answer exactly.
func TestColDistTightBoundFallsBack(t *testing.T) {
	_, dists := approxDists()
	vals := dists["uniform"]
	s := openSys(t, Config{Store: colstore.Config{RowBlockRows: 256}})
	s.sampleCap = 512
	ingestValues(t, s, "live", "d", "v", vals)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	d, err := s.ColDist("live", "d", "v", 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if d.Strategy == cost.Sample {
		t.Fatalf("1e-9 error bound answered from a %d-row sample", d.SampleRows)
	}
	if d.MeanBound != 0 {
		t.Fatalf("exact answer carries bound %v", d.MeanBound)
	}
	var exact ColDist
	exactColDist(&exact, vals)
	if d.Mean != exact.Mean || d.P50 != exact.P50 || d.Std != exact.Std {
		t.Fatalf("exact fallback %+v, want %+v", d, exact)
	}
	if got := s.Metrics().Counters["mistique_sample_fallbacks_total"]; got < 1 {
		t.Fatalf("fallback counter = %v", got)
	}
}

func TestApproxTopKDifferential(t *testing.T) {
	_, dists := approxDists()
	vals := dists["uniform"]
	s := openSys(t, Config{Store: colstore.Config{RowBlockRows: 256}})
	s.sampleCap = 512
	ingestValues(t, s, "live", "d", "v", vals)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	const k = 20
	a, err := s.ApproxTopKCtx(context.Background(), "live", "d", "v", k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy != cost.Sample {
		t.Fatalf("strategy %v, want SAMPLE", a.Strategy)
	}
	if len(a.Entries) != k || a.RankBound <= 0 {
		t.Fatalf("entries %d bound %v", len(a.Entries), a.RankBound)
	}
	n := float64(len(vals))
	kSample := float64(a.SampleRows)
	for i, e := range a.Entries {
		if got := vals[e.Row]; got != e.Value {
			t.Fatalf("entry %d: row %d carries %v, population has %v", i, e.Row, e.Value, got)
		}
		var greater float64
		for _, v := range vals {
			if v > e.Value {
				greater++
			}
		}
		// The entry's true rank fraction must track its sample rank
		// fraction within the bound (plus one discrete rank of slack).
		if diff := math.Abs(greater/n - float64(i)/kSample); diff > a.RankBound+1/kSample {
			t.Fatalf("entry %d: true rank %v vs sample rank %v exceeds bound %v", i, greater/n, float64(i)/kSample, a.RankBound)
		}
	}

	// A tight bound forces the exact top-k.
	b, err := s.ApproxTopKCtx(context.Background(), "live", "d", "v", k, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if b.Strategy == cost.Sample {
		t.Fatal("tight bound answered from the sample")
	}
	type rv struct {
		row int64
		val float32
	}
	want := make([]rv, 0, len(vals))
	for i, v := range vals {
		want = append(want, rv{int64(i), v})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].val != want[j].val {
			return want[i].val > want[j].val
		}
		return want[i].row < want[j].row
	})
	if len(b.Entries) != k || b.RankBound != 0 {
		t.Fatalf("exact top-k: %d entries bound %v", len(b.Entries), b.RankBound)
	}
	for i, e := range b.Entries {
		if e.Row != want[i].row || e.Value != want[i].val {
			t.Fatalf("exact entry %d = %+v, want %+v", i, e, want[i])
		}
	}
}

func TestConfusionMatrixDifferential(t *testing.T) {
	const n = 6000
	labels := make([]float32, n)
	preds := make([]float32, n)
	exact := map[[2]float32]float64{}
	for i := 0; i < n; i++ {
		l := float32(i % 5)
		p := l
		if i%10 == 0 {
			p = float32((i + 1) % 5)
		}
		labels[i], preds[i] = l, p
		exact[[2]float32{l, p}]++
	}
	ingest := func(s *System) {
		t.Helper()
		rows := make([][]float32, n)
		for i := range rows {
			rows[i] = []float32{labels[i], preds[i]}
		}
		for off := 0; off < n; off += 500 {
			if _, err := s.IngestRows("live", "d", []string{"label", "pred"}, rows[off:off+500]); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(cm *ConfusionMatrix) {
		t.Helper()
		if cm.Strategy != cost.Sample {
			t.Fatalf("strategy %v, want SAMPLE", cm.Strategy)
		}
		if cm.Rows != n {
			t.Fatalf("rows %d, want %d", cm.Rows, n)
		}
		var total float64
		for _, c := range cm.Cells {
			want := exact[[2]float32{c.Label, c.Pred}]
			if diff := math.Abs(c.Count - want); diff > c.Bound+1e-6 {
				t.Fatalf("cell (%v,%v): count %v vs exact %v exceeds bound %v", c.Label, c.Pred, c.Count, want, c.Bound)
			}
			total += c.Count
		}
		if math.Abs(total-n) > float64(n) {
			t.Fatalf("cell mass %v nowhere near %d", total, n)
		}
	}

	s := openSys(t, Config{Store: colstore.Config{RowBlockRows: 256}})
	s.sampleCap = 256
	ingest(s)
	cm, err := confusion(s, "live", "d", "label", "pred", 0)
	if err != nil {
		t.Fatal(err)
	}
	check(cm)

	// A bound tighter than deliverable forces the exact count.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	cm3, err := confusion(s, "live", "d", "label", "pred", 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if cm3.Strategy == cost.Sample {
		t.Fatal("1e-12 bound answered from the sample")
	}
	if cm3.MaxBound != 0 {
		t.Fatalf("exact confusion carries bound %v", cm3.MaxBound)
	}
	for _, c := range cm3.Cells {
		if want := exact[[2]float32{c.Label, c.Pred}]; c.Count != want || c.Bound != 0 {
			t.Fatalf("exact cell (%v,%v) = %v±%v, want %v", c.Label, c.Pred, c.Count, c.Bound, want)
		}
	}
}

// TestGetIntermediateApproxRowsAreReal verifies every sampled row carries
// its true population values under its true row id.
func TestGetIntermediateApproxRowsAreReal(t *testing.T) {
	s := openSys(t, Config{Store: colstore.Config{RowBlockRows: 128}})
	s.sampleCap = 200
	cols := []string{"a", "b"}
	ingestStream(t, s, "live", "acts", cols, 0, 3000, 250)

	res, err := s.Execute(context.Background(), Query{Op: OpSampleRows, Model: "live", Intermediate: "acts", To: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != cost.Sample {
		t.Fatalf("strategy %v, want SAMPLE", res.Strategy)
	}
	if res.Population != 3000 || len(res.RowIDs) != 100 || res.Data.Rows != 100 {
		t.Fatalf("rows=%d ids=%d data=%d", res.Population, len(res.RowIDs), res.Data.Rows)
	}
	for i, id := range res.RowIDs {
		if i > 0 && id <= res.RowIDs[i-1] {
			t.Fatalf("row ids not strictly ascending at %d: %v", i, res.RowIDs[i-1:i+1])
		}
		for j := range cols {
			if got, want := res.Data.At(i, j), streamVal(id, j); got != want {
				t.Fatalf("sampled row %d col %d = %v, want %v", id, j, got, want)
			}
		}
	}
}

// TestApproxOnLoggedModel covers the non-streaming ingest path: samples
// built by LogPipeline's storeMatrix, persisted, and reloaded on reopen.
func TestApproxOnLoggedModel(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.sampleCap = 256
	logDemo(t, s)
	if got := s.Metrics().Counters["mistique_sample_builds_total"]; got < 1 {
		t.Fatalf("sample builds = %v", got)
	}

	exactVals, err := readColumn(s, "demo", "model", "pred", 0)
	if err != nil {
		t.Fatal(err)
	}
	var exact ColDist
	exactColDist(&exact, exactVals)

	d, err := s.ColDist("demo", "model", "pred", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Strategy != cost.Sample {
		t.Fatalf("strategy %v, want SAMPLE", d.Strategy)
	}
	if d.Rows != int64(len(exactVals)) || d.Finite != exact.Finite {
		t.Fatalf("sampled dist %+v vs exact %+v", d, exact)
	}
	if d.Min != exact.Min || d.Max != exact.Max {
		t.Fatalf("extrema [%v,%v], want [%v,%v]", d.Min, d.Max, exact.Min, exact.Max)
	}
	if diff := math.Abs(d.Mean - exact.Mean); diff > d.MeanBound+1e-9 {
		t.Fatalf("mean %v vs exact %v exceeds bound %v", d.Mean, exact.Mean, d.MeanBound)
	}

	// The sample survives a reopen via its published .mqsm file.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s2.ColDist("demo", "model", "pred", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Strategy != cost.Sample {
		t.Fatalf("reopened strategy %v, want SAMPLE", d2.Strategy)
	}
	if d2.Mean != d.Mean || d2.SampleRows != d.SampleRows {
		t.Fatalf("reopened sample drifted: %+v vs %+v", d2, d)
	}
}

// TestStaleSampleAfterQuarantinePlansExact: a stream's .mqsm is corrupt
// after the stream was fully drained, so the reopened sampler restarts
// empty while the catalog holds every row. That sample describes none of
// them: ColDist and ApproxTopK must plan the exact READ and answer it.
func TestStaleSampleAfterQuarantinePlansExact(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Store: colstore.Config{RowBlockRows: 64}}
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 1000
	ingestStream(t, s, "live", "acts", []string{"v"}, 0, rows, 100)
	if err := s.Close(); err != nil { // drains the stream, publishes the sample
		t.Fatal(err)
	}
	mqsm, err := filepath.Glob(filepath.Join(dir, "data", "sample", "*.mqsm"))
	if err != nil || len(mqsm) != 1 {
		t.Fatalf("sample files %v, %v", mqsm, err)
	}
	fi, err := os.Stat(mqsm[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(mqsm[0], fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for r := int64(0); r < rows; r++ {
		sum += float64(streamVal(r, 0))
	}
	d, err := s2.ColDist("live", "acts", "v", 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Strategy != cost.Read || d.Rows != rows || d.Min != 0 || d.Max != 976 || d.Mean != sum/rows {
		t.Fatalf("ColDist = strategy %v rows %d [%v, %v] mean %v; want READ %d [0, 976] mean %v",
			d.Strategy, d.Rows, d.Min, d.Max, d.Mean, rows, sum/rows)
	}
	top, err := s2.ApproxTopKCtx(context.Background(), "live", "acts", "v", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if top.Strategy != cost.Read || len(top.Entries) != 3 {
		t.Fatalf("ApproxTopK = strategy %v, %d entries; want READ, 3", top.Strategy, len(top.Entries))
	}
	for i, e := range top.Entries {
		if want := int64(976 - i); e.Row != want || e.Value != float32(want) {
			t.Fatalf("entry %d = %+v, want row %d value %d", i, e, want, want)
		}
	}
}
