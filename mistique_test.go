package mistique

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/data"
	"mistique/internal/nn"
	"mistique/internal/pipeline"
	"mistique/internal/quant"
	"mistique/internal/zillow"
)

const demoSpec = `
name: demo
stages:
  - name: props
    op: read_table
    params: {table: properties}
  - name: sales
    op: read_table
    params: {table: train}
  - name: joined
    op: join
    inputs: [sales, props]
    params: {on: parcelid}
  - name: filled
    op: fillna
    inputs: [joined]
  - name: splits
    op: split
    inputs: [filled]
    params: {frac: 0.8, seed: 1}
    outputs: [train_split, eval_split]
  - name: model
    op: train_xgb
    inputs: [train_split]
    params: {target: logerror, rounds: 4, max_depth: 3}
`

func openSys(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func logDemo(t *testing.T, s *System) {
	t.Helper()
	spec, err := pipeline.SpecFromYAML(demoSpec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	env := zillow.Env(200, 600, 1)
	rep, err := s.LogPipeline(p, env)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Intermediates != 7 {
		t.Fatalf("report %+v", rep)
	}
}

func TestLogPipelineAndRead(t *testing.T) {
	s := openSys(t, Config{})
	logDemo(t, s)

	m := s.Metadata().Model("demo")
	if m == nil || len(m.Stages) != 6 {
		t.Fatalf("model metadata %+v", m)
	}
	it := s.Metadata().Intermediate("demo", "joined")
	if it == nil || !it.Materialized || it.Rows != 600 {
		t.Fatalf("intermediate %+v", it)
	}

	res, err := s.GetIntermediate("demo", "joined", []string{"logerror", "finishedsquarefeet"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data.Rows != 600 || res.Data.Cols != 2 {
		t.Fatalf("result shape %dx%d", res.Data.Rows, res.Data.Cols)
	}
	// Reading must agree with re-running the pipeline.
	rr, err := s.GetIntermediate("demo", "joined", []string{"logerror", "finishedsquarefeet"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Data.Data {
		if res.Data.Data[i] != rr.Data.Data[i] {
			t.Fatalf("read/reread mismatch at %d", i)
		}
	}
	// Partial fetch.
	part, err := s.GetIntermediate("demo", "joined", nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if part.Data.Rows != 100 {
		t.Fatalf("partial rows %d", part.Data.Rows)
	}
	if n, _ := s.Metadata().Intermediate("demo", "joined").QueryCount, 0; n != 3 {
		t.Fatalf("query count %d", n)
	}
}

func TestReadMatchesRerun(t *testing.T) {
	s := openSys(t, Config{})
	logDemo(t, s)
	read, err := s.GetIntermediate("demo", "model", []string{"pred"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if read.Strategy != cost.Read {
		t.Fatalf("expected READ for TRAD, got %v", read.Strategy)
	}
	// Force a re-run through the internal path and compare.
	m := s.Metadata().Model("demo")
	it := s.Metadata().Intermediate("demo", "model")
	rerun, err := s.rerunMatrix(context.Background(), m, it, []string{"pred"}, it.Rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range read.Data.Data {
		if read.Data.Data[i] != rerun.Data[i] {
			t.Fatalf("read vs rerun differ at %d: %v vs %v", i, read.Data.Data[i], rerun.Data[i])
		}
	}
}

func TestDedupAcrossPipelines(t *testing.T) {
	s := openSys(t, Config{Store: colstore.Config{Mode: colstore.ModeSimilarity}})
	logDemo(t, s)
	// Log a second pipeline with identical prefix but different model
	// hyperparameters: early intermediates dedup.
	spec, err := pipeline.SpecFromYAML(demoSpec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "demo2"
	spec.Stages[5].Params["rounds"] = 6
	p, err := pipeline.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.LogPipeline(p, zillow.Env(200, 600, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColumnsDedup == 0 {
		t.Fatalf("no dedup across identical prefixes: %+v", rep)
	}
	if rep.StoredBytes >= rep.LogicalBytes/2 {
		t.Fatalf("dedup saved too little: stored %d of %d", rep.StoredBytes, rep.LogicalBytes)
	}
}

func TestErrors(t *testing.T) {
	s := openSys(t, Config{})
	logDemo(t, s)
	if _, err := s.GetIntermediate("ghost", "x", nil, 0); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := s.GetIntermediate("demo", "ghost", nil, 0); err == nil {
		t.Fatal("unknown intermediate accepted")
	}
	if _, err := s.GetIntermediate("demo", "joined", []string{"nope"}, 0); err == nil {
		t.Fatal("unknown column accepted")
	}
	spec, _ := pipeline.SpecFromYAML(demoSpec)
	p, _ := pipeline.New(spec)
	if _, err := s.LogPipeline(p, zillow.Env(50, 100, 1)); err == nil {
		t.Fatal("duplicate pipeline name accepted")
	}
}

// dnnSetupConfig is the configuration dnnSetup opens its System with.
var dnnSetupConfig = Config{RowBlockRows: 64, Store: colstore.Config{Mode: colstore.ModeArrival}}

func dnnSetup(t *testing.T, scheme Scheme, n int) (*System, *nn.Network) {
	t.Helper()
	return dnnSetupIn(t, t.TempDir(), scheme, n)
}

// dnnSetupIn is dnnSetup over a caller-chosen directory.
func dnnSetupIn(t *testing.T, dir string, scheme Scheme, n int) (*System, *nn.Network) {
	t.Helper()
	s, err := Open(dir, dnnSetupConfig)
	if err != nil {
		t.Fatal(err)
	}
	net := nn.SimpleCNN("cnn", 4, 1)
	imgs, _ := data.Images(n, 4, 2)
	if _, err := s.LogDNN("cnn@e0", net, imgs, DNNLogOptions{Scheme: scheme}); err != nil {
		t.Fatal(err)
	}
	return s, net
}

func TestLogDNNFullReadBack(t *testing.T) {
	s, net := dnnSetup(t, SchemeFull, 96)
	imgs, _ := data.Images(96, 4, 2)
	want := net.Forward(imgs, net.NumLayers()-1)
	res, err := s.GetIntermediate("cnn@e0", "logits", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data.Rows != 96 || res.Data.Cols != 4 {
		t.Fatalf("logits shape %dx%d", res.Data.Rows, res.Data.Cols)
	}
	for i := range want.Data {
		if res.Data.Data[i] != want.Data[i] {
			t.Fatalf("stored logits differ at %d", i)
		}
	}
}

func TestLogDNNPool2Shrinks(t *testing.T) {
	s, _ := dnnSetup(t, SchemePool2, 96)
	full := s.Metadata().Intermediate("cnn@e0", "conv1_1")
	// conv1_1 output is 8x32x32 = 8192 raw units; pool(2) keeps 8x16x16.
	if got := len(full.Columns); got != 8*16*16 {
		t.Fatalf("pooled column count %d", got)
	}
	// Reads agree with re-running + pooling.
	read, err := s.GetIntermediate("cnn@e0", "conv1_1", []string{"u0", "u100"}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if read.Data.Rows != 32 {
		t.Fatalf("rows %d", read.Data.Rows)
	}
	m := s.Metadata().Model("cnn@e0")
	it := s.Metadata().Intermediate("cnn@e0", "conv1_1")
	rerun, err := s.rerunMatrix(context.Background(), m, it, []string{"u0", "u100"}, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range read.Data.Data {
		if math.Abs(float64(read.Data.Data[i]-rerun.Data[i])) > 1e-6 {
			t.Fatalf("pooled read/rerun differ at %d", i)
		}
	}
}

func TestLogDNN8BitApproximates(t *testing.T) {
	s, net := dnnSetup(t, Scheme8Bit, 96)
	imgs, _ := data.Images(96, 4, 2)
	raw := net.Forward(imgs, 0) // conv1_1
	res, err := s.GetIntermediate("cnn@e0", "conv1_1", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != cost.Read {
		t.Fatalf("expected READ, got %v", res.Strategy)
	}
	flat := raw.Flatten()
	var sumErr, sumAbs float64
	for i := range flat.Data {
		sumErr += math.Abs(float64(res.Data.Data[i] - flat.Data[i]))
		sumAbs += math.Abs(float64(flat.Data[i]))
	}
	if rel := sumErr / sumAbs; rel > 0.05 {
		t.Fatalf("8-bit relative error %g too large", rel)
	}
	// Storage accounting: ~1 byte per value plus tables.
	it := s.Metadata().Intermediate("cnn@e0", "conv1_1")
	rawBytes := int64(len(it.Columns) * it.Rows)
	if it.StoredBytes < rawBytes/2 || it.StoredBytes > rawBytes*2 {
		t.Fatalf("8-bit stored %d bytes for %d values", it.StoredBytes, rawBytes)
	}
}

func TestDNNLayerSubset(t *testing.T) {
	s := openSys(t, Config{RowBlockRows: 64})
	net := nn.SimpleCNN("cnn", 4, 3)
	imgs, _ := data.Images(64, 4, 4)
	if _, err := s.LogDNN("cnn", net, imgs, DNNLogOptions{Scheme: SchemeFull, Layers: []int{0, 13}}); err != nil {
		t.Fatal(err)
	}
	if s.Metadata().Intermediate("cnn", "conv1_1") == nil {
		t.Fatal("requested layer missing")
	}
	if s.Metadata().Intermediate("cnn", "conv1_2") != nil {
		t.Fatal("unrequested layer logged")
	}
	if _, err := s.LogDNN("cnn2", net, imgs, DNNLogOptions{Layers: []int{99}}); err == nil {
		t.Fatal("bad layer index accepted")
	}
}

func TestDNNDedupAcrossEpochsFrozenLayers(t *testing.T) {
	s := openSys(t, Config{RowBlockRows: 64, Store: colstore.Config{Mode: colstore.ModeArrival}})
	imgs, labels := data.Images(64, 2, 5)
	net := nn.VGG16("vgg", 2, 1, 6)
	net.FreezeConv()
	// Epoch 0.
	rep0, err := s.LogDNN("vgg@e0", net, imgs, DNNLogOptions{Scheme: SchemePool2})
	if err != nil {
		t.Fatal(err)
	}
	// Train only the FC head, then log epoch 1.
	net.TrainEpochs(imgs, labels, 1, 16, 0.05, nil)
	rep1, err := s.LogDNN("vgg@e1", net, imgs, DNNLogOptions{Scheme: SchemePool2})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.ColumnsDedup == 0 {
		t.Fatal("frozen conv intermediates did not dedup across epochs")
	}
	if rep1.StoredBytes >= rep0.StoredBytes/2 {
		t.Fatalf("epoch-1 stored %d vs epoch-0 %d: dedup ineffective", rep1.StoredBytes, rep0.StoredBytes)
	}
}

func TestAdaptiveMaterialization(t *testing.T) {
	// With a generous cost model, any queried intermediate crosses gamma
	// after a couple of queries.
	s := openSys(t, Config{
		Gamma: 1e-9,
		Cost:  cost.Params{ReadBytesPerSec: 1e12, InputBytesPerSec: 1e12},
	})
	logDemo(t, s)
	it := s.Metadata().Intermediate("demo", "joined")
	if it.Materialized {
		t.Fatal("adaptive mode materialized at logging time")
	}
	res1, err := s.GetIntermediate("demo", "joined", []string{"logerror"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Strategy != cost.Rerun {
		t.Fatalf("first query should re-run, got %v", res1.Strategy)
	}
	if !res1.MaterializedNow {
		t.Fatal("gamma crossing did not materialize")
	}
	res2, err := s.GetIntermediate("demo", "joined", []string{"logerror"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Strategy != cost.Read {
		t.Fatalf("post-materialization query should read, got %v", res2.Strategy)
	}
	for i := range res1.Data.Data {
		if res1.Data.Data[i] != res2.Data.Data[i] {
			t.Fatalf("materialized data differs at %d", i)
		}
	}
}

func TestAdaptiveHighGammaNeverMaterializes(t *testing.T) {
	s := openSys(t, Config{Gamma: 1e12})
	logDemo(t, s)
	for i := 0; i < 3; i++ {
		res, err := s.GetIntermediate("demo", "filled", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != cost.Rerun || res.MaterializedNow {
			t.Fatalf("query %d: %v materialized=%v", i, res.Strategy, res.MaterializedNow)
		}
	}
	if st := s.Store().Stats(); st.ChunksStored != 0 {
		t.Fatalf("adaptive high-gamma stored %d chunks", st.ChunksStored)
	}
}

func TestFlushPersistsCatalog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "metadata.json")); err != nil {
		t.Fatalf("catalog not persisted: %v", err)
	}
	n, err := s.DiskBytes()
	if err != nil || n == 0 {
		t.Fatalf("disk bytes %d %v", n, err)
	}
}

func TestRerunRawDNN(t *testing.T) {
	s, net := dnnSetup(t, SchemePool2, 64)
	imgs, _ := data.Images(64, 4, 2)
	want := net.Forward(imgs.SliceN(0, 32), 0)
	got, err := s.RerunRawDNN("cnn@e0", "conv1_1", 32)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 32 || got.H != 32 {
		t.Fatalf("raw shape %d %d", got.N, got.H)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("raw rerun differs at %d", i)
		}
	}
	if _, err := s.RerunRawDNN("cnn@e0", "nope", 1); err == nil {
		t.Fatal("unknown layer accepted")
	}
	if _, err := s.RerunRawDNN("nope", "conv1_1", 1); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestThresholdSchemeBinarizes(t *testing.T) {
	s, _ := dnnSetup(t, SchemeThreshold, 64)
	res, err := s.GetIntermediate("cnn@e0", "conv1_1", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, v := range res.Data.Data {
		switch v {
		case 0:
		case 1:
			ones++
		default:
			t.Fatalf("threshold value %v not binary", v)
		}
	}
	total := len(res.Data.Data)
	if ones == 0 || ones > total/50 {
		t.Fatalf("threshold ones %d of %d implausible for alpha=0.005", ones, total)
	}
}

func TestReopenServesMaterializedReads(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s)
	want, err := s.GetIntermediate("demo", "model", []string{"pred"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// A fresh process over the same directory can read without re-logging.
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	it := s2.Metadata().Intermediate("demo", "model")
	if it == nil || !it.Materialized {
		t.Fatalf("catalog not restored: %+v", it)
	}
	got, err := s2.Fetch("demo", "model", []string{"pred"}, 0, cost.Read)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data.Data {
		if got.Data.Data[i] != want.Data.Data[i] {
			t.Fatalf("reopened read differs at %d", i)
		}
	}
	// RERUN is unavailable until the pipeline is re-logged.
	if _, err := s2.Fetch("demo", "model", []string{"pred"}, 0, cost.Rerun); err == nil {
		t.Fatal("rerun without resident pipeline should fail")
	}
}

func TestFilterRowsAndGetRows(t *testing.T) {
	s := openSys(t, Config{RowBlockRows: 64})
	logDemo(t, s)

	// Predicate scan over the stored yearbuilt column.
	rows, err := s.FilterRows("demo", "joined", "yearbuilt", colstore.Ge, 2015)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.GetIntermediate("demo", "joined", []string{"yearbuilt"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range full.Data.Col(0) {
		if v >= 2015 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("FilterRows found %d, want %d", len(rows), want)
	}
	for _, r := range rows {
		if full.Data.At(r, 0) < 2015 {
			t.Fatalf("row %d value %v below bound", r, full.Data.At(r, 0))
		}
	}

	// Primary-index range read agrees with a full read.
	rng, err := s.GetRows("demo", "joined", []string{"yearbuilt", "logerror"}, 100, 160)
	if err != nil {
		t.Fatal(err)
	}
	if rng.Rows != 60 || rng.Cols != 2 {
		t.Fatalf("range shape %dx%d", rng.Rows, rng.Cols)
	}
	for i := 0; i < 60; i++ {
		if rng.At(i, 0) != full.Data.At(100+i, 0) {
			t.Fatalf("range row %d mismatch", i)
		}
	}
	// Clamp and errors.
	if _, err := s.GetRows("demo", "joined", nil, -1, 10); err == nil {
		t.Fatal("negative from accepted")
	}
	if _, err := s.GetRows("demo", "ghost", nil, 0, 10); err == nil {
		t.Fatal("unknown intermediate accepted")
	}
	if _, err := s.FilterRows("demo", "ghost", "x", colstore.Gt, 0); err == nil {
		t.Fatal("unknown intermediate accepted")
	}
}

func TestFilterRowsRequiresMaterialization(t *testing.T) {
	s := openSys(t, Config{Gamma: 1e12}) // adaptive: nothing stored
	logDemo(t, s)
	if _, err := s.FilterRows("demo", "joined", "yearbuilt", colstore.Gt, 0); err == nil {
		t.Fatal("scan on unmaterialized intermediate accepted")
	}
}

func TestLogRNNIntermediates(t *testing.T) {
	s := openSys(t, Config{RowBlockRows: 64, Store: colstore.Config{Mode: colstore.ModeArrival}})
	seqs, _ := data.Sequences(64, 6, 2, 3, 1)
	net := nn.ElmanRNN("rnn", 6, 2, 8, 3, 2)
	rep, err := s.LogDNN("rnn", net, seqs, DNNLogOptions{Scheme: SchemeFull})
	if err != nil {
		t.Fatal(err)
	}
	// PadHidden + 6 steps + TakeHidden + Dense = 9 intermediates.
	if rep.Intermediates != 9 {
		t.Fatalf("intermediates %d", rep.Intermediates)
	}
	// The sequence region passes through every step unchanged, so those
	// columns dedup across step layers.
	if rep.ColumnsDedup == 0 {
		t.Fatal("pass-through sequence columns did not dedup across steps")
	}
	// Query the hidden state after step 3 (columns 12..19 are the tail).
	res, err := s.GetIntermediate("rnn", "step3", []string{"u12", "u13"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data.Rows != 64 || res.Data.Cols != 2 {
		t.Fatalf("rnn hidden query shape %dx%d", res.Data.Rows, res.Data.Cols)
	}
	// Stored values match a fresh forward pass.
	want := net.Forward(seqs, 4) // layer 4 = step3 (after PadHidden)
	for i := 0; i < 64; i++ {
		if res.Data.At(i, 0) != want.At(i, 12, 0, 0) {
			t.Fatalf("rnn stored hidden differs at row %d", i)
		}
	}
}

func TestDropModelAndCompact(t *testing.T) {
	s := openSys(t, Config{})
	logDemo(t, s)
	// A second identical pipeline shares almost all chunks.
	spec, _ := pipeline.SpecFromYAML(demoSpec)
	spec.Name = "demo2"
	p, _ := pipeline.New(spec)
	if _, err := s.LogPipeline(p, zillow.Env(200, 600, 1)); err != nil {
		t.Fatal(err)
	}

	if err := s.DropModel("demo2"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropModel("demo2"); err == nil {
		t.Fatal("double drop accepted")
	}
	if s.Metadata().Model("demo2") != nil {
		t.Fatal("catalog kept dropped model")
	}
	if _, err := s.GetIntermediate("demo2", "joined", nil, 0); err == nil {
		t.Fatal("query on dropped model accepted")
	}
	// demo still fully readable.
	if _, err := s.GetIntermediate("demo", "model", nil, 0); err != nil {
		t.Fatal(err)
	}
	// demo2 was nearly all dedup'd into demo's chunks, so compaction
	// reclaims little-to-nothing — but must not break demo.
	if _, err := s.CompactStore(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetIntermediate("demo", "joined", nil, 0); err != nil {
		t.Fatalf("demo unreadable after compact: %v", err)
	}

	// Dropping demo frees real bytes.
	if err := s.DropModel("demo"); err != nil {
		t.Fatal(err)
	}
	reclaimed, err := s.CompactStore()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed == 0 {
		t.Fatal("dropping the last model reclaimed nothing")
	}
}

func TestReattachAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logDemo(t, s)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	storedBefore := s.Store().Stats().ChunksStored

	// New process: reopen and re-log the same pipeline. All chunks dedup
	// against the flushed data, and both READ and RERUN work again.
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := pipeline.SpecFromYAML(demoSpec)
	p, _ := pipeline.New(spec)
	rep, err := s2.LogPipeline(p, zillow.Env(200, 600, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColumnsStored != 0 {
		t.Fatalf("re-attach stored %d new chunks, want 0 (all dedup)", rep.ColumnsStored)
	}
	_ = storedBefore
	read, err := s2.Fetch("demo", "model", []string{"pred"}, 0, cost.Read)
	if err != nil {
		t.Fatal(err)
	}
	rerun, err := s2.Fetch("demo", "model", []string{"pred"}, 0, cost.Rerun)
	if err != nil {
		t.Fatal(err)
	}
	for i := range read.Data.Data {
		if read.Data.Data[i] != rerun.Data.Data[i] {
			t.Fatalf("re-attached read/rerun differ at %d", i)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	s := openSys(t, Config{})
	logDemo(t, s)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			interms := []string{"joined", "filled", "model"}
			for i := 0; i < 4; i++ {
				name := interms[(g+i)%len(interms)]
				if _, err := s.GetIntermediate("demo", name, nil, 50+g*10); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := s.Metadata().Intermediate("demo", "joined").QueryCount; n == 0 {
		t.Fatal("no queries recorded")
	}
}

func TestCalibrate(t *testing.T) {
	s := openSys(t, Config{})
	logDemo(t, s)
	rate, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Fatalf("calibrated rate %g", rate)
	}
	if got := s.CostParams().ReadBytesPerSec; got != rate {
		t.Fatalf("cost params not updated: %g vs %g", got, rate)
	}
	// An empty system has nothing to calibrate against.
	empty := openSys(t, Config{})
	if _, err := empty.Calibrate(); err == nil {
		t.Fatal("empty calibrate succeeded")
	}
}

func TestFilterRowsOnQuantizedDNN(t *testing.T) {
	s, _ := dnnSetup(t, Scheme8Bit, 96)
	rows, err := s.FilterRows("cnn@e0", "conv1_1", "u0", colstore.Gt, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against a read of the reconstructed column.
	res, err := s.Fetch("cnn@e0", "conv1_1", []string{"u0"}, 0, cost.Read)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range res.Data.Col(0) {
		if v > 0.5 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("quantized scan found %d, reconstruction has %d", len(rows), want)
	}
}

func TestGetRowsOnPooledDNN(t *testing.T) {
	s, _ := dnnSetup(t, SchemePool2, 96)
	rng, err := s.GetRows("cnn@e0", "conv1_1", []string{"u0", "u1"}, 70, 90)
	if err != nil {
		t.Fatal(err)
	}
	if rng.Rows != 20 || rng.Cols != 2 {
		t.Fatalf("range shape %dx%d", rng.Rows, rng.Cols)
	}
	full, err := s.Fetch("cnn@e0", "conv1_1", []string{"u0", "u1"}, 0, cost.Read)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if rng.At(i, 0) != full.Data.At(70+i, 0) {
			t.Fatalf("range row %d mismatch", i)
		}
	}
	// Clamp beyond the end.
	tail, err := s.GetRows("cnn@e0", "conv1_1", []string{"u0"}, 90, 500)
	if err != nil || tail.Rows != 6 {
		t.Fatalf("clamped tail: %v rows=%d", err, tail.Rows)
	}
}

func TestMaxPoolScheme(t *testing.T) {
	s := openSys(t, Config{RowBlockRows: 64})
	net := nn.SimpleCNN("cnn", 4, 1)
	imgs, _ := data.Images(64, 4, 2)
	if _, err := s.LogDNN("cnn", net, imgs, DNNLogOptions{Scheme: SchemePool2, PoolAgg: quant.Max}); err != nil {
		t.Fatal(err)
	}
	read, err := s.Fetch("cnn", "conv1_1", []string{"u0"}, 8, cost.Read)
	if err != nil {
		t.Fatal(err)
	}
	// Max pooling of the raw activation's top-left 2x2 window.
	raw, err := s.RerunRawDNN("cnn", "conv1_1", 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		want := raw.At(i, 0, 0, 0)
		for _, v := range []float32{raw.At(i, 0, 0, 1), raw.At(i, 0, 1, 0), raw.At(i, 0, 1, 1)} {
			if v > want {
				want = v
			}
		}
		if read.Data.At(i, 0) != want {
			t.Fatalf("max-pool stored %v, want %v at row %d", read.Data.At(i, 0), want, i)
		}
	}
}

// TestConcurrentEngine hammers one System from many goroutines mixing every
// public mutating and reading entry point: DNN logging, intermediate reads,
// flushes, cost-model calibration and model drops. Run under -race it is the
// engine-level half of the concurrency suite; the store-level half lives in
// internal/colstore. Reads of the long-lived base model must stay correct
// throughout; operations racing a concurrent DropModel of a scratch model
// may fail, but only with a clean error.
func TestConcurrentEngine(t *testing.T) {
	s := openSys(t, Config{RowBlockRows: 64, Store: colstore.Config{Mode: colstore.ModeArrival}})
	logDemo(t, s)

	want, err := s.GetIntermediate("demo", "joined", []string{"logerror"}, 0)
	if err != nil {
		t.Fatal(err)
	}

	imgs, _ := data.Images(32, 4, 2)
	const loggers, readers, iters = 2, 2, 3
	var wg sync.WaitGroup

	// Loggers: log a scratch DNN (first conv only, pooled to 8 columns so
	// the forward pass stays cheap under -race), read it back, drop it.
	for g := 0; g < loggers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			net := nn.SimpleCNN(fmt.Sprintf("cnn%d", g), 4, 1)
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("cnn@g%d-i%d", g, i)
				if _, err := s.LogDNN(name, net, imgs, DNNLogOptions{Scheme: SchemePool32, Layers: []int{0}}); err != nil {
					t.Errorf("LogDNN %s: %v", name, err)
					return
				}
				if _, err := s.GetIntermediate(name, "conv1_1", []string{"u0"}, 0); err != nil {
					t.Errorf("read %s: %v", name, err)
					return
				}
				if err := s.DropModel(name); err != nil {
					t.Errorf("drop %s: %v", name, err)
					return
				}
			}
		}(g)
	}

	// Readers: the base pipeline's data is never dropped; every read must
	// succeed and return the same values.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters*2; i++ {
				res, err := s.GetIntermediate("demo", "joined", []string{"logerror"}, 0)
				if err != nil {
					t.Errorf("base read: %v", err)
					return
				}
				for j := range want.Data.Data {
					if res.Data.Data[j] != want.Data.Data[j] {
						t.Errorf("base read changed at %d", j)
						return
					}
				}
			}
		}()
	}

	// Flusher + calibrator: walk every partition while puts and drops race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters*2; i++ {
			if err := s.Flush(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			// Calibrate may lose its probe to a concurrent DropModel; that
			// returns an error, never a crash.
			if _, err := s.Calibrate(); err != nil {
				t.Logf("calibrate (benign under races): %v", err)
			}
		}
	}()

	// Dropper/compactor: reclaim space while everyone else runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := s.CompactStore(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()

	wg.Wait()

	// The store must still be internally consistent and the base model intact.
	rep, err := s.Store().Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) > 0 {
		t.Fatalf("store verify: %v", rep.Problems)
	}
	res, err := s.GetIntermediate("demo", "joined", []string{"logerror"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want.Data.Data {
		if res.Data.Data[j] != want.Data.Data[j] {
			t.Fatalf("base data corrupted at %d", j)
		}
	}
}
