package mistique_test

// Cross-version storage benchmarks: what a delta-linked checkpoint costs
// to ingest, and what reading back through a maximum-depth delta chain
// costs cold. Both ride the same simulated fine-tune as the differential
// oracle (internal/cas/oracletest), so the numbers describe exactly the
// workload the tests prove bit-exact.

import (
	"runtime"
	"testing"

	"mistique"
	"mistique/internal/cas/oracletest"
	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/data"
)

// BenchmarkVersionedIngest measures logging one fine-tuning checkpoint as
// a delta generation: exact dedup for the unchanged columns, delta
// encoding for the drifted ones, and a compressed weight-snapshot
// residual into the content-addressed store.
func BenchmarkVersionedIngest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sc := oracletest.NewScenario(3, 64)
		s, err := mistique.Open(b.TempDir(), mistique.Config{Store: colstore.Config{RowBlockRows: 64}})
		if err != nil {
			b.Fatal(err)
		}
		sc.Advance(0)
		if _, err := oracletest.LogEpoch(s, sc.Snapshot(), sc.Input, "cnn", 0,
			mistique.SchemeFull, true, oracletest.FCLayers); err != nil {
			b.Fatal(err)
		}
		sc.Advance(1)
		net := sc.Snapshot()
		b.StartTimer()
		if _, err := oracletest.LogEpoch(s, net, sc.Input, "cnn", 1,
			mistique.SchemeFull, true, oracletest.FCLayers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaChainRead measures a cold READ of the deepest version of
// a delta chain: every generation down to the full root pages in, the
// residuals XOR back together, and the result must still beat re-running
// the model (the cost model charges depth+1 reads for exactly this).
func BenchmarkDeltaChainRead(b *testing.B) {
	sc := oracletest.NewScenario(5, 64)
	s, err := mistique.Open(b.TempDir(), mistique.Config{Store: colstore.Config{RowBlockRows: 64}})
	if err != nil {
		b.Fatal(err)
	}
	const epochs = 5 // chain depth 4, the default DeltaMaxDepth
	if _, err := sc.RunEpochs(epochs, mistique.SchemeFull, oracletest.FCLayers,
		oracletest.Target{Sys: s, Prefix: "cnn", Linked: true}); err != nil {
		b.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	last := oracletest.VersionName("cnn", epochs-1)
	if d := s.Store().MaxDeltaDepth(last, "fc1"); d == 0 {
		b.Fatalf("expected %s/fc1 on a delta chain", last)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := s.Store().DropCache(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Fetch(last, "fc1", nil, 0, cost.Read); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReopenLiveHeap reports the live heap of a reopened lib-cold-
// shaped store: two Parent-linked checkpoints of the SimpleCNN, every
// layer logged LP_QT over 128 images (about 106 000 column keys). The
// column index is most of what a reopened System keeps resident.
func BenchmarkReopenLiveHeap(b *testing.B) {
	dir := b.TempDir()
	cfg := mistique.Config{Store: colstore.Config{MemBudgetBytes: 1 << 20, PartitionTargetBytes: 256 << 10, DisableApproxDedup: true}}
	logLibCold(b, dir, cfg)
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := mistique.Open(dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(s)
	}
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live-MiB")
}

func logLibCold(b *testing.B, dir string, cfg mistique.Config) {
	s, err := mistique.Open(dir, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sc := oracletest.NewScenario(7, 128)
	sc.Input, _ = data.Images(128, 4, 1)
	if _, err := sc.RunEpochs(2, mistique.SchemeLP, nil, oracletest.Target{Sys: s, Prefix: "cnn", Linked: true}); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}
