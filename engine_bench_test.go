package mistique

// Engine-level microbenchmarks: the hot paths under each experiment —
// logging a pipeline, reading an intermediate (warm and cold), re-running,
// and the predicate scan FilterRows falls back to.

import (
	"context"
	"testing"

	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/pipeline"
	"mistique/internal/zillow"
)

func benchSystem(b *testing.B) *System {
	b.Helper()
	s, err := Open(b.TempDir(), Config{})
	if err != nil {
		b.Fatal(err)
	}
	spec, err := pipeline.SpecFromYAML(demoSpec)
	if err != nil {
		b.Fatal(err)
	}
	p, err := pipeline.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.LogPipeline(p, zillow.Env(200, 2048, 1)); err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkLogPipeline(b *testing.B) {
	env := zillow.Env(200, 2048, 1)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := Open(b.TempDir(), Config{})
		if err != nil {
			b.Fatal(err)
		}
		spec, _ := pipeline.SpecFromYAML(demoSpec)
		p, _ := pipeline.New(spec)
		b.StartTimer()
		if _, err := s.LogPipeline(p, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadIntermediateWarm(b *testing.B) {
	s := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fetch("demo", "joined", nil, 0, cost.Read); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadIntermediateCold(b *testing.B) {
	s := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := s.Store().DropCache(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Fetch("demo", "joined", nil, 0, cost.Read); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRerunIntermediate(b *testing.B) {
	s := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fetch("demo", "joined", nil, 0, cost.Rerun); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterRowsRangeScan: FilterRows over a row window with the
// index disabled, i.e. the full-scan twin — read [from, to) through the
// primary index and test every value.
func BenchmarkFilterRowsRangeScan(b *testing.B) {
	s := benchSystem(b)
	s.nidx = nil
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Query{Op: OpFilter, Model: "demo", Intermediate: "joined", Columns: []string{"yearbuilt"}, Pred: colstore.Ge, Bound: 2018, From: 512, To: 1536}
		if _, err := s.Execute(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}
