package mistique

// Engine-level microbenchmarks: the hot paths under each experiment —
// logging a pipeline, reading an intermediate (warm and cold), re-running,
// and the predicate scan FilterRows falls back to.

import (
	"context"
	"fmt"
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

// BenchmarkPlanGet costs an OpGet of the demo pipeline on a store that
// also holds one delta chunk among 1 k, 10 k and 100 k column keys: the
// plan charges READ its chain depth, and that must not grow with the store.
func BenchmarkPlanGet(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			s := benchSystem(b)
			st := s.Store()
			base := make([]float32, 1024)
			for i := range base {
				base[i] = float32(i)
			}
			child := append([]float32(nil), base...)
			child[7]++
			parent := colstore.ColumnKey{Model: "v0", Intermediate: "act", Column: "c", Block: 0}
			if _, err := st.PutColumn(parent, base, nil); err != nil {
				b.Fatal(err)
			}
			if r, err := st.PutColumnDelta(colstore.ColumnKey{Model: "v1", Intermediate: "act", Column: "c", Block: 0}, child, nil, parent); err != nil || !r.Delta {
				b.Fatalf("delta put: %+v %v", r, err)
			}
			filler := []float32{1, 2, 3, 4}
			for i := 2; i < n; i++ {
				k := colstore.ColumnKey{Model: "filler", Intermediate: fmt.Sprintf("i%d", i/64), Column: fmt.Sprintf("c%d", i%64)}
				if _, err := st.PutColumn(k, filler, nil); err != nil {
					b.Fatal(err)
				}
			}
			q := Query{Op: OpGet, Model: "demo", Intermediate: "joined", Columns: []string{"logerror"}, To: 40}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Plan(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
