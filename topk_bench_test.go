package mistique

import (
	"sort"
	"testing"

	"mistique/internal/colstore"
	"mistique/internal/pipeline"
	"mistique/internal/zillow"
)

// topkBenchRows sizes the indexed-vs-scan benchmarks: large enough that a
// full column scan is measurably expensive and the priority list spans
// ~100 segments, so the indexed paths' prefix-decode advantage is real.
const topkBenchRows = 100_000

func benchIndexSystem(b *testing.B, disable bool) *System {
	b.Helper()
	s, err := Open(b.TempDir(), Config{})
	if err != nil {
		b.Fatal(err)
	}
	if disable {
		s.nidx = nil
	}
	spec, err := pipeline.SpecFromYAML(demoSpec)
	if err != nil {
		b.Fatal(err)
	}
	p, err := pipeline.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.LogPipeline(p, zillow.Env(200, topkBenchRows, 1)); err != nil {
		b.Fatal(err)
	}
	return s
}

// selectiveBound returns roughly the 99th-percentile logerror value, so
// the filter benchmarks measure a selective predicate (the common
// diagnostic shape: "which examples have extreme error?").
func selectiveBound(b *testing.B, s *System) float32 {
	b.Helper()
	col, err := readColumn(s, "demo", "joined", "logerror", 0)
	if err != nil {
		b.Fatal(err)
	}
	sorted := append([]float32{}, col...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*99/100]
}

// BenchmarkTOPKIndexed: warm-index top-k — decodes only the head of the
// priority list.
func BenchmarkTOPKIndexed(b *testing.B) {
	s := benchIndexSystem(b, false)
	if _, err := s.TopK("demo", "joined", "logerror", 10); err != nil {
		b.Fatal(err) // build outside the timer: this bench is the warm probe
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TopK("demo", "joined", "logerror", 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTOPKScan: the same query with the index disabled — full column
// fetch plus a full ranking, the baseline the index must beat.
func BenchmarkTOPKScan(b *testing.B) {
	s := benchIndexSystem(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TopK("demo", "joined", "logerror", 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTOPKColdBuild: invalidate-then-probe, i.e. column fetch + index
// build + probe. The lazy-build bet is that this stays under two
// full scans, so the build amortizes by the second query.
func BenchmarkTOPKColdBuild(b *testing.B) {
	s := benchIndexSystem(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.nidx.InvalidateModel("demo")
		b.StartTimer()
		if _, err := s.TopK("demo", "joined", "logerror", 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterRowsIndexed: selective predicate through the index —
// only segments overlapping the bound decode.
func BenchmarkFilterRowsIndexed(b *testing.B) {
	s := benchIndexSystem(b, false)
	bound := selectiveBound(b, s)
	if _, err := s.FilterRows("demo", "joined", "logerror", colstore.Ge, bound); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FilterRows("demo", "joined", "logerror", colstore.Ge, bound); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterRowsScanBaseline: the same selective predicate through
// the full-scan twin (index disabled): every row of the column is read and
// tested.
func BenchmarkFilterRowsScanBaseline(b *testing.B) {
	s := benchIndexSystem(b, true)
	bound := selectiveBound(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FilterRows("demo", "joined", "logerror", colstore.Ge, bound); err != nil {
			b.Fatal(err)
		}
	}
}
