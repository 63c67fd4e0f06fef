package mistique

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"mistique/internal/cost"
)

// approxBenchRows sizes the interactive-SLA benchmarks and the speedup
// acceptance test: 100k rows is the scale where an exact READ pays a
// visible partition-decode cost while the reservoir answers from memory.
const approxBenchRows = 100_000

// approxSystem stream-ingests one 100k-row intermediate and flushes it,
// so the exact path reads real partitions and the sample is the one the
// ingest path maintained incrementally.
func approxSystem(tb testing.TB, rows int64) *System {
	tb.Helper()
	s, err := Open(tb.TempDir(), Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	cols := []string{"v", "w"}
	const batch = 4096
	buf := make([][]float32, 0, batch)
	for off := int64(0); off < rows; off += batch {
		buf = buf[:0]
		for r := off; r < off+batch && r < rows; r++ {
			buf = append(buf, []float32{streamVal(r, 0), streamVal(r, 1)})
		}
		if _, err := s.IngestRows("live", "acts", cols, buf); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// bestOf returns the fastest of n timed runs — the standard way to
// compare latencies on a noisy shared machine.
func bestOf(tb testing.TB, n int, fn func()) time.Duration {
	tb.Helper()
	best := time.Duration(math.MaxInt64)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// TestApproxInteractiveSpeedup is the acceptance gate for the SAMPLE
// strategy: at a 1% error bound on a 100k-row intermediate, COL_DIST and
// top-k answered from the sample must be >= 5x faster than the exact READ
// path, and the reported bound must hold against ground truth computed
// from the generator.
func TestApproxInteractiveSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	s := approxSystem(t, approxBenchRows)

	// The 1% request must be answered by the sample, and the answer must
	// actually be within 1% of range of the true mean (differential proof
	// at the acceptance operating point).
	d, err := s.ColDist("live", "acts", "v", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if d.Strategy != cost.Sample {
		t.Fatalf("1%% bound not deliverable from the sample: %+v", d)
	}
	var exactMean float64
	for r := int64(0); r < approxBenchRows; r++ {
		exactMean += float64(streamVal(r, 0))
	}
	exactMean /= approxBenchRows
	width := float64(d.Max) - float64(d.Min)
	if diff := math.Abs(d.Mean - exactMean); diff > 0.01*width {
		t.Fatalf("sampled mean off by %v (%.3f%% of range)", diff, 100*diff/width)
	}
	// A 1e-12 request must fall back to exact.
	if ex, err := s.ColDist("live", "acts", "v", 1e-12); err != nil {
		t.Fatal(err)
	} else if ex.Strategy == cost.Sample {
		t.Fatal("1e-12 bound incorrectly claimed by the sample")
	}

	approxDist := bestOf(t, 9, func() {
		if _, err := s.ColDist("live", "acts", "v", 0.01); err != nil {
			t.Fatal(err)
		}
	})
	exactDist := bestOf(t, 9, func() {
		if _, err := s.ColDist("live", "acts", "v", 1e-12); err != nil {
			t.Fatal(err)
		}
	})
	if exactDist < 5*approxDist {
		t.Errorf("COL_DIST speedup %.1fx < 5x (approx %v, exact %v)",
			float64(exactDist)/float64(approxDist), approxDist, exactDist)
	}

	approxTopK := bestOf(t, 9, func() {
		if _, err := s.ApproxTopKCtx(context.Background(), "live", "acts", "v", 10, 0.01); err != nil {
			t.Fatal(err)
		}
	})
	exactTopK := bestOf(t, 9, func() {
		if _, err := s.ApproxTopKCtx(context.Background(), "live", "acts", "v", 10, 1e-12); err != nil {
			t.Fatal(err)
		}
	})
	if exactTopK < 5*approxTopK {
		t.Errorf("top-k speedup %.1fx < 5x (approx %v, exact %v)",
			float64(exactTopK)/float64(approxTopK), approxTopK, exactTopK)
	}
}

// BenchmarkApproxColDist: COL_DIST at the interactive operating point —
// strategy=sample answers from the reservoir at a 1% bound, the exact
// variant pays the full partition read it replaces.
func BenchmarkApproxColDist(b *testing.B) {
	s := approxSystem(b, approxBenchRows)
	for _, bc := range []struct {
		name     string
		maxError float64
	}{{"strategy=sample", 0.01}, {"strategy=exact", 1e-12}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ColDist("live", "acts", "v", bc.maxError); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApproxTopK: rank queries from the sample vs the exact scan.
func BenchmarkApproxTopK(b *testing.B) {
	s := approxSystem(b, approxBenchRows)
	for _, bc := range []struct {
		name     string
		maxError float64
	}{{"strategy=sample", 0.01}, {"strategy=exact", 1e-12}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ApproxTopKCtx(context.Background(), "live", "acts", "v", 10, bc.maxError); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamingIngest: durable-ack throughput of the WAL-backed
// ingest path, one fsync'd 1024-row batch per op.
func BenchmarkStreamingIngest(b *testing.B) {
	s, err := Open(b.TempDir(), Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const batch = 1024
	cols := []string{"v", "w"}
	rows := make([][]float32, batch)
	next := int64(0)
	b.SetBytes(batch * int64(len(cols)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rows {
			rows[j] = []float32{streamVal(next, 0), streamVal(next, 1)}
			next++
		}
		if _, err := s.IngestRows("live", "acts", cols, rows); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			b.StopTimer()
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkStreamSampleAfterBatch: a sampled TOPK and COL_DIST on a
// 32-column stream whose reservoir is full, each op right after one more
// 1024-row batch — the probe a live dashboard makes while training writes.
// TOPK asks for 0.02 of rank, as bench/'s write-mixed does: a full
// 32768-row reservoir's rank bound passes 0.01 once the stream is past
// ~240 000 rows, and the op would fall back to the exact path.
func BenchmarkStreamSampleAfterBatch(b *testing.B) {
	s, err := Open(b.TempDir(), Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const batch, nCols = 1024, 32
	cols := make([]string, nCols)
	for j := range cols {
		cols[j] = fmt.Sprintf("u%d", j)
	}
	rows := make([][]float32, batch)
	for i := range rows {
		rows[i] = make([]float32, nCols)
	}
	next := int64(0)
	ingest := func() {
		for _, r := range rows {
			for j := range r {
				r[j] = streamVal(next*7919, j) // a pseudo-random walk over 977 levels
			}
			next++
		}
		if _, err := s.IngestRows("live", "acts", cols, rows); err != nil {
			b.Fatal(err)
		}
	}
	for next < 40*batch {
		ingest()
	}
	ctx := context.Background()
	probe := func() {
		if a, err := s.ApproxTopKCtx(ctx, "live", "acts", "u0", 10, 0.02); err != nil || a.Strategy != cost.Sample {
			b.Fatalf("topk: %v", err)
		}
		if d, err := s.ColDistCtx(ctx, "live", "acts", "u0", 0.01); err != nil || d.Strategy != cost.Sample {
			b.Fatalf("coldist: %v", err)
		}
	}
	probe()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ingest()
		b.StartTimer()
		probe()
	}
}
