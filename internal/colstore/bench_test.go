package colstore

import (
	"compress/gzip"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mistique/internal/codec"
	"mistique/internal/faultfs"
	"mistique/internal/quant"
)

// benchChunks builds a partition-sized snapshot: 64 LP chunks of 1024
// noisy values each (~128 KiB encoded), the shape a DNN log flush writes.
func benchChunks(b testing.TB) []*chunk {
	rng := rand.New(rand.NewSource(11))
	q := quant.NewLP()
	chunks := make([]*chunk, 64)
	for i := range chunks {
		vals := make([]float32, 1024)
		for j := range vals {
			vals[j] = float32(rng.NormFloat64())
		}
		chunks[i] = &chunk{enc: q.Encode(nil, vals), count: len(vals), q: q}
	}
	return chunks
}

// benchStreamChunks builds partition snapshots for each quantized stream
// shape the store writes: "lp" (f16 halves), "kbit" (8-bit quantile bins,
// near max entropy by construction), and "threshold" (1-bit activation
// bitmaps at the 99.5th percentile — runs of zeros).
func benchStreamChunks(b testing.TB, stream string) []*chunk {
	rng := rand.New(rand.NewSource(23))
	vals := make([]float32, 4096)
	chunks := make([]*chunk, 32)
	for i := range chunks {
		for j := range vals {
			vals[j] = float32(rng.NormFloat64())
		}
		var q *quant.Quantizer
		var err error
		switch stream {
		case "lp":
			q = quant.NewLP()
		case "kbit":
			q, err = quant.FitKBit(vals, 8)
		case "threshold":
			q, err = quant.FitThreshold(vals, 0.995)
		default:
			b.Fatalf("unknown stream %q", stream)
		}
		if err != nil {
			b.Fatal(err)
		}
		chunks[i] = &chunk{enc: q.Encode(nil, vals), count: len(vals), q: q}
	}
	return chunks
}

func BenchmarkPartitionWrite(b *testing.B) {
	chunks := benchChunks(b)
	dir := b.TempDir()
	path := filepath.Join(dir, partFileName(0, 0))
	gz, err := codec.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := writePartitionFileAt(faultfs.OS(), path, chunks, gz); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st, err := os.Stat(path); err == nil {
		b.ReportMetric(float64(st.Size()), "filebytes")
	}
}

// BenchmarkPartitionWriteLevels is the measurement behind the gzipLevel
// constant (see DESIGN.md "Performance"): the gzip compression of one
// serialized partition image at each candidate level.
func BenchmarkPartitionWriteLevels(b *testing.B) {
	img := serializePartition(nil, benchChunks(b))
	gz, err := codec.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	for _, level := range []int{gzip.BestSpeed, gzip.DefaultCompression} {
		b.Run(fmt.Sprintf("level=%d", level), func(b *testing.B) {
			var comp []byte
			for i := 0; i < b.N; i++ {
				if comp, err = gz.Compress(comp[:0], img, level); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(comp)), "filebytes")
		})
	}
}

// BenchmarkPartitionWriteCodecs measures flush cost (serialize + compress
// + write + fsync) per codec per stream shape, with the resulting file
// size as the "filebytes" metric — the measurement behind Config.Codec
// guidance in DESIGN.md. The acceptance bar for this PR: actz beats
// gzip(BestSpeed) on both axes for the kbit and threshold streams.
func BenchmarkPartitionWriteCodecs(b *testing.B) {
	for _, stream := range []string{"lp", "kbit", "threshold"} {
		chunks := benchStreamChunks(b, stream)
		for _, name := range []string{"gzip", "store", "actz"} {
			c, err := codec.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("stream=%s/codec=%s", stream, name), func(b *testing.B) {
				dir := b.TempDir()
				path := filepath.Join(dir, partFileName(0, 0))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, _, err := writePartitionFileAt(faultfs.OS(), path, chunks, c); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if st, err := os.Stat(path); err == nil {
					b.ReportMetric(float64(st.Size()), "filebytes")
				}
			})
		}
	}
}

// BenchmarkPartitionReadCodecs measures the cold read (open + decompress
// + checksum-verify + parse) per codec per stream shape.
func BenchmarkPartitionReadCodecs(b *testing.B) {
	for _, stream := range []string{"lp", "kbit", "threshold"} {
		chunks := benchStreamChunks(b, stream)
		for _, name := range []string{"gzip", "store", "actz"} {
			c, err := codec.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("stream=%s/codec=%s", stream, name), func(b *testing.B) {
				dir := b.TempDir()
				path := filepath.Join(dir, partFileName(0, 0))
				_, raw, _, err := writePartitionFileAt(faultfs.OS(), path, chunks, c)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					got, _, _, err := readPartitionFile(path, raw)
					if err != nil {
						b.Fatal(err)
					}
					if len(got) != len(chunks) {
						b.Fatalf("read %d chunks, want %d", len(got), len(chunks))
					}
				}
			})
		}
	}
}

func BenchmarkPartitionRead(b *testing.B) {
	chunks := benchChunks(b)
	dir := b.TempDir()
	path := filepath.Join(dir, partFileName(0, 0))
	gz, err := codec.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	_, raw, _, err := writePartitionFileAt(faultfs.OS(), path, chunks, gz)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, _, err := readPartitionFile(path, raw)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(chunks) {
			b.Fatalf("read %d chunks, want %d", len(got), len(chunks))
		}
	}
}

// storePuts is how many puts BenchmarkPutColumnDelta makes per store.
const storePuts = 4096

// stamp makes vals distinct for each of storePuts puts by writing i into
// its first two values, exactly in LP's float16 (integers up to 2048).
func stamp(vals []float32, i int) []float32 {
	i %= storePuts
	vals[0], vals[1] = float32(i%1024), float32(i/1024)
	return vals
}

// BenchmarkPutColumnDelta measures a versioned put of one 1024-value LP
// column against a resident parent, for the three outcomes the put path
// can reach: an exact duplicate (dedup, no similarity work), a drifted
// generation (delta residual kept) and a dissimilar one (residual gated
// out, stored full). The store is configured like a DNN log (no similarity
// placement), so only the delta path is timed; a fresh store every storePuts
// puts bounds its memory.
func BenchmarkPutColumnDelta(b *testing.B) {
	q := quant.NewLP()
	base := randCol(1024, 1)
	drift := perturbCol(base, 3, 0.1)
	other := randCol(1024, 999)
	for _, c := range []struct {
		name         string
		vals         func(i int) []float32
		deduped, dlt bool
	}{
		{"duplicate", func(int) []float32 { return base }, true, false},
		{"drift", func(i int) []float32 { return stamp(drift, i) }, false, true},
		{"dissimilar", func(i int) []float32 { return stamp(other, i) }, false, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			var s *Store
			for i := 0; i < b.N; i++ {
				if i%storePuts == 0 {
					b.StopTimer()
					var err error
					if s, err = Open(b.TempDir(), Config{DisableApproxDedup: true}); err != nil {
						b.Fatal(err)
					}
					if _, err := s.PutColumn(vkey("v0"), base, q); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				r, err := s.PutColumnDelta(vkey(fmt.Sprintf("v%d", i+1)), c.vals(i), q, vkey("v0"))
				if err != nil {
					b.Fatal(err)
				}
				if r.Deduped != c.deduped || r.Delta != c.dlt {
					b.Fatalf("put %d: %+v, want deduped=%v delta=%v", i, r, c.deduped, c.dlt)
				}
			}
		})
	}
}

// deltaStore returns a store holding n column keys in 64-column
// intermediates, one of whose columns is a delta chunk: the shape in which
// every costed plan asks MaxDeltaDepth.
func deltaStore(b *testing.B, n int) *Store {
	b.Helper()
	s, err := Open(b.TempDir(), Config{DisableApproxDedup: true})
	if err != nil {
		b.Fatal(err)
	}
	base := randCol(1024, 1)
	if _, err := s.PutColumn(vkey("v0"), base, nil); err != nil {
		b.Fatal(err)
	}
	if r, err := s.PutColumnDelta(vkey("v1"), perturbCol(base, 3, 0.1), nil, vkey("v0")); err != nil || !r.Delta {
		b.Fatalf("delta put: %+v %v", r, err)
	}
	filler := []float32{1, 2, 3, 4}
	for i := 2; i < n; i++ {
		k := key("filler", fmt.Sprintf("i%d", i/64), fmt.Sprintf("c%d", i%64), 0)
		if _, err := s.PutColumn(k, filler, nil); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkMaxDeltaDepth costs a READ's chain amplification, which every
// Plan of an op not bound to stored chunks asks, at 1 k, 10 k and 100 k
// column keys with one delta chunk stored. It must not grow with the store.
func BenchmarkMaxDeltaDepth(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			s := deltaStore(b, n)
			if d := s.MaxDeltaDepth("v1", "act"); d != 1 {
				b.Fatalf("MaxDeltaDepth = %d, want 1", d)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.MaxDeltaDepth("v1", "act")
			}
		})
	}
}
