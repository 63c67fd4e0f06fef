package cluster

import (
	"context"
	"testing"
)

// The scatter-gather benchmarks run the full stack — router, HTTP wire,
// three real shards — so they price the distribution overhead the way a
// deployment would see it. The gated end-to-end number for this path is
// bench/'s cluster-scatter workload.

func benchCluster(b *testing.B) *Router {
	cfg := testConfig()
	r, _ := newTestCluster(b, 3, cfg)
	// Warm the catalog so the loop measures the scatter path, not the
	// first lookup.
	if _, err := r.intermInfo(context.Background(), "demo", "joined"); err != nil {
		b.Fatal(err)
	}
	return r
}

func BenchmarkScatterGatherTOPK(b *testing.B) {
	r := benchCluster(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := r.TopK(ctx, "demo", "joined", "logerror", 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(tk.Entries) != 10 {
			b.Fatalf("got %d entries", len(tk.Entries))
		}
	}
}

func BenchmarkScatterGatherFilter(b *testing.B) {
	r := benchCluster(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := r.FilterRows(ctx, "demo", "joined", "logerror", "gt", 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(fr.Rows) == 0 {
			b.Fatal("empty filter result")
		}
	}
}
