package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"mistique/internal/quant"
)

func key(model, interm, col string, block int) ColumnKey {
	return ColumnKey{Model: model, Intermediate: interm, Column: col, Block: block}
}

func randCol(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = rng.Float32() * 100
	}
	return out
}

func openTest(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pinProcs sets GOMAXPROCS — the bound of every Flush, Compact and
// recovery fan-out — for one test and restores it afterwards. At 1 every
// fan-out runs inline, so a faultfs crash matrix sees one deterministic op
// order. Tests that pin must not call t.Parallel.
func pinProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, Config{})
	vals := randCol(1000, 1)
	res, err := s.PutColumn(key("m", "i0", "c0", 0), vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deduped || res.EncodedBytes != 4000 {
		t.Fatalf("unexpected put result %+v", res)
	}
	got, err := s.GetColumn(key("m", "i0", "c0", 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
	if !s.Has(key("m", "i0", "c0", 0)) || s.Has(key("m", "i0", "c1", 0)) {
		t.Fatal("Has broken")
	}
}

func TestDuplicateKeyRejected(t *testing.T) {
	s := openTest(t, Config{})
	k := key("m", "i", "c", 0)
	if _, err := s.PutColumn(k, randCol(10, 1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutColumn(k, randCol(10, 2), nil); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestExactDedup(t *testing.T) {
	s := openTest(t, Config{})
	vals := randCol(1000, 2)
	r1, err := s.PutColumn(key("m1", "i", "c", 0), vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.PutColumn(key("m2", "i", "c", 0), vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Deduped || r2.ID != r1.ID {
		t.Fatalf("identical chunk not deduped: %+v vs %+v", r1, r2)
	}
	st := s.Stats()
	if st.ChunksStored != 1 || st.ChunksDeduped != 1 || st.ChunksPut != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.StoredBytes != 4000 || st.LogicalBytes != 8000 {
		t.Fatalf("byte accounting %+v", st)
	}
	// Both keys readable.
	for _, m := range []string{"m1", "m2"} {
		got, err := s.GetColumn(key(m, "i", "c", 0))
		if err != nil || got[0] != vals[0] {
			t.Fatalf("read after dedup (%s): %v", m, err)
		}
	}
}

func TestExactDedupDistinguishesQuantizers(t *testing.T) {
	s := openTest(t, Config{})
	vals := []float32{0, 0, 0, 0} // encodes to zero bytes under any codec
	if _, err := s.PutColumn(key("m", "i", "a", 0), vals, quant.NewFull()); err != nil {
		t.Fatal(err)
	}
	r, err := s.PutColumn(key("m", "i", "b", 0), []float32{0, 0}, quant.NewFull())
	if err != nil {
		t.Fatal(err)
	}
	// Different lengths encode differently (8 vs 16 bytes), so no dedup.
	if r.Deduped {
		t.Fatal("chunks of different lengths deduped")
	}
}

func TestDisableExactDedup(t *testing.T) {
	s := openTest(t, Config{DisableExactDedup: true})
	vals := randCol(100, 3)
	s.PutColumn(key("m1", "i", "c", 0), vals, nil)
	r, _ := s.PutColumn(key("m2", "i", "c", 0), vals, nil)
	if r.Deduped {
		t.Fatal("dedup happened despite being disabled")
	}
	if st := s.Stats(); st.ChunksStored != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSimilarityCoLocation(t *testing.T) {
	s := openTest(t, Config{Mode: ModeSimilarity, SimilarityThreshold: 0.5})
	base := randCol(1000, 4)
	if _, err := s.PutColumn(key("m", "i0", "c", 0), base, nil); err != nil {
		t.Fatal(err)
	}
	// Near-duplicate: perturb 5% of values.
	near := append([]float32(nil), base...)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		near[rng.Intn(len(near))] += 1000
	}
	r, err := s.PutColumn(key("m", "i1", "c", 0), near, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Deduped {
		t.Fatal("near-duplicate exactly deduped?!")
	}
	if !r.CoLocated {
		t.Fatal("similar chunk was not co-located")
	}
	// A completely different column should open a new partition.
	other := randCol(1000, 6)
	for i := range other {
		other[i] += 1e6
	}
	r2, err := s.PutColumn(key("m", "i2", "c", 0), other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CoLocated {
		t.Fatal("dissimilar chunk co-located")
	}
}

func TestFlushAndReadBack(t *testing.T) {
	s := openTest(t, Config{})
	keys := make([]ColumnKey, 20)
	vals := make([][]float32, 20)
	for i := range keys {
		keys[i] = key("m", "i", fmt.Sprintf("c%d", i), 0)
		vals[i] = randCol(500, int64(10+i))
		if _, err := s.PutColumn(keys[i], vals[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		got, err := s.GetColumn(k)
		if err != nil {
			t.Fatalf("read %v after drop: %v", k, err)
		}
		for j := range got {
			if got[j] != vals[i][j] {
				t.Fatalf("col %d value %d mismatch after disk round trip", i, j)
			}
		}
	}
	if st := s.Stats(); st.DiskReads == 0 || st.DiskWrites == 0 {
		t.Fatalf("expected disk IO, stats %+v", st)
	}
	n, err := s.DiskBytes()
	if err != nil || n == 0 {
		t.Fatalf("DiskBytes = %d, %v", n, err)
	}
}

func TestQuantizedColumnsRoundTripThroughDisk(t *testing.T) {
	s := openTest(t, Config{})
	vals := randCol(2000, 11)
	q8, err := quant.FitKBit(vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := q8.Apply(vals)
	if _, err := s.PutColumn(key("m", "i", "c", 0), vals, q8); err != nil {
		t.Fatal(err)
	}
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetColumn(key("m", "i", "c", 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quantized round trip mismatch at %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestEvictionUnderMemoryPressure(t *testing.T) {
	// Budget of ~40KB with 4KB chunks and 8KB partitions forces eviction.
	s := openTest(t, Config{MemBudgetBytes: 40 << 10, PartitionTargetBytes: 8 << 10})
	for i := 0; i < 50; i++ {
		k := key("m", "i", fmt.Sprintf("c%d", i), 0)
		if _, err := s.PutColumn(k, randCol(1024, int64(100+i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions, stats %+v", st)
	}
	// All columns still readable (evicted ones come back from disk).
	for i := 0; i < 50; i++ {
		if _, err := s.GetColumn(key("m", "i", fmt.Sprintf("c%d", i), 0)); err != nil {
			t.Fatalf("column %d unreadable after eviction: %v", i, err)
		}
	}
}

// TestPoolSmallerThanPartitionStillEvicts: with a budget below one
// partition and an open partition pinned in the pool, each cold read still
// has to be served — and has to push out the previous one. The page-in
// paths used to re-install the partition after the eviction loop had
// dropped it from the LRU, so nothing ever evicted it again and the pool
// grew to the whole working set.
func TestPoolSmallerThanPartitionStillEvicts(t *testing.T) {
	const budget, target = 4 << 10, 8 << 10
	s := openTest(t, Config{MemBudgetBytes: budget, PartitionTargetBytes: target})
	const cols = 40 // 8 KiB each: one to a partition, so no warm hit re-queues it
	for i := 0; i < cols; i++ {
		if _, err := s.PutColumn(key("m", "i", fmt.Sprintf("c%d", i), 0), randCol(2048, int64(100+i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// A small column opens the partition that stays pinned as s.current.
	if _, err := s.PutColumn(key("m", "i", "open", 0), randCol(16, 1), nil); err != nil {
		t.Fatal(err)
	}
	var largest int64
	s.mu.Lock()
	if s.current < 0 {
		t.Fatal("no open partition to pin")
	}
	for _, p := range s.parts {
		largest = max(largest, p.bytes)
	}
	s.mu.Unlock()

	before := s.Stats()
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < cols; i++ {
			if _, err := s.GetColumn(key("m", "i", fmt.Sprintf("c%d", i), 0)); err != nil {
				t.Fatalf("pass %d column %d: %v", pass, i, err)
			}
			s.mu.Lock()
			resident := s.memBytes
			s.mu.Unlock()
			if resident > budget+largest {
				t.Fatalf("pass %d column %d: %d bytes resident, budget %d + one partition %d", pass, i, resident, budget, largest)
			}
		}
	}
	after := s.Stats()
	if pageIns := after.DiskReads - before.DiskReads; pageIns < 32 {
		t.Fatalf("only %d page-ins; the test needs a cold working set", pageIns)
	} else if evicted := after.Evictions - before.Evictions; evicted < pageIns-1 {
		t.Fatalf("%d page-ins evicted only %d partitions", pageIns, evicted)
	}
}

func TestScatterModeSpreadsChunks(t *testing.T) {
	s := openTest(t, Config{Mode: ModeScatter, ScatterWays: 4})
	for i := 0; i < 8; i++ {
		k := key("m", "i", fmt.Sprintf("c%d", i), 0)
		if _, err := s.PutColumn(k, randCol(100, int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Partitions < 4 {
		t.Fatalf("scatter used only %d partitions", st.Partitions)
	}
}

func TestGetMissingColumn(t *testing.T) {
	s := openTest(t, Config{})
	if _, err := s.GetColumn(key("no", "such", "col", 0)); err == nil {
		t.Fatal("expected error for missing column")
	}
	if _, err := s.chunkRef(ChunkID{Partition: 99, Index: 0}); err == nil {
		t.Fatal("expected error for missing partition")
	}
}

func TestLookupAndKeyString(t *testing.T) {
	s := openTest(t, Config{})
	k := key("m", "i", "c", 2)
	if _, ok := s.Lookup(k); ok {
		t.Fatal("Lookup hit before put")
	}
	s.PutColumn(k, randCol(10, 1), nil)
	if _, ok := s.Lookup(k); !ok {
		t.Fatal("Lookup miss after put")
	}
	if k.String() != "m.i.c[2]" {
		t.Fatalf("key string %q", k.String())
	}
}

// TestCompressionBenefitsFromCoLocation is the essence of Fig. 14: storing
// similar columns in the same partition compresses better than scattering
// them across partitions.
func TestCompressionBenefitsFromCoLocation(t *testing.T) {
	mkCols := func() [][]float32 {
		base := randCol(4096, 42)
		cols := make([][]float32, 16)
		for i := range cols {
			c := append([]float32(nil), base...)
			// 10% of entries perturbed per column.
			rng := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < len(c)/10; j++ {
				c[rng.Intn(len(c))] = rng.Float32() * 100
			}
			cols[i] = c
		}
		return cols
	}

	measure := func(mode Mode) int64 {
		s, err := Open(t.TempDir(), Config{Mode: mode, SimilarityThreshold: 0.3, ScatterWays: 16})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range mkCols() {
			if _, err := s.PutColumn(key("m", "i", fmt.Sprintf("c%d", i), 0), c, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		n, err := s.DiskBytes()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	together := measure(ModeSimilarity)
	scattered := measure(ModeScatter)
	if together >= scattered {
		t.Fatalf("co-location did not help: together=%d scattered=%d", together, scattered)
	}
}

func BenchmarkPutColumn1K(b *testing.B) {
	s, err := Open(b.TempDir(), Config{})
	if err != nil {
		b.Fatal(err)
	}
	vals := randCol(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := key("m", "i", fmt.Sprintf("c%d", i), 0)
		if _, err := s.PutColumn(k, vals, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReopenReadsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][]float32{}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("c%d", i)
		vals[name] = randCol(300, int64(40+i))
		if _, err := s.PutColumn(key("m", "i", name, 0), vals[name], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// A brand-new Store over the same directory serves the old chunks.
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range vals {
		got, err := s2.GetColumn(key("m", "i", name, 0))
		if err != nil {
			t.Fatalf("reopened read %s: %v", name, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("reopened value mismatch %s[%d]", name, j)
			}
		}
	}
	// And accepts new writes that don't collide.
	if _, err := s2.PutColumn(key("m", "i", "fresh", 0), randCol(10, 1), nil); err != nil {
		t.Fatal(err)
	}
	// Old keys are still known, so re-puts are rejected.
	if _, err := s2.PutColumn(key("m", "i", "c0", 0), randCol(10, 2), nil); err == nil {
		t.Fatal("reopened store accepted duplicate key")
	}
}

func TestReopenWithoutFlushLosesNothingDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.PutColumn(key("m", "i", "c", 0), randCol(10, 1), nil)
	// No Flush: reopening sees an empty (but valid) store.
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Has(key("m", "i", "c", 0)) {
		t.Fatal("unflushed chunk visible after reopen")
	}
}

func TestCorruptPartitionFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := key("m", "i", "c", 0)
	if _, err := s.PutColumn(k, randCol(100, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Truncate the partition file, then force a disk read.
	matches, _ := filepath.Glob(filepath.Join(dir, "partition_*.bin.gz"))
	if len(matches) != 1 {
		t.Fatalf("partitions on disk: %v", matches)
	}
	if err := os.Truncate(matches[0], 5); err != nil {
		t.Fatal(err)
	}
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetColumn(k); err == nil {
		t.Fatal("corrupt partition read succeeded")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := openTest(t, Config{MemBudgetBytes: 64 << 10, PartitionTargetBytes: 16 << 10})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := key("m", fmt.Sprintf("i%d", g), fmt.Sprintf("c%d", i), 0)
				vals := randCol(512, int64(g*100+i))
				if _, err := s.PutColumn(k, vals, nil); err != nil {
					errs <- err
					return
				}
				got, err := s.GetColumn(k)
				if err != nil {
					errs <- err
					return
				}
				if got[0] != vals[0] {
					errs <- fmt.Errorf("goroutine %d col %d mismatch", g, i)
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
}

func TestPutColumnQuickProperty(t *testing.T) {
	s := openTest(t, Config{})
	i := 0
	prop := func(raw []float32) bool {
		i++
		if len(raw) == 0 {
			return true
		}
		k := key("q", "i", fmt.Sprintf("c%d", i), 0)
		if _, err := s.PutColumn(k, raw, nil); err != nil {
			return false
		}
		got, err := s.GetColumn(k)
		if err != nil || len(got) != len(raw) {
			return false
		}
		for j := range raw {
			// NaNs must round-trip as NaNs (bit patterns may differ).
			if math.IsNaN(float64(raw[j])) {
				if !math.IsNaN(float64(got[j])) {
					return false
				}
				continue
			}
			if got[j] != raw[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
