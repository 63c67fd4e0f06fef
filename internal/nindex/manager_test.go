package nindex

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mistique/internal/obs"
)

func testColumn(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		switch rng.Intn(10) {
		case 0:
			out[i] = float32(math.NaN())
		case 1:
			out[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
		default:
			out[i] = float32(rng.NormFloat64())
		}
	}
	return out
}

func managerForTest(t *testing.T) (*Manager, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	m, err := NewManager(ManagerConfig{Obs: reg, Index: Config{SegmentEntries: 16}})
	if err != nil {
		t.Fatal(err)
	}
	return m, reg
}

func fetchOf(col []float32, blockRows int) Fetch {
	return func() ([]float32, int, error) { return col, blockRows, nil }
}

func counterVal(reg *obs.Registry, name string) int64 {
	return reg.Snapshot().Counters[name]
}

func TestManagerCachesAndRebuildsOnStaleSignature(t *testing.T) {
	col := testColumn(300, 4)
	key := Key{Model: "m", Intermediate: "i", Column: "c"}

	m, reg := managerForTest(t)
	got, err := m.TopK(key, 11, 5, fetchOf(col, 32))
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := Build(col, 11, Config{}).TopK(5)
	if len(got) != len(want) {
		t.Fatalf("topk returned %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topk entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if counterVal(reg, "mistique_index_builds_total") != 1 {
		t.Fatal("first probe did not build")
	}
	// Second probe: cache hit, no fetch.
	failFetch := Fetch(func() ([]float32, int, error) { return nil, 0, errors.New("must not fetch") })
	if _, err := m.FilterRows(key, 11, Gt, 0, failFetch); err != nil {
		t.Fatal(err)
	}
	if counterVal(reg, "mistique_index_builds_total") != 1 || counterVal(reg, "mistique_index_hits_total") == 0 {
		t.Fatal("second probe rebuilt instead of hitting the cache")
	}
	// A different signature rejects the cached index and rebuilds.
	if _, err := m.TopK(key, 12, 5, fetchOf(col, 32)); err != nil {
		t.Fatal(err)
	}
	if counterVal(reg, "mistique_index_builds_total") != 2 {
		t.Fatal("stale signature did not force a rebuild")
	}
	// A failed fetch surfaces as the probe's error.
	if _, err := m.TopK(key, 13, 5, failFetch); err == nil {
		t.Fatal("failed build fetch answered")
	}
}

func TestManagerEvictsLRUUnderBudget(t *testing.T) {
	reg := obs.New()
	col := testColumn(2000, 3)
	one := Build(col, 0, Config{})
	// Budget holds roughly two indexes.
	m, err := NewManager(ManagerConfig{Obs: reg, MemBudgetBytes: 2*one.Bytes() + one.Bytes()/2})
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{{Model: "m", Column: "a"}, {Model: "m", Column: "b"}, {Model: "m", Column: "c"}}
	for _, k := range keys {
		if _, err := m.TopK(k, 1, 3, fetchOf(col, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if counterVal(reg, "mistique_index_evictions_total") == 0 {
		t.Fatal("budget never evicted")
	}
	if got := m.ResidentBytes(); got > 2*one.Bytes()+one.Bytes()/2 {
		t.Fatalf("resident %d over budget", got)
	}
	// The evicted index is rebuilt from the column on its next probe.
	builds := counterVal(reg, "mistique_index_builds_total")
	if _, err := m.TopK(keys[0], 1, 3, fetchOf(col, 64)); err != nil {
		t.Fatal(err)
	}
	if counterVal(reg, "mistique_index_builds_total") != builds+1 {
		t.Fatal("evicted index was not rebuilt")
	}
}

// TestManagerEvictionDeletesSlots: evicting an index deletes its cache
// slot, so probing many distinct columns under a one-index budget keeps
// the slot map at the resident set instead of every column ever probed.
// Four goroutines probe disjoint keys at once.
func TestManagerEvictionDeletesSlots(t *testing.T) {
	col := testColumn(200, 9)
	want, _, _ := Build(col, 1, Config{}).TopK(3)
	m, err := NewManager(ManagerConfig{MemBudgetBytes: Build(col, 1, Config{}).Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := Key{Model: "m", Intermediate: "i", Column: fmt.Sprintf("c%d_%d", w, i)}
				got, err := m.TopK(key, 1, 3, fetchOf(col, 32))
				if err != nil {
					t.Error(err)
					return
				}
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("%v: entry %d = %+v, want %+v", key, j, got[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	m.mu.Lock()
	slots := len(m.entries)
	m.mu.Unlock()
	if slots > 2 {
		t.Fatalf("%d cache slots after %d distinct keys under a one-index budget, want <= 2", slots, workers*perWorker)
	}
}

func TestManagerInvalidate(t *testing.T) {
	m, reg := managerForTest(t)
	col := testColumn(50, 5)
	ka := Key{Model: "m1", Intermediate: "i", Column: "a"}
	kb := Key{Model: "m2", Intermediate: "i", Column: "b"}
	for _, k := range []Key{ka, kb} {
		if _, err := m.TopK(k, 1, 2, fetchOf(col, 16)); err != nil {
			t.Fatal(err)
		}
	}
	both := m.ResidentBytes()
	m.Invalidate(ka)
	if got := m.ResidentBytes(); got <= 0 || got >= both {
		t.Fatalf("resident %d after Invalidate, want only the other model's index of %d", got, both)
	}
	m.InvalidateModel("m2")
	if m.ResidentBytes() != 0 {
		t.Fatal("InvalidateModel left resident bytes")
	}
	if got := reg.Snapshot().Gauges["mistique_index_bytes"]; got != 0 {
		t.Fatalf("index bytes gauge %d after invalidating everything", got)
	}
	// Probes after invalidation rebuild cleanly.
	if _, err := m.TopK(ka, 1, 2, fetchOf(col, 16)); err != nil {
		t.Fatal(err)
	}
	if counterVal(reg, "mistique_index_builds_total") != 3 {
		t.Fatal("probe after Invalidate did not rebuild")
	}
}

// TestManagerProbeErrorIsReturned: an index whose segment payload fails
// its structural checks answers with an error, not with rows; the caller's
// full scan is the recovery.
func TestManagerProbeErrorIsReturned(t *testing.T) {
	m, _ := managerForTest(t)
	col := testColumn(100, 6)
	key := Key{Model: "m", Intermediate: "i", Column: "c"}
	bad := Build(col, 9, Config{SegmentEntries: 16})
	// Torn row lists at both ends of the non-NaN run, which Gt and Lt walk.
	bad.segs[0].rowsEnc = bad.segs[0].rowsEnc[:1]
	bad.segs[bad.nonNaN-1].rowsEnc = nil
	e, _ := m.lookup(key, 9)
	m.install(key, e, bad)

	if got, err := m.TopK(key, 9, 4, fetchOf(col, 32)); err == nil {
		t.Fatalf("probe of a broken index answered %v", got)
	}
	for _, op := range []Op{Gt, Lt} {
		if got, err := m.FilterRows(key, 9, op, 0, fetchOf(col, 32)); err == nil {
			t.Fatalf("%v probe of a broken index answered %v", op, got)
		}
	}
}
