package mistique

import (
	"fmt"
	"sync"
	"testing"

	"mistique/internal/tensor"
)

// newBareSession builds a Session over a minimal System so the unexported
// cache internals (insertLocked, touchLocked, Invalidate accounting) can be
// exercised directly without logging real models.
func newBareSession(capBytes int64) *Session {
	return NewSession(&System{metrics: newSystemMetrics()}, capBytes)
}

// fakeResult builds a Result whose cached payload is exactly bytes (bytes
// must be a multiple of 4: the cache charges 4 bytes per float32).
func fakeResult(bytes int64) *Result {
	return &Result{Data: tensor.NewDense(int(bytes/4), 1)}
}

// TestCacheKeyNormalization asserts the satellite fix: the distinct
// spellings of the same query share one cache entry instead of caching
// three copies of identical data.
func TestCacheKeyNormalization(t *testing.T) {
	s := openSys(t, Config{})
	logDemo(t, s)
	it := s.Metadata().Intermediate("demo", "model")
	if it == nil {
		t.Fatal("no catalog entry for demo.model")
	}
	allCols := append([]string(nil), it.Columns...)

	spellings := []struct {
		name string
		cols []string
		nEx  int
	}{
		{"nil cols, zero nEx", nil, 0},
		{"explicit cols, exact rows", allCols, it.Rows},
		{"nil cols, exact rows", nil, it.Rows},
		{"explicit cols, zero nEx", allCols, 0},
		{"nil cols, nEx past end", nil, it.Rows + 1000},
		{"negative nEx", nil, -5},
	}
	sess := NewSession(s, 1<<20)
	for _, sp := range spellings {
		res, err := sess.Get("demo", "model", sp.cols, sp.nEx)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if res.Data.Rows != it.Rows || res.Data.Cols != len(it.Columns) {
			t.Fatalf("%s: got %dx%d, want %dx%d", sp.name, res.Data.Rows, res.Data.Cols, it.Rows, len(it.Columns))
		}
	}
	if sess.Len() != 1 {
		t.Fatalf("equivalent queries cached %d entries, want 1", sess.Len())
	}
	if hits, misses := sess.Stats(); misses != 1 || hits != int64(len(spellings)-1) {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, len(spellings)-1)
	}
	// used must charge the payload once, not per spelling.
	wantBytes := int64(it.Rows*len(it.Columns)) * 4
	sess.mu.Lock()
	used := sess.used
	sess.mu.Unlock()
	if used != wantBytes {
		t.Fatalf("used=%d, want %d (payload charged once)", used, wantBytes)
	}
	// A genuinely different query is still a distinct entry.
	if _, err := sess.Get("demo", "model", allCols[:1], 0); err != nil {
		t.Fatal(err)
	}
	if sess.Len() != 2 {
		t.Fatalf("distinct query collapsed into existing entry; len=%d", sess.Len())
	}
}

// TestSessionEviction drives insertLocked directly: over-capacity inserts
// must evict in LRU order (least recent first) and keep byte accounting
// exact.
func TestSessionEviction(t *testing.T) {
	cases := []struct {
		name     string
		capBytes int64
		inserts  []int64 // payload bytes per entry, inserted in order
		touch    []int   // indices promoted (touchLocked) before the last insert
		wantKeys []int   // surviving entry indices after all inserts
	}{
		{
			name:     "fifo eviction without touches",
			capBytes: 1024,
			inserts:  []int64{400, 400, 400},
			wantKeys: []int{1, 2},
		},
		{
			name:     "touch promotes the oldest entry",
			capBytes: 1024,
			inserts:  []int64{400, 400, 400},
			touch:    []int{0},
			wantKeys: []int{0, 2},
		},
		{
			name:     "large insert evicts several",
			capBytes: 1000,
			inserts:  []int64{300, 300, 300, 900},
			wantKeys: []int{3},
		},
		{
			name:     "oversize entry is rejected, cache untouched",
			capBytes: 500,
			inserts:  []int64{400, 600},
			wantKeys: []int{0},
		},
		{
			name:     "exact fit evicts nothing",
			capBytes: 800,
			inserts:  []int64{400, 400},
			wantKeys: []int{0, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess := newBareSession(tc.capBytes)
			key := func(i int) string { return fmt.Sprintf("k%d", i) }
			sess.mu.Lock()
			for i, b := range tc.inserts {
				if i == len(tc.inserts)-1 {
					for _, ti := range tc.touch {
						sess.touchLocked(key(ti))
					}
				}
				sess.insertLocked(key(i), fakeResult(b))
			}
			defer sess.mu.Unlock()
			if len(sess.entries) != len(tc.wantKeys) {
				t.Fatalf("entries=%d want %d", len(sess.entries), len(tc.wantKeys))
			}
			var wantUsed int64
			for _, i := range tc.wantKeys {
				if _, ok := sess.entries[key(i)]; !ok {
					t.Fatalf("entry %s missing; order=%v", key(i), sess.order)
				}
				wantUsed += tc.inserts[i]
			}
			if sess.used != wantUsed {
				t.Fatalf("used=%d want %d", sess.used, wantUsed)
			}
			if len(sess.order) != len(sess.entries) {
				t.Fatalf("order has %d keys for %d entries", len(sess.order), len(sess.entries))
			}
		})
	}
}

// TestSessionInvalidate checks Invalidate's byte accounting and that only
// the named model's entries drop.
func TestSessionInvalidate(t *testing.T) {
	sess := newBareSession(1 << 20)
	sess.mu.Lock()
	sess.insertLocked(cacheKey("ma", "i1", nil, 10), fakeResult(400))
	sess.insertLocked(cacheKey("ma", "i2", nil, 10), fakeResult(800))
	sess.insertLocked(cacheKey("mb", "i1", nil, 10), fakeResult(1200))
	sess.mu.Unlock()

	sess.Invalidate("ma")
	sess.mu.Lock()
	if len(sess.entries) != 1 {
		t.Fatalf("entries=%d want 1", len(sess.entries))
	}
	if _, ok := sess.entries[cacheKey("mb", "i1", nil, 10)]; !ok {
		t.Fatal("unrelated model's entry was invalidated")
	}
	if sess.used != 1200 {
		t.Fatalf("used=%d want 1200", sess.used)
	}
	if len(sess.order) != 1 || sess.order[0] != cacheKey("mb", "i1", nil, 10) {
		t.Fatalf("order=%v", sess.order)
	}
	sess.mu.Unlock()

	// Invalidating a model with no entries is a no-op.
	sess.Invalidate("mc")
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.used != 1200 || len(sess.entries) != 1 {
		t.Fatalf("no-op invalidate changed state: used=%d entries=%d", sess.used, len(sess.entries))
	}
}

// TestSessionStatsRace reads Stats while goroutines hammer Get — the
// satellite regression test for the formerly-exported Hits/Misses fields
// (run under -race in CI).
func TestSessionStatsRace(t *testing.T) {
	s := openSys(t, Config{})
	logDemo(t, s)
	sess := NewSession(s, 1<<20)

	stopRead := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stopRead:
				return
			default:
				sess.Stats()
				sess.Len()
			}
		}
	}()

	const workers, iters = 4, 25
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := sess.Get("demo", "model", nil, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stopRead)
	readers.Wait()

	hits, misses := sess.Stats()
	if hits+misses != workers*iters {
		t.Fatalf("hits+misses=%d want %d", hits+misses, workers*iters)
	}
	if misses < 1 {
		t.Fatalf("misses=%d want >=1", misses)
	}
}
