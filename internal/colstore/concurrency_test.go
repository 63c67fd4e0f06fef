package colstore

import (
	"fmt"
	"sync"
	"testing"
)

// The store-level half of the concurrency suite (the engine-level half is
// mistique's TestConcurrentEngine): hammer one Store from many goroutines
// mixing puts, reads, flushes, compactions and model deletes, under a
// memory budget small enough that eviction and cold page-ins race the
// writers too. Run with -race.

// stressVal is the deterministic value generator: every (goroutine, iter,
// row) triple maps to a distinct value so chunks never dedup by accident
// and read-back mismatches are attributable.
func stressVal(g, i, r int) float32 {
	return float32(g*100000+i*1000+r) / 16
}

func stressCol(g, i, n int) []float32 {
	out := make([]float32, n)
	for r := range out {
		out[r] = stressVal(g, i, r)
	}
	return out
}

func TestConcurrentStore(t *testing.T) {
	const (
		writers = 4
		iters   = 24
		rows    = 64
	)
	pinProcs(t, 4)
	s := openTest(t, Config{
		RowBlockRows: rows,
		// Tiny pool and partitions: force seals, evictions and page-ins
		// while puts, flushes and compactions are in flight.
		MemBudgetBytes:       16 << 10,
		PartitionTargetBytes: 4 << 10,
		Mode:                 ModeSimilarity,
	})

	var wg sync.WaitGroup
	// Writers: put a distinct column, then immediately read it back.
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := key(fmt.Sprintf("m%d", g), "x", fmt.Sprintf("c%d", i), 0)
				vals := stressCol(g, i, rows)
				if _, err := s.PutColumn(k, vals, nil); err != nil {
					t.Errorf("put %s: %v", k, err)
					return
				}
				got, err := s.GetColumn(k)
				if err != nil {
					t.Errorf("get %s: %v", k, err)
					return
				}
				for r := range vals {
					if got[r] != vals[r] {
						t.Errorf("%s row %d: got %v want %v", k, r, got[r], vals[r])
						return
					}
				}
			}
		}(g)
	}
	// Re-readers: walk everything already written by writer 0.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters*2; i++ {
			k := key("m0", "x", fmt.Sprintf("c%d", i%iters), 0)
			got, err := s.GetColumn(k)
			if err != nil {
				continue // not written yet
			}
			want := stressCol(0, i%iters, rows)
			for r := range want {
				if got[r] != want[r] {
					t.Errorf("reread %s row %d: got %v want %v", k, r, got[r], want[r])
					return
				}
			}
		}
	}()
	// Dedup prober: presents the same payload under many keys; the
	// check-and-insert must stay atomic so exactly one copy is stored.
	wg.Add(1)
	go func() {
		defer wg.Done()
		shared := stressCol(99, 0, rows)
		for i := 0; i < iters; i++ {
			k := key("dedup", "x", fmt.Sprintf("c%d", i), 0)
			if _, err := s.PutColumn(k, shared, nil); err != nil {
				t.Errorf("dedup put: %v", err)
				return
			}
		}
	}()
	// Flusher and compactor: walk every partition while writers append.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			if err := s.Flush(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
		}
	}()
	// Deleter: churn a scratch model and reclaim its space.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			k := key("scratch", "x", fmt.Sprintf("c%d", i), 0)
			if _, err := s.PutColumn(k, stressCol(50, i, rows), nil); err != nil {
				t.Errorf("scratch put: %v", err)
				return
			}
			s.DeleteModel("scratch")
			if _, _, err := s.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Everything the writers stored must still read back exactly, the
	// dedup probe must have stored one physical chunk, and the store must
	// pass its own fsck.
	for g := 0; g < writers; g++ {
		for i := 0; i < iters; i++ {
			k := key(fmt.Sprintf("m%d", g), "x", fmt.Sprintf("c%d", i), 0)
			got, err := s.GetColumn(k)
			if err != nil {
				t.Fatalf("final get %s: %v", k, err)
			}
			for r := range got {
				if got[r] != stressVal(g, i, r) {
					t.Fatalf("final %s row %d: got %v want %v", k, r, got[r], stressVal(g, i, r))
				}
			}
		}
	}
	ids := make(map[ChunkID]bool)
	for i := 0; i < iters; i++ {
		id, ok := s.Lookup(key("dedup", "x", fmt.Sprintf("c%d", i), 0))
		if !ok {
			t.Fatalf("dedup key %d missing", i)
		}
		ids[id] = true
	}
	if len(ids) != 1 {
		t.Fatalf("dedup stored %d physical chunks, want 1", len(ids))
	}
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) > 0 {
		t.Fatalf("verify: %v", rep.Problems)
	}
}

// TestConcurrentFlushCompact has Flush, Compact and DropCache contend for
// the same partitions while a writer keeps dirtying them: the flushMu
// serialization plus snapshot writes must never lose data.
func TestConcurrentFlushCompact(t *testing.T) {
	const rows = 64
	pinProcs(t, 4)
	s := openTest(t, Config{
		RowBlockRows:         rows,
		PartitionTargetBytes: 2 << 10,
		Mode:                 ModeArrival,
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := key("m", "x", fmt.Sprintf("c%d", i), 0)
			if _, err := s.PutColumn(k, stressCol(7, i, rows), nil); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			if i%8 == 7 {
				s.DeleteModel("nothing") // no-op delete in the mix
			}
		}
	}()
	for i := 0; i < 6; i++ {
		if err := s.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if _, _, err := s.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if err := s.DropCache(); err != nil {
			t.Fatalf("drop cache: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) > 0 {
		t.Fatalf("verify: %v", rep.Problems)
	}
}

// TestCompactRemapNeverMisroutesReads has one writer re-put 8 one-block
// columns (reversing their order every other round, so each Compact moves
// every live chunk to a different index) and compact after every round,
// while readers read the columns back by key. A read that resolved its key
// to a chunk id and then read by that id after the lock was released would
// get another column's values, or an out-of-range chunk, here.
func TestCompactRemapNeverMisroutesReads(t *testing.T) {
	const (
		cols   = 8
		rows   = 16
		rounds = 200
	)
	pinProcs(t, 4)
	s := openTest(t, Config{RowBlockRows: rows, Mode: ModeArrival})
	colName := func(c int) string { return fmt.Sprintf("c%d", c) }
	// Every value names its column: v/rows%cols == c.
	colVals := func(c, round int) []float32 {
		out := make([]float32, rows)
		for i := range out {
			out[i] = float32((round*cols+c)*rows + i)
		}
		return out
	}
	put := func(round int) {
		for j := 0; j < cols; j++ {
			c := j
			if round%2 == 1 {
				c = cols - 1 - j
			}
			if _, err := s.PutColumnReplace(key("m", "x", colName(c), 0), colVals(c, round), nil); err != nil {
				t.Errorf("put: %v", err)
			}
		}
	}
	put(0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var reads, wrong int
	var mu sync.Mutex
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := (r + i) % cols
				got, err := s.GetColumnRange("m", "x", colName(c), 0, rows)
				mu.Lock()
				reads++
				if err != nil || int(got[0])/rows%cols != c {
					wrong++
					if wrong == 1 {
						t.Errorf("read of %s: err %v, values %v", colName(c), err, got)
					}
				}
				mu.Unlock()
			}
		}(r)
	}
	for round := 1; round <= rounds; round++ {
		put(round)
		if _, _, err := s.Compact(); err != nil {
			t.Errorf("compact: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if wrong > 0 {
		t.Fatalf("%d of %d reads returned another column or failed", wrong, reads)
	}
}
