package mistique

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/sample"
)

// tieVal is a stream cell with heavy ties, NaNs and −0s, so the sampled
// rank order leans on its tie-breaks.
func tieVal(row int64, col int) float32 {
	switch {
	case row%17 == 3:
		return float32(math.NaN())
	case row%31 == 5:
		return float32(math.Copysign(0, -1))
	}
	return float32((row*7919+int64(col)*13)%53) - 26
}

func tieBatch(start int64, n, cols int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, cols)
		for j := range rows[i] {
			rows[i][j] = tieVal(start+int64(i), j)
		}
	}
	return rows
}

// refSampled is a plain comparator sort of a sample column's finite
// values: ascending value (−0 == +0), ties by ascending row id.
func refSampled(sm *sample.Sample, col int) []sample.RowValue {
	var out []sample.RowValue
	for r := 0; r < sm.Rows(); r++ {
		if v := sm.Value(r, col); v == v && !math.IsInf(float64(v), 0) {
			out = append(out, sample.RowValue{Row: sm.RowIDs[r], Value: v})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Value != out[b].Value {
			return out[a].Value < out[b].Value
		}
		return out[a].Row < out[b].Row
	})
	return out
}

// TestStreamSampleAnswersWholeBatches runs sampled TOPK and COL_DIST on a
// stream while one writer ingests into it. Every answer covers a whole
// number of batches and no reader ever sees the row count go back; once
// the writer stops, the answers equal a comparator sort of the sampler's
// snapshot.
func TestStreamSampleAnswersWholeBatches(t *testing.T) {
	const (
		batch   = 64
		batches = 120
	)
	s := openSys(t, Config{Store: colstore.Config{RowBlockRows: 256}})
	defer s.Close()
	s.sampleCap = 512
	cols := []string{"a", "b", "c"}
	ctx := context.Background()
	if _, err := s.IngestRows("live", "acts", cols, tieBatch(0, batch, len(cols))); err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for b := int64(1); b < batches; b++ {
			if _, err := s.IngestRows("live", "acts", cols, tieBatch(b*batch, batch, len(cols))); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()
	check := func(who string, rows int64, strategy cost.Strategy, last *int64) bool {
		if strategy != cost.Sample || rows%batch != 0 || rows < *last {
			t.Errorf("%s: strategy %s, rows %d after %d (batches of %d)", who, strategy, rows, *last, batch)
			return false
		}
		*last = rows
		return true
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastTop, lastDist int64
			for i := 0; !done.Load(); i++ {
				col := cols[(r+i)%len(cols)]
				top, err := s.ApproxTopKCtx(ctx, "live", "acts", col, 7, 0)
				if err != nil || !check("topk", top.Rows, top.Strategy, &lastTop) {
					t.Errorf("topk: %v", err)
					return
				}
				d, err := s.ColDistCtx(ctx, "live", "acts", col, 0)
				if err != nil || !check("coldist", d.Rows, d.Strategy, &lastDist) {
					t.Errorf("coldist: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	snap := s.streamFor("live", "acts").sampler.Snapshot()
	if snap.Seen != batches*batch {
		t.Fatalf("sampler saw %d rows, want %d", snap.Seen, batches*batch)
	}
	for j, col := range cols {
		want := refSampled(snap, j)
		top, err := s.ApproxTopKCtx(ctx, "live", "acts", col, 25, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Value-descending, row-ascending among equal values.
		var wantTop []sample.RowValue
		for i := len(want); i > 0 && len(wantTop) < 25; {
			k := i
			for k > 0 && want[k-1].Value == want[i-1].Value {
				k--
			}
			wantTop = append(wantTop, want[k:min(i, k+25-len(wantTop))]...)
			i = k
		}
		if len(top.Entries) != len(wantTop) {
			t.Fatalf("%s: %d top entries, want %d", col, len(top.Entries), len(wantTop))
		}
		for i, e := range top.Entries {
			if e.Row != wantTop[i].Row || math.Float32bits(e.Value) != math.Float32bits(wantTop[i].Value) {
				t.Fatalf("%s top %d: %+v, want %+v", col, i, e, wantTop[i])
			}
		}
		d, err := s.ColDistCtx(ctx, "live", "acts", col, 0)
		if err != nil {
			t.Fatal(err)
		}
		p50 := want[int(0.5*float64(len(want)-1))].Value
		mean := snap.MeanEstimate(j)
		if math.Float32bits(d.P50) != math.Float32bits(p50) || d.Mean != mean.Value || d.MeanBound != mean.Bound || d.SampleRows != int64(snap.Rows()) {
			t.Fatalf("%s coldist: p50 %v mean %v±%v k %d, want %v, %v±%v, %d", col, d.P50, d.Mean, d.MeanBound, d.SampleRows, p50, mean.Value, mean.Bound, snap.Rows())
		}
	}
}

// TestReopenedStreamHoldsOneReservoir reopens a directory with a drained
// 32-column stream whose reservoir is full: the stream's sampler is the
// only copy of it in memory — the sample manager keeps none resident,
// neither from the open nor from a later checkpoint.
func TestReopenedStreamHoldsOneReservoir(t *testing.T) {
	const nCols, batch = 32, 1024
	cols := make([]string, nCols)
	for j := range cols {
		cols[j] = string(rune('a'+j%26)) + string(rune('0'+j/26))
	}
	dir := t.TempDir()
	cfg := Config{Store: colstore.Config{RowBlockRows: batch}}
	rows := int64(sample.DefaultCap + batch)
	func() {
		s, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for off := int64(0); off < rows; off += batch {
			if _, err := s.IngestRows("live", "acts", cols, tieBatch(off, batch, nCols)); err != nil {
				t.Fatal(err)
			}
		}
	}()

	// Two collections: the first can only move pooled buffers to the
	// victim cache.
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	grew := func(when string) {
		t.Helper()
		reservoir := int64(sample.DefaultCap) * (4*nCols + 8)
		grew := heap() - before
		t.Logf("%s: heap +%d bytes, reservoir %d bytes", when, grew, reservoir)
		if grew > reservoir*3/2 {
			t.Fatalf("%s: the heap grew by %d bytes; one %d-byte reservoir should be most of it", when, grew, reservoir)
		}
	}
	grew("after reopen")
	if d, err := s.ColDist("live", "acts", cols[0], 0); err != nil || d.Strategy != cost.Sample || d.Rows != rows {
		t.Fatalf("coldist after reopen: %+v, %v", d, err)
	}
	if _, err := s.IngestRows("live", "acts", cols, tieBatch(rows, batch, nCols)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	grew("after a checkpoint")
	if sm, _ := s.samples.Read("live", "acts"); sm == nil || sm.Seen != rows+batch {
		t.Fatal("the checkpoint did not publish the sample")
	}
}
