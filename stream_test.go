package mistique

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/faultfs"
	"mistique/internal/metadata"
)

// streamVal is the deterministic cell value used throughout the streaming
// tests: a pure function of (row, col) so exact reads can be verified
// without keeping the ingested batches around.
func streamVal(row int64, col int) float32 {
	return float32(row%977) + float32(col)*0.25
}

// ingestStream pushes rows [start, start+n) of streamVal data in batches.
func ingestStream(t *testing.T, s *System, model, interm string, cols []string, start, n int64, batch int) *IngestResult {
	t.Helper()
	var last *IngestResult
	for off := int64(0); off < n; {
		b := int64(batch)
		if off+b > n {
			b = n - off
		}
		rows := make([][]float32, b)
		for i := range rows {
			row := make([]float32, len(cols))
			for j := range cols {
				row[j] = streamVal(start+off+int64(i), j)
			}
			rows[i] = row
		}
		res, err := s.IngestRows(model, interm, cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		last = res
		off += b
	}
	return last
}

// checkStreamRead reads the stream exactly and verifies every cell.
func checkStreamRead(t *testing.T, s *System, model, interm string, cols []string, wantRows int64) {
	t.Helper()
	res, err := s.GetIntermediate(model, interm, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != cost.Read {
		t.Fatalf("stream read strategy = %v, want READ", res.Strategy)
	}
	if int64(res.Data.Rows) != wantRows {
		t.Fatalf("read %d rows, want %d", res.Data.Rows, wantRows)
	}
	if len(res.Cols) != len(cols) {
		t.Fatalf("read cols %v, want %v", res.Cols, cols)
	}
	for i := 0; i < res.Data.Rows; i++ {
		for j := range cols {
			if got, want := res.Data.At(i, j), streamVal(int64(i), j); got != want {
				t.Fatalf("row %d col %d = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestStreamIngestAndExactRead(t *testing.T) {
	s := openSys(t, Config{Store: colstore.Config{RowBlockRows: 64}})
	cols := []string{"a", "b", "c"}

	res := ingestStream(t, s, "live", "acts", cols, 0, 300, 7)
	if res.Rows != 300 {
		t.Fatalf("acked rows = %d, want 300", res.Rows)
	}
	// 4 full 64-row blocks cut at ingest; 44 rows still pending.
	if res.FlushedRows != 256 {
		t.Fatalf("flushed rows = %d, want 256", res.FlushedRows)
	}
	if res.WALBytes <= 0 {
		t.Fatalf("wal bytes = %d", res.WALBytes)
	}

	m := s.Metadata().Model("live")
	if m == nil || m.Kind != metadata.Stream {
		t.Fatalf("model = %+v, want stream kind", m)
	}
	it := s.Metadata().Intermediate("live", "acts")
	if it == nil || it.StageIndex != -1 || it.Rows != 256 {
		t.Fatalf("intermediate = %+v", it)
	}

	// Exact queries see the cut blocks before any Flush.
	checkStreamRead(t, s, "live", "acts", cols, 256)

	// Flush drains the open tail; everything acked becomes readable.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	checkStreamRead(t, s, "live", "acts", cols, 300)

	// The stream keeps accepting rows after a flush (the drained tail is
	// re-put when its block refills).
	ingestStream(t, s, "live", "acts", cols, 300, 100, 13)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	checkStreamRead(t, s, "live", "acts", cols, 400)

	// Streams have no stages to re-run: a forced RERUN must refuse.
	if _, err := s.Fetch("live", "acts", nil, 0, cost.Rerun); err == nil {
		t.Fatal("forced RERUN on a stream succeeded")
	}

	snap := s.Metrics()
	if snap.Counters["mistique_stream_rows_total"] != 400 {
		t.Fatalf("stream rows counter = %v", snap.Counters["mistique_stream_rows_total"])
	}
	if snap.Counters["mistique_wal_rewrites_total"] < 2 {
		t.Fatalf("wal rewrites counter = %v", snap.Counters["mistique_wal_rewrites_total"])
	}
	if snap.Gauges["mistique_streams"] != 1 {
		t.Fatalf("streams gauge = %v", snap.Gauges["mistique_streams"])
	}
}

func TestStreamReplayOnReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Store: colstore.Config{RowBlockRows: 64}}
	s1, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.sampleCap = 128
	cols := []string{"x", "y"}
	ingestStream(t, s1, "live", "acts", cols, 0, 300, 7)
	// No Flush: the cut blocks live only in s1's dirty partitions and the
	// catalog only in memory. Abandoning s1 here models a crash after the
	// last acknowledged batch — the WAL alone must reconstruct the stream.

	s2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := s2.Metrics()
	if snap.Counters["mistique_wal_replays_total"] != 1 {
		t.Fatalf("wal replays = %v", snap.Counters["mistique_wal_replays_total"])
	}
	if got := snap.Counters["mistique_wal_replayed_records_total"]; got != int64((300+6)/7) {
		t.Fatalf("replayed records = %v, want %d", got, (300+6)/7)
	}

	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	checkStreamRead(t, s2, "live", "acts", cols, 300)

	// The sampler replayed every acked row exactly once.
	d, err := s2.ColDist("live", "acts", "x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows != 300 || d.Strategy != cost.Sample {
		t.Fatalf("replayed sample: rows %d strategy %v", d.Rows, d.Strategy)
	}

	// The stream continues where it left off.
	ingestStream(t, s2, "live", "acts", cols, 300, 50, 9)
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	checkStreamRead(t, s2, "live", "acts", cols, 350)
}

// TestStreamCrashMidAppendKeepsAckedRows is the acceptance crash test: a
// torn WAL append must fail the in-flight batch without acknowledging it,
// and every previously acknowledged batch must survive the reboot.
func TestStreamCrashMidAppendKeepsAckedRows(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	cfg := Config{Store: colstore.Config{RowBlockRows: 64, FS: inj}}
	s1, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"v"}
	ingestStream(t, s1, "live", "acts", cols, 0, 100, 10)

	// Tear the next WAL append after 8 bytes and play dead.
	inj.Arm(faultfs.Fault{Op: faultfs.OpWrite, PathContains: ".wal", AfterBytes: 8, Crash: true})
	if _, err := s1.IngestRows("live", "acts", cols, [][]float32{{1}}); err == nil {
		t.Fatal("ingest during crash was acknowledged")
	}

	// Reboot on a healthy filesystem.
	s2, err := Open(dir, Config{Store: colstore.Config{RowBlockRows: 64}})
	if err != nil {
		t.Fatal(err)
	}
	snap := s2.Metrics()
	if snap.Counters["mistique_wal_truncated_tails_total"] < 1 {
		t.Fatalf("truncated tails = %v, want >= 1", snap.Counters["mistique_wal_truncated_tails_total"])
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	// Exactly the 100 acked rows — the torn batch is gone, nothing else.
	checkStreamRead(t, s2, "live", "acts", cols, 100)
}

func TestStreamColumnAndKindConflicts(t *testing.T) {
	s := openSys(t, Config{Store: colstore.Config{RowBlockRows: 64}})
	if _, err := s.IngestRows("live", "acts", []string{"a", "b"}, [][]float32{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestRows("live", "acts", []string{"a", "c"}, [][]float32{{1, 2}}); err == nil {
		t.Fatal("column mismatch accepted")
	}
	if _, err := s.IngestRows("live", "acts", []string{"a"}, [][]float32{{1}}); err == nil {
		t.Fatal("column count mismatch accepted")
	}
	if _, err := s.IngestRows("live", "acts", []string{"a", "b"}, [][]float32{{1}}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := s.IngestRows("live", "acts", []string{"a", "b"}, nil); err == nil {
		t.Fatal("empty batch accepted")
	}

	// A logged pipeline model cannot double as a stream.
	logDemo(t, s)
	if _, err := s.IngestRows("demo", "acts", []string{"a"}, [][]float32{{1}}); err == nil {
		t.Fatal("ingest into a pipeline model accepted")
	}
}

// TestStreamConcurrentStress is the -race acceptance scenario: several
// streaming writers, approximate and exact readers, and a flush/compact
// loop all share one System. Nothing may be lost and no bound may lie.
func TestStreamConcurrentStress(t *testing.T) {
	const (
		nStreams = 4
		rowsPer  = 1500
		batch    = 21
	)
	s := openSys(t, Config{Store: colstore.Config{RowBlockRows: 128}})
	s.sampleCap = 256
	cols := []string{"v", "w"}

	// prefixMean[n] is the exact mean of streamVal(row, 0) over rows [0,n).
	prefixMean := make([]float64, rowsPer+1)
	var sum float64
	for n := 1; n <= rowsPer; n++ {
		sum += float64(streamVal(int64(n-1), 0))
		prefixMean[n] = sum / float64(n)
	}

	var wg sync.WaitGroup
	var writersLive atomic.Int64
	writersLive.Store(nStreams)
	for w := 0; w < nStreams; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writersLive.Add(-1)
			interm := fmt.Sprintf("s%d", w)
			for off := int64(0); off < rowsPer; {
				b := int64(batch)
				if off+b > rowsPer {
					b = rowsPer - off
				}
				rows := make([][]float32, b)
				for i := range rows {
					row := int64(off) + int64(i)
					rows[i] = []float32{streamVal(row, 0), streamVal(row, 1)}
				}
				if _, err := s.IngestRows("live", interm, cols, rows); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				off += b
			}
		}(w)
	}

	// Approximate readers: every answered estimate must honor its bound
	// against the exact prefix mean of however many rows it saw.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; writersLive.Load() > 0; i++ {
				interm := fmt.Sprintf("s%d", (r+i)%nStreams)
				d, err := s.ColDist("live", interm, "v", 0)
				if err != nil {
					// The stream (or its first block) may not exist yet:
					// keep polling, like the exact readers below.
					if errors.Is(err, ErrNotMaterialized) || errors.Is(err, ErrUnknownIntermediate) || errors.Is(err, ErrUnknownModel) {
						continue
					}
					t.Errorf("approx reader: %v", err)
					return
				}
				if d.Strategy != cost.Sample {
					continue
				}
				if d.Rows < 1 || d.Rows > rowsPer {
					t.Errorf("approx reader: rows %d out of range", d.Rows)
					return
				}
				exact := prefixMean[d.Rows]
				if diff := d.Mean - exact; diff > d.MeanBound+1e-6 || -diff > d.MeanBound+1e-6 {
					t.Errorf("bound violated: n=%d mean=%v exact=%v bound=%v", d.Rows, d.Mean, exact, d.MeanBound)
					return
				}
			}
		}(r)
	}

	// Exact readers: whatever row count the catalog admits must read back
	// bit-exact.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; writersLive.Load() > 0; i++ {
				interm := fmt.Sprintf("s%d", (r+2*i)%nStreams)
				res, err := s.GetIntermediate("live", interm, []string{"v"}, 0)
				if err != nil {
					// Not materialized (no block cut yet) or not created
					// yet: keep polling.
					if errors.Is(err, ErrNotMaterialized) || errors.Is(err, ErrUnknownIntermediate) || errors.Is(err, ErrUnknownModel) {
						continue
					}
					t.Errorf("exact reader: %v", err)
					return
				}
				for i := 0; i < res.Data.Rows; i++ {
					if got, want := res.Data.At(i, 0), streamVal(int64(i), 0); got != want {
						t.Errorf("exact reader: row %d = %v, want %v", i, got, want)
						return
					}
				}
			}
		}(r)
	}

	// Flush/compact churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for writersLive.Load() > 0 {
			if err := s.Flush(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			if _, err := s.CompactStore(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < nStreams; w++ {
		checkStreamRead(t, s, "live", fmt.Sprintf("s%d", w), cols, rowsPer)
	}
	if got := s.Metrics().Counters["mistique_stream_rows_total"]; got != nStreams*rowsPer {
		t.Fatalf("acked rows counter = %v, want %d", got, nStreams*rowsPer)
	}
}

// TestStreamDropModel removes the WAL, the sample, and the stream state.
func TestStreamDropModel(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{Store: colstore.Config{RowBlockRows: 64}})
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"v"}
	ingestStream(t, s, "live", "acts", cols, 0, 200, 11)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.DropModel("live"); err != nil {
		t.Fatal(err)
	}
	if m := s.Metadata().Model("live"); m != nil {
		t.Fatalf("model survived drop: %+v", m)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "data", "wal"))
	if err == nil {
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".wal") {
				t.Fatalf("wal file survived drop: %s", e.Name())
			}
		}
	}
	// The name is free for a fresh stream afterwards.
	ingestStream(t, s, "live", "acts", cols, 0, 64, 16)
	checkStreamRead(t, s, "live", "acts", cols, 64)
}
