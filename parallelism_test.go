package mistique

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"mistique/internal/colstore"
	"mistique/internal/data"
	"mistique/internal/nn"
)

// pinProcs sets GOMAXPROCS — the bound of every fan-out — for one test and
// restores it afterwards. Tests that pin must not call t.Parallel.
func pinProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelismInvariance: GOMAXPROCS bounds every fan-out and is the
// only parallelism control, so it must never change a byte on disk or a
// bit of an answer. At 1 every group runs inline; at 4 flush, compaction,
// ingest and reads fan out.
func TestParallelismInvariance(t *testing.T) {
	procs := []int{1, 4}

	t.Run("flush-compact", func(t *testing.T) {
		var files []map[string][]byte
		for _, n := range procs {
			files = append(files, flushCompactFiles(t, n))
		}
		if len(files[0]) < 4 {
			t.Fatalf("only %d files written: the store never spread over partitions", len(files[0]))
		}
		for name, want := range files[0] {
			got, ok := files[1][name]
			switch {
			case !ok:
				t.Errorf("%s: written at GOMAXPROCS=%d, missing at %d", name, procs[0], procs[1])
			case !bytes.Equal(got, want):
				t.Errorf("%s differs between GOMAXPROCS=%d and %d", name, procs[0], procs[1])
			}
		}
		if len(files[1]) != len(files[0]) {
			t.Errorf("file sets differ: %d vs %d files", len(files[0]), len(files[1]))
		}
	})

	t.Run("answers", func(t *testing.T) {
		var answers []map[string][]byte
		for _, n := range procs {
			answers = append(answers, everyOpAnswers(t, n))
		}
		for name, want := range answers[0] {
			if !bytes.Equal(answers[1][name], want) {
				t.Errorf("%s answers differ between GOMAXPROCS=%d and %d", name, procs[0], procs[1])
			}
		}
	})
}

// flushCompactFiles puts the same columns of two models into a fresh store,
// then at GOMAXPROCS=procs flushes, drops one model and compacts (so every
// mixed partition is rewritten to a new generation). It returns every file
// left in the store directory; the manifest's entries, which it writes in
// map order, come back sorted.
func flushCompactFiles(t *testing.T, procs int) map[string][]byte {
	dir := t.TempDir()
	s, err := colstore.Open(dir, colstore.Config{RowBlockRows: 64, PartitionTargetBytes: 4 << 10, Mode: colstore.ModeArrival})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 40; c++ {
		for b := 0; b < 2; b++ {
			for mi, model := range []string{"a", "b"} {
				vals := make([]float32, 64)
				for r := range vals {
					vals[r] = float32(((c*2+b)*64+r)*(mi+1)) / 7
				}
				key := colstore.ColumnKey{Model: model, Intermediate: "x", Column: fmt.Sprintf("c%d", c), Block: b}
				if _, err := s.PutColumn(key, vals, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pinProcs(t, procs)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.DeleteModel("b")
	if dropped, _, err := s.Compact(); err != nil || dropped == 0 {
		t.Fatalf("compact dropped %d chunks, err %v", dropped, err)
	}

	files := map[string][]byte{}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.Name() == "MANIFEST.json.gz" {
			b = canonicalManifest(t, b)
		}
		files[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// canonicalManifest decodes a manifest and re-encodes it with every list
// sorted, so two manifests of the same logical state compare equal.
func canonicalManifest(t *testing.T, gz []byte) []byte {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	for k, v := range m {
		list, ok := v.([]any)
		if !ok {
			continue
		}
		keys := make([]string, len(list))
		for i, e := range list {
			b, _ := json.Marshal(e)
			keys[i] = string(b)
		}
		sort.Strings(keys)
		m[k] = keys
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// opResult is the part of an Answer that must not depend on parallelism:
// everything but measured seconds, cost estimates and the resolved plan.
type opResult struct {
	Strategy   string
	Data       []float32
	RowIDs     []int64
	Population int64
	Rows       []int
	TopK       []TopKEntry
	Neighbors  []Neighbor
	ColDist    *ColDist
	ApproxTopK *TopKApprox
	Confusion  *ConfusionMatrix
}

// everyOpAnswers logs the Zillow demo pipeline and a small CNN at
// GOMAXPROCS=procs and answers all nine ops against each, READ forced
// where the cost model could otherwise pick by measured timings. Answers
// are gob-encoded (bit-exact, NaN included) by model and op.
func everyOpAnswers(t *testing.T, procs int) map[string][]byte {
	pinProcs(t, procs)
	s := openSys(t, Config{Store: colstore.Config{RowBlockRows: 64, Mode: colstore.ModeArrival}})
	logDemo(t, s)
	net := nn.SimpleCNN("cnn", 4, 1)
	imgs, _ := data.Images(96, 4, 2)
	if _, err := s.LogDNN("cnn@e0", net, imgs, DNNLogOptions{Scheme: SchemeFull}); err != nil {
		t.Fatal(err)
	}

	out := map[string][]byte{}
	for _, qs := range []map[Op]Query{
		demoQueries("demo", "joined"),
		demoQueries("cnn@e0", "logits", "u0", "u1"),
	} {
		for op, q := range qs {
			if op == OpGet {
				q.Force = "READ"
			}
			a, err := s.Execute(context.Background(), q)
			if err != nil {
				t.Fatalf("%s %s: %v", q.Model, op, err)
			}
			r := opResult{
				Strategy: a.Strategy.String(), RowIDs: a.RowIDs, Population: a.Population, Rows: a.Rows,
				TopK: a.TopK, Neighbors: a.Neighbors, ColDist: a.ColDist, ApproxTopK: a.ApproxTopK, Confusion: a.Confusion,
			}
			if a.Data != nil {
				r.Data = a.Data.Data
			}
			if r.ColDist != nil {
				r.ColDist.FetchSeconds, r.ColDist.EstSampleSecs, r.ColDist.EstReadSecs = 0, 0, 0
			}
			if r.ApproxTopK != nil {
				r.ApproxTopK.FetchSeconds = 0
			}
			if r.Confusion != nil {
				r.Confusion.FetchSeconds = 0
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(r); err != nil {
				t.Fatal(err)
			}
			out[q.Model+" "+string(op)] = buf.Bytes()
		}
	}
	if len(out) != 18 {
		t.Fatalf("%d answers, want 9 ops x 2 models", len(out))
	}
	return out
}
