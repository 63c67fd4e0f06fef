package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload and its traced run at toy scale for about
// a second and checks the contract between the harness and
// BENCHMARK.json: every metric named there is printed exactly once, with
// its unit and a finite value, nothing else is printed in the result
// line, and no operation fails. A later change to the program's API that
// breaks the harness fails here. It is safe under -short.
func TestSmoke(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(setups) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(setups))
	}
	for _, w := range bf.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer} {
			w, trace, want := w.Name, trace, want
			name := w
			if trace == 1 {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(context.Background(), options{root: root, workload: w, seed: 3, seconds: 1, trace: trace, toy: true}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := report(&out, res); err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var last struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", last.Correct, last.Attempted, last.Failed, out.String())
				}
				seen := make(map[string]int)
				for _, m := range res.metrics {
					seen[m.name]++
				}
				for _, m := range want {
					got, ok := last.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s of BENCHMARK.json is not reported", m.Name)
					case seen[m.Name] != 1:
						t.Errorf("metric %s is reported %d times", m.Name, seen[m.Name])
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s is not finite", m.Name)
					}
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(last.Metrics), len(want))
				}
			})
		}
	}
}
