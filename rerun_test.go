package mistique

import (
	"math"
	"sync"
	"testing"

	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/data"
	"mistique/internal/nn"
	"mistique/internal/zillow"
)

// rerunTarget is one intermediate a test fetches by both strategies.
type rerunTarget struct{ model, interm string }

// fetchBoth returns the target's values by forced READ and forced RERUN.
func fetchBoth(t *testing.T, s *System, tg rerunTarget) (read, rerun []float32) {
	t.Helper()
	r, err := s.Fetch(tg.model, tg.interm, nil, 0, cost.Read)
	if err != nil {
		t.Fatalf("READ %s.%s: %v", tg.model, tg.interm, err)
	}
	rr, err := s.Fetch(tg.model, tg.interm, nil, 0, cost.Rerun)
	if err != nil {
		t.Fatalf("RERUN %s.%s: %v", tg.model, tg.interm, err)
	}
	if rr.Strategy != cost.Rerun {
		t.Fatalf("forced RERUN of %s.%s answered by %v", tg.model, tg.interm, rr.Strategy)
	}
	return r.Data.Data, rr.Data.Data
}

// bitDiffs counts the positions where a and b differ bit for bit.
func bitDiffs(a, b []float32) int {
	if len(a) != len(b) {
		return max(len(a), len(b))
	}
	n := 0
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			n++
		}
	}
	return n
}

// materialized lists every stored intermediate of a model.
func materialized(s *System, model string) []rerunTarget {
	var out []rerunTarget
	for _, it := range s.Metadata().Model(model).Intermediates {
		if it.Materialized {
			out = append(out, rerunTarget{model, it.Name})
		}
	}
	return out
}

// TestRerunRunsTheLoggedNetwork: training the caller's network after
// LogDNN does not change what RERUN computes for the logged version.
func TestRerunRunsTheLoggedNetwork(t *testing.T) {
	s, net := dnnSetup(t, SchemeFull, 64)
	tg := rerunTarget{"cnn@e0", "logits"}
	read, rerun := fetchBoth(t, s, tg)
	if n := bitDiffs(read, rerun); n != 0 || len(read) != 256 {
		t.Fatalf("before training: %d of %d values differ", n, len(read))
	}
	imgs, labels := data.Images(64, 4, 2)
	net.TrainEpochs(imgs, labels, 1, 16, 0.05, nil)
	read, rerun = fetchBoth(t, s, tg)
	if n := bitDiffs(read, rerun); n != 0 {
		t.Fatalf("after training the caller's network: RERUN differs from READ in %d of %d values", n, len(read))
	}
	raw, err := s.RerunRawDNN(tg.model, tg.interm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := bitDiffs(read, raw.Data); n != 0 {
		t.Fatalf("after training the caller's network: RerunRawDNN differs from READ in %d values", n)
	}
}

// TestRerunRunsTheLoggedPipeline: running the caller's pipeline on other
// tables after LogPipeline does not change what RERUN computes.
func TestRerunRunsTheLoggedPipeline(t *testing.T) {
	s := openSys(t, Config{})
	env := zillow.Env(200, 600, 1)
	pipes, err := zillow.Build(env)
	if err != nil {
		t.Fatal(err)
	}
	p := pipes[0]
	if _, err := s.LogPipeline(p, env); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(zillow.Env(200, 600, 2)); err != nil {
		t.Fatal(err)
	}
	for _, tg := range materialized(s, p.Name) {
		read, rerun := fetchBoth(t, s, tg)
		if n := bitDiffs(read, rerun); n != 0 {
			t.Errorf("%s.%s: RERUN differs from READ in %d of %d values", tg.model, tg.interm, n, len(read))
		}
	}
}

// TestConcurrentRerun: re-runs take no lock, so four goroutines re-run one
// network and one pipeline at once. Every answer is bit-identical to a
// serial RERUN and, everything being stored FULL, to READ.
func TestConcurrentRerun(t *testing.T) {
	s := openSys(t, Config{Store: colstore.Config{RowBlockRows: 64}})
	imgs, _ := data.Images(16, 4, 2)
	if _, err := s.LogDNN("cnn@e0", nn.SimpleCNN("cnn", 4, 1), imgs, DNNLogOptions{Scheme: SchemeFull, Layers: []int{4, 13}}); err != nil {
		t.Fatal(err)
	}
	env := zillow.Env(100, 300, 1)
	pipes, err := zillow.Build(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LogPipeline(pipes[0], env); err != nil {
		t.Fatal(err)
	}
	targets := append(materialized(s, "cnn@e0"), materialized(s, pipes[0].Name)...)
	if len(targets) < 4 {
		t.Fatalf("only %d intermediates to re-run", len(targets))
	}
	want := make([][]float32, len(targets))
	for i, tg := range targets {
		read, rerun := fetchBoth(t, s, tg)
		if n := bitDiffs(read, rerun); n != 0 {
			t.Fatalf("%s.%s: serial RERUN differs from READ in %d values", tg.model, tg.interm, n)
		}
		want[i] = rerun
	}

	const goroutines, rounds = 4, 2
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range targets {
					i := (k + g) % len(targets) // stagger, so different intermediates overlap
					tg := targets[i]
					res, err := s.Fetch(tg.model, tg.interm, nil, 0, cost.Rerun)
					if err != nil {
						t.Errorf("goroutine %d: RERUN %s.%s: %v", g, tg.model, tg.interm, err)
						return
					}
					if n := bitDiffs(res.Data.Data, want[i]); n != 0 {
						t.Errorf("goroutine %d: RERUN %s.%s differs from the serial answer in %d values", g, tg.model, tg.interm, n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
