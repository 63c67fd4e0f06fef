package zillow

import (
	"strings"
	"testing"
)

func TestFiftyPipelines(t *testing.T) {
	names, byName := YAMLs()
	if len(names) != 50 || len(byName) != 50 {
		t.Fatalf("got %d pipelines, want 50", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate pipeline name %s", n)
		}
		seen[n] = true
		if byName[n] == "" {
			t.Fatalf("empty yaml for %s", n)
		}
	}
}

func TestSpecsParse(t *testing.T) {
	specs, err := Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 50 {
		t.Fatalf("%d specs", len(specs))
	}
	// Stage counts per template are in the paper's 9-19 range.
	for _, s := range specs {
		if len(s.Stages) < 9 || len(s.Stages) > 19 {
			t.Errorf("pipeline %s has %d stages, outside 9-19", s.Name, len(s.Stages))
		}
	}
}

func TestVariantsDiffer(t *testing.T) {
	_, byName := YAMLs()
	if byName["p1_v0"] == byName["p1_v1"] {
		t.Fatal("variants of the same template are identical")
	}
	if !strings.Contains(byName["p5_v0"], "blend") {
		t.Fatal("p5 lacks the ensemble blend stage")
	}
	if !strings.Contains(byName["p9_v0"], "neighborhood") {
		t.Fatal("p9 lacks the neighborhood stage")
	}
	if !strings.Contains(byName["p10_v0"], "is_residential") {
		t.Fatal("p10 lacks the is_residential stage")
	}
}

func TestBuildAndRunSubset(t *testing.T) {
	env := Env(200, 600, 1)
	pipes, err := Build(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(pipes) != 50 {
		t.Fatalf("%d pipelines", len(pipes))
	}
	// Run one variant per template end-to-end.
	for i := 0; i < 50; i += 5 {
		res, err := pipes[i].Run(env)
		if err != nil {
			t.Fatalf("pipeline %s: %v", pipes[i].Name, err)
		}
		pred := res.Intermediate("pred_holdout")
		if pred == nil || !pred.Has("pred") {
			t.Fatalf("pipeline %s produced no holdout predictions", pipes[i].Name)
		}
		if pred.NumRows() == 0 {
			t.Fatalf("pipeline %s predictions empty", pipes[i].Name)
		}
	}
}

func TestSharedPrefixAcrossPipelines(t *testing.T) {
	// The dedup story: early intermediates are identical across pipelines.
	env := Env(150, 400, 2)
	pipes, err := Build(env)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := pipes[0].Run(env) // p1_v0
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pipes[1].Run(env) // p1_v1
	if err != nil {
		t.Fatal(err)
	}
	a := r1.Intermediate("joined")
	b := r2.Intermediate("joined")
	if a.NumRows() != b.NumRows() {
		t.Fatal("joined shapes differ across variants")
	}
	ac, _ := a.Col("finishedsquarefeet").AsFloats()
	bc, _ := b.Col("finishedsquarefeet").AsFloats()
	for i := range ac {
		if ac[i] != bc[i] {
			t.Fatal("shared prefix intermediates differ — dedup would never fire")
		}
	}
	// But their predictions differ (different hyperparameters).
	ap := r1.Intermediate("pred_holdout").Col("pred").F
	bp := r2.Intermediate("pred_holdout").Col("pred").F
	same := true
	for i := range ap {
		if ap[i] != bp[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("hyperparameter variants produced identical predictions")
	}
}
