package cost

import (
	"math"
	"testing"

	"mistique/internal/metadata"
)

func model() *metadata.Model {
	return &metadata.Model{
		Name:          "vgg",
		Kind:          metadata.DNN,
		TotalExamples: 1000,
		ModelLoadSecs: 1.2,
		Stages: []metadata.Stage{
			{Name: "l0", Index: 0, ExecSeconds: 2.0},
			{Name: "l1", Index: 1, ExecSeconds: 4.0},
			{Name: "l2", Index: 2, ExecSeconds: 6.0},
		},
	}
}

func TestRerunSecondsAccumulatesStages(t *testing.T) {
	p := Params{InputBytesPerSec: 1e9, InputBytesPerExample: 1000}
	// Full dataset to last layer: 1.2 load + 1e-3 input + 12 exec.
	got, err := RerunSeconds(model(), 2, 1000, p)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.2 + 1000*1000/1e9 + 12.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("got %g want %g", got, want)
	}
	// Earlier layer costs less.
	l0, _ := RerunSeconds(model(), 0, 1000, p)
	if l0 >= got {
		t.Fatal("earlier stage should be cheaper")
	}
}

func TestRerunSecondsScalesLinearlyInExamples(t *testing.T) {
	p := Params{InputBytesPerSec: 1e9, InputBytesPerExample: 0}
	half, _ := RerunSeconds(model(), 2, 500, p)
	full, _ := RerunSeconds(model(), 2, 1000, p)
	// Subtract the fixed model-load cost; the rest should double.
	if math.Abs((full-1.2)-2*(half-1.2)) > 1e-9 {
		t.Fatalf("not linear: half=%g full=%g", half, full)
	}
}

func TestRerunSecondsErrors(t *testing.T) {
	p := DefaultParams()
	if _, err := RerunSeconds(model(), 3, 10, p); err == nil {
		t.Fatal("out-of-range stage accepted")
	}
	if _, err := RerunSeconds(model(), -1, 10, p); err == nil {
		t.Fatal("negative stage accepted")
	}
	m := model()
	m.TotalExamples = 0
	if _, err := RerunSeconds(m, 0, 10, p); err == nil {
		t.Fatal("zero TotalExamples accepted")
	}
}

func TestReadSeconds(t *testing.T) {
	p := Params{ReadBytesPerSec: 100e6}
	got := ReadSeconds(1000, 50000, p)
	want := 50000.0 * 1000.0 / 100e6
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %g want %g", got, want)
	}
	if ReadSeconds(1000, 10, Params{}) != 0 {
		t.Fatal("zero rate should yield 0")
	}
}

func TestChoose(t *testing.T) {
	if Choose(10, 1) != Read {
		t.Fatal("should read when re-run is slower")
	}
	if Choose(1, 10) != Rerun {
		t.Fatal("should re-run when reading is slower")
	}
	// Tie goes to Read (paper: t_rerun >= t_read reads).
	if Choose(5, 5) != Read {
		t.Fatal("tie should read")
	}
	if Read.String() != "READ" || Rerun.String() != "RERUN" {
		t.Fatal("strings")
	}
}

func TestGamma(t *testing.T) {
	// Saving 10s per query, 5 queries, 1e6 bytes: gamma = 50/1e6 s/B.
	got := Gamma(11, 1, 5, 1_000_000)
	if math.Abs(got-5e-5) > 1e-15 {
		t.Fatalf("gamma %g", got)
	}
	if Gamma(1, 2, 5, 100) != 0 {
		t.Fatal("negative saving should clamp to 0")
	}
	if Gamma(2, 1, 5, 0) != 0 {
		t.Fatal("zero storage should clamp to 0")
	}
	// Gamma grows with query count (the adaptive trigger).
	if Gamma(2, 1, 10, 100) <= Gamma(2, 1, 1, 100) {
		t.Fatal("gamma must grow with queries")
	}
}

// TestCostEdgeCases pins the model's behavior at the degenerate corners a
// serving layer can reach with legal requests: zero examples, zero
// widths, zero rates and exact ties.
func TestCostEdgeCases(t *testing.T) {
	t.Run("rerun", func(t *testing.T) {
		cases := []struct {
			name string
			upTo int
			nEx  int
			p    Params
			want float64
		}{
			// nEx=0 leaves only the fixed model-load cost: no input
			// bytes, no scaled stage time.
			{"zero examples is load cost only", 2, 0, Params{InputBytesPerSec: 1e9, InputBytesPerExample: 1000}, 1.2},
			// A zero input rate drops the input term entirely rather
			// than dividing by zero.
			{"zero input rate skips input term", 1, 1000, Params{InputBytesPerSec: 0, InputBytesPerExample: 1000}, 1.2 + 6.0},
			// Zero bytes per example reads no input even at full rate.
			{"zero input width skips input term", 1, 1000, Params{InputBytesPerSec: 1e9, InputBytesPerExample: 0}, 1.2 + 6.0},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				got, err := RerunSeconds(model(), tc.upTo, tc.nEx, tc.p)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-tc.want) > 1e-9 {
					t.Fatalf("got %g want %g", got, tc.want)
				}
				if math.IsNaN(got) || math.IsInf(got, 0) {
					t.Fatalf("degenerate estimate %g", got)
				}
			})
		}
	})

	t.Run("read", func(t *testing.T) {
		cases := []struct {
			name        string
			bytesPerRow int64
			nEx         int
			p           Params
			want        float64
		}{
			{"zero examples is free", 1000, 0, Params{ReadBytesPerSec: 100e6}, 0},
			{"zero width is free", 0, 50000, Params{ReadBytesPerSec: 100e6}, 0},
			{"zero rate yields zero not Inf", 1000, 50000, Params{}, 0},
			{"zero everything", 0, 0, Params{}, 0},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				got := ReadSeconds(tc.bytesPerRow, tc.nEx, tc.p)
				if got != tc.want {
					t.Fatalf("got %g want %g", got, tc.want)
				}
			})
		}
	})

	t.Run("choose ties", func(t *testing.T) {
		// The tie-break is load-bearing: callers (the serving layer's
		// estimate endpoint, the engine's fetch path) assume equal
		// estimates pin to READ, per the paper's t_rerun >= t_read rule.
		cases := []struct {
			name          string
			tRerun, tRead float64
			want          Strategy
		}{
			{"exact tie pins to read", 5, 5, Read},
			{"zero-zero tie pins to read", 0, 0, Read},
			{"epsilon above reads", math.Nextafter(5, 6), 5, Read},
			{"epsilon below reruns", math.Nextafter(5, 0), 5, Rerun},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				if got := Choose(tc.tRerun, tc.tRead); got != tc.want {
					t.Fatalf("Choose(%v, %v) = %v, want %v", tc.tRerun, tc.tRead, got, tc.want)
				}
			})
		}
	})

	t.Run("gamma", func(t *testing.T) {
		cases := []struct {
			name           string
			tRerun, tRead  float64
			nQuery, stored int64
			want           float64
		}{
			{"zero bytes clamps to zero", 10, 1, 5, 0, 0},
			{"negative bytes clamps to zero", 10, 1, 5, -64, 0},
			{"equal estimates save nothing", 5, 5, 100, 1 << 20, 0},
			{"read slower than rerun saves nothing", 1, 5, 100, 1 << 20, 0},
			{"zero queries accumulate nothing", 10, 1, 0, 1 << 20, 0},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				got := Gamma(tc.tRerun, tc.tRead, tc.nQuery, tc.stored)
				if got != tc.want {
					t.Fatalf("Gamma(%v,%v,%v,%v) = %g, want %g", tc.tRerun, tc.tRead, tc.nQuery, tc.stored, got, tc.want)
				}
				if math.IsNaN(got) || math.IsInf(got, 0) {
					t.Fatalf("degenerate gamma %g", got)
				}
			})
		}
	})
}

func TestSampleReadSeconds(t *testing.T) {
	p := Params{SampleBytesPerSec: 1e6}
	if got := SampleReadSeconds(1000, 100, p); got != 0.1 {
		t.Fatalf("SampleReadSeconds = %g, want 0.1", got)
	}
	// Unset rate falls back to the calibrated default rather than a free
	// (zero-cost) estimate.
	if got := SampleReadSeconds(1000, 100, Params{}); got <= 0 {
		t.Fatalf("default-rate SampleReadSeconds = %g, want > 0", got)
	}
	// A sample scan at the default rates beats a full READ of the same
	// intermediate whenever the sample is smaller than the population.
	def := DefaultParams()
	full := ReadSeconds(400, 100000, def)
	approx := SampleReadSeconds(32768, 400, def)
	if approx >= full {
		t.Fatalf("sample scan (%g) not cheaper than full read (%g)", approx, full)
	}
}

func TestSampleStrategyString(t *testing.T) {
	if Read.String() != "READ" || Rerun.String() != "RERUN" || Sample.String() != "SAMPLE" {
		t.Fatalf("strategy strings: %s/%s/%s", Read, Rerun, Sample)
	}
}
