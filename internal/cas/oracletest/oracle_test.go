package oracletest

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"mistique"
	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/tensor"
)

// The differential oracle: the same fine-tuning run is logged into a
// plain store (full copies, every dedup path disabled) and a versioned
// store (exact dedup + delta generations), and
// every diagnostic query must answer bit-exactly on both — per version,
// per scheme, after Compact chain-collapse, and after healing a destroyed
// partition by re-logging.

const (
	oracleEpochs = 4
	oracleImages = 32
)

// fcInterms are the layer (= intermediate) names behind FCLayers.
var fcInterms = []string{"fc1", "relu_fc1", "logits"}

func openPlain(t *testing.T, dir string) *mistique.System {
	t.Helper()
	sys, err := mistique.Open(dir, mistique.Config{
		Store: colstore.Config{
			Mode:               colstore.ModeArrival,
			DisableExactDedup:  true,
			DisableApproxDedup: true,
		},
	})
	if err != nil {
		t.Fatalf("open plain system: %v", err)
	}
	return sys
}

func openVersioned(t *testing.T, dir string, deltaMaxDepth int) *mistique.System {
	t.Helper()
	sys, err := mistique.Open(dir, mistique.Config{
		Store: colstore.Config{DeltaMaxDepth: deltaMaxDepth},
	})
	if err != nil {
		t.Fatalf("open versioned system: %v", err)
	}
	return sys
}

// fetchRead forces the READ strategy so the assertion exercises the
// stored (possibly delta-encoded) bytes, never a model re-run.
func fetchRead(t *testing.T, sys *mistique.System, model, interm string) *tensor.Dense {
	t.Helper()
	res, err := sys.Fetch(model, interm, nil, 0, cost.Read)
	if err != nil {
		t.Fatalf("read %s/%s: %v", model, interm, err)
	}
	return res.Data
}

func sameMatrix(t *testing.T, ctx string, want, got *tensor.Dense) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", ctx, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		// Bit-level comparison: NaN payloads and signed zeros must match too.
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: element %d: %v != %v", ctx, i, got.Data[i], want.Data[i])
		}
	}
}

func sameInts(t *testing.T, ctx string, want, got []int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows != %d rows", ctx, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: row %d: %d != %d", ctx, i, got[i], want[i])
		}
	}
}

func sameTopK(t *testing.T, ctx string, want, got []mistique.TopKEntry) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d entries != %d", ctx, len(got), len(want))
	}
	for i := range want {
		if want[i].Row != got[i].Row ||
			math.Float32bits(want[i].Value) != math.Float32bits(got[i].Value) {
			t.Fatalf("%s: rank %d: %+v != %+v", ctx, i, got[i], want[i])
		}
	}
}

// expected is the plain-store answer set the versioned store must match.
type expected struct {
	matrices map[string]*tensor.Dense
	filter   map[string][]int
	topk     map[string][]mistique.TopKEntry
	rows     map[string]*tensor.Dense
}

// collect runs every oracle query class against sys's prefix-named
// versions and records the answers.
func collect(t *testing.T, sys *mistique.System, prefix string) *expected {
	t.Helper()
	e := &expected{
		matrices: make(map[string]*tensor.Dense),
		filter:   make(map[string][]int),
		topk:     make(map[string][]mistique.TopKEntry),
		rows:     make(map[string]*tensor.Dense),
	}
	for epoch := 0; epoch < oracleEpochs; epoch++ {
		model := VersionName(prefix, epoch)
		for _, interm := range fcInterms {
			e.matrices[model+"/"+interm] = fetchRead(t, sys, model, interm)
		}
		rows, err := sys.FilterRows(model, "fc1", "u3", colstore.Gt, 0)
		if err != nil {
			t.Fatalf("filter %s: %v", model, err)
		}
		e.filter[model] = rows
		top, err := sys.TopK(model, "fc1", "u7", 5)
		if err != nil {
			t.Fatalf("topk %s: %v", model, err)
		}
		e.topk[model] = top
		rr, err := sys.GetRows(model, "relu_fc1", nil, 1, oracleImages/2)
		if err != nil {
			t.Fatalf("rows %s: %v", model, err)
		}
		e.rows[model] = rr
	}
	return e
}

// compare re-runs every oracle query against sys and asserts bit-exact
// agreement with the recorded answers.
func compare(t *testing.T, leg string, sys *mistique.System, prefix string, want *expected) {
	t.Helper()
	for epoch := 0; epoch < oracleEpochs; epoch++ {
		model := VersionName(prefix, epoch)
		for _, interm := range fcInterms {
			got := fetchRead(t, sys, model, interm)
			sameMatrix(t, leg+": "+model+"/"+interm, want.matrices[VersionName("plain", epoch)+"/"+interm], got)
		}
		rows, err := sys.FilterRows(model, "fc1", "u3", colstore.Gt, 0)
		if err != nil {
			t.Fatalf("%s: filter %s: %v", leg, model, err)
		}
		sameInts(t, leg+": filter "+model, want.filter[VersionName("plain", epoch)], rows)
		top, err := sys.TopK(model, "fc1", "u7", 5)
		if err != nil {
			t.Fatalf("%s: topk %s: %v", leg, model, err)
		}
		sameTopK(t, leg+": topk "+model, want.topk[VersionName("plain", epoch)], top)
		rr, err := sys.GetRows(model, "relu_fc1", nil, 1, oracleImages/2)
		if err != nil {
			t.Fatalf("%s: rows %s: %v", leg, model, err)
		}
		sameMatrix(t, leg+": rows "+model, want.rows[VersionName("plain", epoch)], rr)
	}
}

// TestOracleDifferential is the tentpole proof: for every quantization
// scheme, a perturbed fine-tuning run logged as full copies and as delta
// generations answers identically — including after collapsing chains
// with Compact under a tighter depth bound, and after destroying a
// partition file and healing the store by re-logging the retained
// checkpoints.
func TestOracleDifferential(t *testing.T) {
	schemes := []mistique.Scheme{
		mistique.SchemeFull, mistique.SchemeLP, mistique.Scheme8Bit, mistique.SchemeThreshold,
	}
	for _, scheme := range schemes {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			t.Parallel()
			sc := NewScenario(7, oracleImages)
			plainDir, versDir := t.TempDir(), t.TempDir()
			plain := openPlain(t, plainDir)
			vers := openVersioned(t, versDir, 0)

			nets, err := sc.RunEpochs(oracleEpochs, scheme, FCLayers,
				Target{Sys: plain, Prefix: "plain", Linked: false},
				Target{Sys: vers, Prefix: "vers", Linked: true},
			)
			if err != nil {
				t.Fatal(err)
			}

			want := collect(t, plain, "plain")
			compare(t, "live", vers, "vers", want)

			// The lineage chain must link every epoch back to the root.
			chain, err := vers.Lineage(VersionName("vers", oracleEpochs-1))
			if err != nil {
				t.Fatalf("lineage: %v", err)
			}
			if len(chain) != oracleEpochs {
				t.Fatalf("lineage: %d entries, want %d", len(chain), oracleEpochs)
			}
			for i, e := range chain {
				wantName := VersionName("vers", oracleEpochs-1-i)
				if e.Model != wantName {
					t.Fatalf("lineage[%d] = %s, want %s", i, e.Model, wantName)
				}
			}
			if scheme == mistique.SchemeFull {
				// FULL keeps raw float bits, so perturbed columns cannot
				// exact-dedup: some chain must actually be delta-encoded.
				if chain[0].MaxDeltaDepth == 0 {
					t.Fatalf("lineage head has no delta chain: %+v", chain[0])
				}
			}

			// Leg 2: flush, reopen under a tighter chain bound, Compact —
			// chains deeper than 1 collapse in place — and re-verify reads.
			if err := vers.Flush(); err != nil {
				t.Fatalf("flush versioned: %v", err)
			}
			if err := vers.Close(); err != nil {
				t.Fatalf("close versioned: %v", err)
			}
			vers = openVersioned(t, versDir, 1)
			if _, err := vers.CompactStore(); err != nil {
				t.Fatalf("compact: %v", err)
			}
			compare(t, "post-compact", vers, "vers", want)

			// Leg 3: destroy one partition file, reopen, heal by re-logging
			// every retained checkpoint, and re-verify.
			if err := vers.Flush(); err != nil {
				t.Fatalf("flush before corruption: %v", err)
			}
			if err := vers.Close(); err != nil {
				t.Fatalf("close before corruption: %v", err)
			}
			parts, err := filepath.Glob(filepath.Join(versDir, "data", "partition_*"))
			if err != nil || len(parts) == 0 {
				t.Fatalf("find partitions: %v (%d found)", err, len(parts))
			}
			if err := os.Remove(parts[0]); err != nil {
				t.Fatalf("remove partition: %v", err)
			}
			vers = openVersioned(t, versDir, 0)
			for epoch, net := range nets {
				if _, err := LogEpoch(vers, net, sc.Input, "vers", epoch, scheme, true, FCLayers); err != nil {
					t.Fatalf("heal re-log epoch %d: %v", epoch, err)
				}
			}
			compare(t, "post-heal", vers, "vers", want)
			if err := vers.Close(); err != nil {
				t.Fatalf("close healed: %v", err)
			}
			if err := plain.Close(); err != nil {
				t.Fatalf("close plain: %v", err)
			}
		})
	}
}

// TestVersionedStoreDedupRatio pins the acceptance bar: a 10-epoch
// fine-tune (frozen conv stack, drifting fc head) must store at least 5x
// smaller under exact dedup + delta generations than as full per-epoch
// copies, measured in on-disk bytes.
func TestVersionedStoreDedupRatio(t *testing.T) {
	const epochs = 10
	sc := NewScenario(11, 64)
	plainDir, versDir := t.TempDir(), t.TempDir()
	plain := openPlain(t, plainDir)
	vers := openVersioned(t, versDir, 0)
	// pool2 (frozen conv output, dedups exactly) plus the drifting head.
	layers := append([]int{9}, FCLayers...)

	if _, err := sc.RunEpochs(epochs, mistique.SchemeFull, layers,
		Target{Sys: plain, Prefix: "plain", Linked: false},
		Target{Sys: vers, Prefix: "vers", Linked: true},
	); err != nil {
		t.Fatal(err)
	}
	// Measure right after flush, before any query builds diagnostic
	// indexes under the same data dir.
	if err := plain.Flush(); err != nil {
		t.Fatalf("flush plain: %v", err)
	}
	if err := vers.Flush(); err != nil {
		t.Fatalf("flush versioned: %v", err)
	}
	pb, err := plain.DiskBytes()
	if err != nil {
		t.Fatalf("plain disk bytes: %v", err)
	}
	vb, err := vers.DiskBytes()
	if err != nil {
		t.Fatalf("versioned disk bytes: %v", err)
	}
	if vb <= 0 || pb <= 0 {
		t.Fatalf("degenerate sizes: plain=%d versioned=%d", pb, vb)
	}
	ratio := float64(pb) / float64(vb)
	t.Logf("plain=%d B versioned=%d B ratio=%.2fx", pb, vb, ratio)
	if ratio < 5 {
		t.Fatalf("dedup ratio %.2fx < 5x (plain=%d B, versioned=%d B)", ratio, pb, vb)
	}
}

// TestChainReadRecordsCostError asserts the cost-model feedback loop
// covers delta chains: a cold READ of a version sitting on a delta chain
// must record a mistique_cost_read_rel_error sample, so the calibrated
// read constants keep tracking chain amplification.
func TestChainReadRecordsCostError(t *testing.T) {
	sc := NewScenario(13, oracleImages)
	vers := openVersioned(t, t.TempDir(), 0)
	if _, err := sc.RunEpochs(oracleEpochs, mistique.SchemeFull, FCLayers,
		Target{Sys: vers, Prefix: "vers", Linked: true},
	); err != nil {
		t.Fatal(err)
	}
	last := VersionName("vers", oracleEpochs-1)
	if d := vers.Store().MaxDeltaDepth(last, "logits"); d == 0 {
		t.Fatalf("expected %s/logits on a delta chain", last)
	}
	if err := vers.Store().DropCache(); err != nil {
		t.Fatalf("drop cache: %v", err)
	}
	before := vers.Metrics().Histograms["mistique_cost_read_rel_error"].Count
	if _, err := vers.Fetch(last, "logits", nil, 0, cost.Read); err != nil {
		t.Fatalf("cold chain read: %v", err)
	}
	after := vers.Metrics().Histograms["mistique_cost_read_rel_error"].Count
	if after <= before {
		t.Fatalf("chain read recorded no cost rel-error sample (count %d -> %d)", before, after)
	}
}
