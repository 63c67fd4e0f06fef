// Package oracletest holds the differential lineage-testing harness for
// cross-version storage: a simulated fine-tuning run whose epochs are
// logged twice — into a plain full-copy store and into a versioned
// dedup+delta store — so tests (and examples/epochs) can assert that every
// read over the delta-encoded store is bit-exact against the baseline.
//
// The scenario is deterministic: a SimpleCNN whose convolutional stack is
// effectively frozen (only a few rows of the fc1 weight matrix drift per
// epoch), exactly the paper's fine-tuned-VGG16 shape. Frozen layers
// produce byte-identical activation columns across epochs (exact dedup);
// the drifting fc rows produce near-identical columns (delta encoding);
// the untouched fc rows stay identical (exact dedup again).
package oracletest

import (
	"fmt"

	"mistique"
	"mistique/internal/data"
	"mistique/internal/nn"
	"mistique/internal/tensor"
)

// FCLayers are the layer indices of SimpleCNN's fine-tuning head
// (fc1, relu_fc1, logits) — the layers whose activations drift across
// epochs. Restricting logging to these keeps oracle runs fast while
// still exercising full, deduped and delta-encoded columns.
var FCLayers = []int{11, 12, 13}

// Network aliases nn.Network so examples need not import internal/nn.
type Network = nn.Network

// Scenario is one simulated fine-tuning run.
type Scenario struct {
	// Input is the fixed evaluation batch every epoch is logged against.
	Input *tensor.T4
	// master accumulates the weight drift; each epoch's snapshot is an
	// independent clone of it.
	master *nn.Network
	// PerturbRows is how many fc1 output rows drift per epoch (their
	// columns delta-encode; the rest dedup exactly).
	PerturbRows int
	// Eps scales the drift. Small enough that drifted activations keep
	// most of their encoded bytes, so the residual gate keeps the delta;
	// large enough that columns are not byte-identical.
	Eps float32
}

// NewScenario builds a deterministic run: nImages synthetic images and a
// SimpleCNN seeded from seed.
func NewScenario(seed int64, nImages int) *Scenario {
	imgs, _ := data.Images(nImages, 4, seed)
	return &Scenario{
		Input:       imgs,
		master:      nn.SimpleCNN("cnn", 4, seed),
		PerturbRows: 6,
		Eps:         2e-5,
	}
}

// Advance applies epoch's weight drift to the master network: a rotating
// window of fc1 rows gets a tiny deterministic nudge, simulating a
// fine-tuning step that touches part of the head. Epoch 0 is the
// pre-training checkpoint and changes nothing.
func (sc *Scenario) Advance(epoch int) {
	if epoch == 0 {
		return
	}
	fc1 := sc.master.Layers[11].(*nn.Dense)
	for k := 0; k < sc.PerturbRows; k++ {
		row := (epoch*3 + k) % fc1.Out
		w := fc1.Weight.W[row*fc1.In : (row+1)*fc1.In]
		for i := range w {
			// Sign-alternating drift that depends on epoch, so consecutive
			// generations differ from each other, not just from the root.
			w[i] += sc.Eps * float32((i+epoch)%5-2)
		}
	}
}

// Snapshot clones the master network at its current weights, so later
// drift of the master leaves the snapshot alone.
func (sc *Scenario) Snapshot() *nn.Network { return sc.master.Clone() }

// VersionName names one epoch's model version.
func VersionName(prefix string, epoch int) string {
	return fmt.Sprintf("%s@e%d", prefix, epoch)
}

// LogEpoch logs net as epoch's version of prefix into sys. linked chains
// the version to the previous epoch (delta storage + lineage link);
// unlinked logs an independent full copy. layers restricts which layers
// are logged (nil = all).
func LogEpoch(sys *mistique.System, net *nn.Network, in *tensor.T4, prefix string, epoch int, scheme mistique.Scheme, linked bool, layers []int) (*mistique.LogReport, error) {
	opts := mistique.DNNLogOptions{Scheme: scheme, Layers: layers}
	if linked && epoch > 0 {
		opts.Parent = VersionName(prefix, epoch-1)
	}
	return sys.LogDNN(VersionName(prefix, epoch), net, in, opts)
}

// RunEpochs drives the whole scenario: for each epoch it advances the
// master, snapshots it, and logs the snapshot into every supplied system
// under that system's linkage mode. It returns the per-epoch snapshots so
// callers can re-log them later (the heal-by-rerun leg of the oracle).
func (sc *Scenario) RunEpochs(epochs int, scheme mistique.Scheme, layers []int, systems ...Target) ([]*nn.Network, error) {
	nets := make([]*nn.Network, 0, epochs)
	for e := 0; e < epochs; e++ {
		sc.Advance(e)
		net := sc.Snapshot()
		nets = append(nets, net)
		for _, t := range systems {
			if _, err := LogEpoch(t.Sys, net, sc.Input, t.Prefix, e, scheme, t.Linked, layers); err != nil {
				return nil, fmt.Errorf("log epoch %d into %s: %w", e, t.Prefix, err)
			}
		}
	}
	return nets, nil
}

// Target is one destination store for RunEpochs.
type Target struct {
	Sys    *mistique.System
	Prefix string
	// Linked stores each epoch as a delta generation against the previous
	// one; false stores every epoch as an independent full copy.
	Linked bool
}
