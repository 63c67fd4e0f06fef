package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"time"

	"mistique"
	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/data"
	"mistique/internal/diag"
	"mistique/internal/nn"
	"mistique/internal/quant"
	"mistique/internal/tensor"
	"mistique/internal/zillow"
)

// This file holds ablations of MISTIQUE's design choices, called out in
// DESIGN.md. They are not paper figures but justify decisions the paper
// makes implicitly: chunk-granularity dedup, the gamma threshold, and the
// pooling level.

// AblationRegistry returns the ablation runners (not part of the default
// "all" set).
func AblationRegistry() (ids []string, byID map[string]Runner) {
	byID = map[string]Runner{
		"ablate-dedup": AblateDedupGranularity,
		"ablate-gamma": AblateGamma,
		"ablate-pool":  AblatePool,
		"xmodel":       CrossModel,
	}
	ids = []string{"ablate-dedup", "ablate-gamma", "ablate-pool", "xmodel"}
	return ids, byID
}

// AblateDedupGranularity compares MISTIQUE's ColumnChunk-level exact dedup
// against the coarser alternative of de-duplicating whole intermediates:
// chunk granularity catches pipelines that share most-but-not-all columns
// (the common case once hyperparameters diverge), table granularity only
// catches exact pipeline prefixes.
func AblateDedupGranularity(o Options) (*Table, error) {
	o = o.withDefaults()
	env := zillow.Env(o.NProps, o.NTrain, o.Seed)
	pipes, err := zillow.Build(env)
	if err != nil {
		return nil, err
	}
	pipes = pipes[:o.Pipelines]

	// Chunk-level: the engine's normal path.
	chunkLevel := func() (int64, error) {
		dir, err := os.MkdirTemp("", "mistique-abl-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		sys, err := mistique.Open(dir, mistique.Config{Store: colstore.Config{Mode: colstore.ModeArrival, DisableApproxDedup: true}})
		if err != nil {
			return 0, err
		}
		for _, p := range pipes {
			if _, err := sys.LogPipeline(p, env); err != nil {
				return 0, err
			}
		}
		return sys.Store().Stats().StoredBytes, nil
	}

	// Table-level: hash whole intermediates; only skip exact table dups.
	tableLevel := func() (int64, error) {
		seen := map[[32]byte]bool{}
		var stored int64
		for _, p := range pipes {
			res, err := p.Run(env)
			if err != nil {
				return 0, err
			}
			for _, sr := range res.Stages {
				for _, out := range sr.Outputs {
					m, _ := out.Frame.FloatMatrix()
					h := sha256.New()
					var buf [4]byte
					for _, v := range m.Data {
						binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
						h.Write(buf[:])
					}
					var key [32]byte
					copy(key[:], h.Sum(nil))
					if seen[key] {
						continue
					}
					seen[key] = true
					stored += int64(4 * len(m.Data))
				}
			}
		}
		return stored, nil
	}

	// No dedup baseline for reference.
	var none int64
	for _, p := range pipes {
		res, err := p.Run(env)
		if err != nil {
			return nil, err
		}
		for _, sr := range res.Stages {
			for _, out := range sr.Outputs {
				m, _ := out.Frame.FloatMatrix()
				none += int64(4 * len(m.Data))
			}
		}
	}

	chunk, err := chunkLevel()
	if err != nil {
		return nil, err
	}
	table, err := tableLevel()
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "AblateDedup",
		Title:  fmt.Sprintf("Exact-dedup granularity over %d Zillow pipelines (encoded bytes)", len(pipes)),
		Header: []string{"granularity", "stored", "vs none"},
	}
	t.AddRow("none (STORE_ALL)", fmtBytes(none), "1.0X")
	t.AddRow("whole intermediate", fmtBytes(table), speedup(float64(none), float64(table)))
	t.AddRow("ColumnChunk (MISTIQUE)", fmtBytes(chunk), speedup(float64(none), float64(chunk)))
	t.Note("chunk granularity wins when pipelines share columns but not whole tables (hyperparameter variants)")
	return t, nil
}

// AblateGamma sweeps the adaptive-materialization threshold over the
// Fig. 10 workload: low gamma materializes eagerly (more storage, fast
// queries), high gamma never materializes (no storage, every query
// re-runs).
func AblateGamma(o Options) (*Table, error) {
	o = o.withDefaults()
	if o.Pipelines > 5 {
		o.Pipelines = 5
	}
	t := &Table{
		ID:     "AblateGamma",
		Title:  "Gamma threshold sweep (25-query workload)",
		Header: []string{"gamma (s/B)", "disk after workload", "materialized", "mean query time"},
	}
	for _, gamma := range []float64{1e-10, 1e-8, 1e-6, 1e-3} {
		sys, env, names, cleanup, err := tradSetup(o, mistique.Config{
			Gamma: gamma,
			Cost:  cost.Params{ReadBytesPerSec: 200e6, InputBytesPerSec: 500e6},
		})
		if err != nil {
			return nil, err
		}
		queries := tradQueries(names[1%len(names)])
		var total float64
		n := 0
		for i := 0; i < 25; i++ {
			q := queries[i%len(queries)]
			start := time.Now()
			if _, err := q.run(sys, env, StrategyAuto); err != nil {
				cleanup()
				return nil, err
			}
			total += time.Since(start).Seconds()
			n++
		}
		if err := sys.Flush(); err != nil {
			cleanup()
			return nil, err
		}
		disk, err := sys.DiskBytes()
		if err != nil {
			cleanup()
			return nil, err
		}
		materialized := 0
		for _, mn := range sys.Metadata().Models() {
			for _, it := range sys.Metadata().Model(mn).Intermediates {
				if it.Materialized {
					materialized++
				}
			}
		}
		t.AddRow(fmt.Sprintf("%.0e", gamma), fmtBytes(disk), fmt.Sprintf("%d", materialized), fmtSecs(total/float64(n)))
		cleanup()
	}
	t.Note("storage falls and query time rises monotonically with gamma; the knee is the operating point")
	return t, nil
}

// AblatePool sweeps the pooling level sigma over storage, logging time and
// KNN fidelity — the trade-off behind the paper's choice of pool(2) as the
// default scheme (Secs. 8.2, 8.4, 8.6).
func AblatePool(o Options) (*Table, error) {
	o = o.withDefaults()
	net := nn.VGG16("vgg16", 10, o.VGGWidth, o.Seed)
	imgs, _ := data.Images(o.DNNExamples, 10, o.Seed+1)
	_, mid, _ := vggLayers(net)
	act := net.ForwardBatched(imgs, mid, 256)

	// Fidelity reference: full-precision KNN at the mid layer.
	k := 20
	if k > o.DNNExamples/4 {
		k = o.DNNExamples / 4
	}
	fullRep := act.Flatten()
	truth := diag.KNN(fullRep, fullRep.Row(0), k, 0)

	t := &Table{
		ID:     "AblatePool",
		Title:  "Pooling level sweep on VGG16 (storage + logging time + KNN fidelity at mid layer)",
		Header: []string{"sigma", "stored bytes (all layers)", "log time", "KNN overlap"},
	}
	schemes := []struct {
		label  string
		sigma  int
		scheme mistique.Scheme
	}{
		{"1 (none)", 1, mistique.SchemeFull},
		{"2", 2, mistique.SchemePool2},
		{"4", 4, mistique.SchemePool4},
		{"32 (full collapse)", 32, mistique.SchemePool32},
	}
	for _, sc := range schemes {
		dir, err := os.MkdirTemp("", "mistique-abl-pool-*")
		if err != nil {
			return nil, err
		}
		sys, err := mistique.Open(dir, mistique.Config{Store: colstore.Config{RowBlockRows: 256, Mode: colstore.ModeArrival, DisableExactDedup: true}})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		logNet := nn.VGG16("vgg16", 10, o.VGGWidth, o.Seed)
		rep, err := sys.LogDNN("vgg16", logNet, imgs, mistique.DNNLogOptions{Scheme: sc.scheme})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}

		// Fidelity: pooled representation's neighbors vs truth.
		var pooled = act
		if sc.sigma > 1 {
			sig := sc.sigma
			if sig > act.H {
				sig = act.H
			}
			pooled = quant.Pool(act, sig, quant.Avg)
		}
		rep2 := pooled.Flatten()
		overlap := diag.Overlap(truth, diag.KNN(rep2, rep2.Row(0), k, 0))

		t.AddRow(sc.label, fmtBytes(rep.StoredBytes), fmtSecs(rep.Seconds), fmt.Sprintf("%.2f", overlap))
		os.RemoveAll(dir)
	}
	t.Note("paper: pool(2) keeps ~0.74+ KNN overlap at ~1/4 the storage; pool(32) is cheapest but breaks spatial queries")
	return t, nil
}

// CrossModel instantiates Table 1's cross-model MCMR query ("compare the
// representations learned in layer-5 by AlexNet and by VGG16 in Layer-8"):
// SVCCA between the simple CNN's and VGG16's layers, computed on
// intermediates fetched from the store. Deep layers of different
// architectures trained on the same data should correlate more than early
// layers correlate with late ones.
func CrossModel(o Options) (*Table, error) {
	o = o.withDefaults()
	dir, err := os.MkdirTemp("", "mistique-xmodel-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sys, err := mistique.Open(dir, mistique.Config{
		Store: colstore.Config{RowBlockRows: 256, Mode: colstore.ModeArrival},
	})
	if err != nil {
		return nil, err
	}
	imgs, labels := data.Images(o.DNNExamples, 10, o.Seed+1)

	cnn := nn.SimpleCNN("cnn", 10, o.Seed)
	cnn.TrainEpochs(imgs, labels, 2, 32, 0.03, nil)
	if _, err := sys.LogDNN("cnn", cnn, imgs, mistique.DNNLogOptions{Scheme: mistique.SchemePool2}); err != nil {
		return nil, err
	}
	vgg := nn.VGG16("vgg16", 10, o.VGGWidth, o.Seed+2)
	vgg.FreezeConv()
	vgg.TrainEpochs(imgs, labels, 1, 32, 0.03, nil)
	if _, err := sys.LogDNN("vgg16", vgg, imgs, mistique.DNNLogOptions{Scheme: mistique.SchemePool2}); err != nil {
		return nil, err
	}

	fetch := func(model, layer string) (*tensor.Dense, error) {
		res, err := sys.GetIntermediate(model, layer, nil, 0)
		if err != nil {
			return nil, err
		}
		return subsampleCols(res.Data, 12), nil
	}

	t := &Table{
		ID:     "CrossModel",
		Title:  "Cross-model SVCCA: CIFAR10_CNN layer vs CIFAR10_VGG16 layer (Table 1 MCMR query)",
		Header: []string{"cnn layer", "vgg16 layer", "mean CCA"},
	}
	pairs := [][2]string{
		{"relu1_1", "relu1_1"},   // early vs early
		{"relu2_2", "relu3_3"},   // mid vs mid
		{"relu_fc1", "relu_fc1"}, // head vs head
		{"relu1_1", "relu_fc1"},  // early vs late (should be lowest)
	}
	for _, pr := range pairs {
		a, err := fetch("cnn", pr[0])
		if err != nil {
			return nil, err
		}
		b, err := fetch("vgg16", pr[1])
		if err != nil {
			return nil, err
		}
		cca, err := diag.SVCCA(a, b)
		if err != nil {
			return nil, err
		}
		t.AddRow(pr[0], pr[1], fmt.Sprintf("%.4f", cca))
	}
	t.Note("matched depths correlate more than mismatched ones; both models' heads converge toward the task")
	return t, nil
}
