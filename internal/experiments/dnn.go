package experiments

import (
	"fmt"
	"os"
	"time"

	"mistique"
	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/data"
	"mistique/internal/diag"
	"mistique/internal/nn"
	"mistique/internal/tensor"
)

// vggLayers returns the three reference layers of the Fig. 5 DNN queries:
// the first conv (the paper's Layer1, huge and near the input), a middle
// conv (Layer11) and the final logits (Layer21).
func vggLayers(net *nn.Network) (first, mid, last int) {
	names := net.LayerNames()
	first = 0
	mid = -1
	for i, n := range names {
		if n == "conv3_3" {
			mid = i
		}
	}
	if mid < 0 {
		mid = net.NumLayers() / 2
	}
	last = net.NumLayers() - 1
	return first, mid, last
}

// dnnSystem logs the requested layers of a VGG16 model into a fresh system.
func dnnSystem(o Options, scheme mistique.Scheme, layers []int) (*mistique.System, *nn.Network, *tensor.T4, []int, func(), error) {
	dir, err := os.MkdirTemp("", "mistique-dnn-*")
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	sys, err := mistique.Open(dir, mistique.Config{
		Store: colstore.Config{RowBlockRows: 256, Mode: colstore.ModeArrival},
	})
	if err != nil {
		cleanup()
		return nil, nil, nil, nil, nil, err
	}
	net := nn.VGG16("vgg16", 10, o.VGGWidth, o.Seed)
	net.FreezeConv()
	imgs, labels := data.Images(o.DNNExamples, 10, o.Seed+1)
	if _, err := sys.LogDNN("vgg16", net, imgs, mistique.DNNLogOptions{Scheme: scheme, Layers: layers}); err != nil {
		cleanup()
		return nil, nil, nil, nil, nil, err
	}
	if err := sys.Store().DropCache(); err != nil {
		cleanup()
		return nil, nil, nil, nil, nil, err
	}
	return sys, net, imgs, labels, cleanup, nil
}

// dnnQuery is one Table 5 DNN query at a specific layer.
type dnnQuery struct {
	name     string
	category string
	run      func(sys *mistique.System, layer string, labels []int, st cost.Strategy) error
}

func dnnQueries() []dnnQuery {
	return []dnnQuery{
		{"POINTQ", "FCFR", func(sys *mistique.System, layer string, _ []int, st cost.Strategy) error {
			res, _, err := fetchSecs(sys, "vgg16", layer, []string{"u3"}, 64, st)
			if err != nil {
				return err
			}
			_, err = diag.PointQuery(res.Data.Col(0), 33)
			return err
		}},
		{"TOPK", "FCFR", func(sys *mistique.System, layer string, _ []int, st cost.Strategy) error {
			res, _, err := fetchSecs(sys, "vgg16", layer, []string{"u1"}, 0, st)
			if err != nil {
				return err
			}
			diag.TopK(res.Data.Col(0), 10)
			return nil
		}},
		{"COL_DIST", "FCMR", func(sys *mistique.System, layer string, _ []int, st cost.Strategy) error {
			res, _, err := fetchSecs(sys, "vgg16", layer, []string{"u0"}, 0, st)
			if err != nil {
				return err
			}
			diag.ColDist(res.Data.Col(0), 32)
			return nil
		}},
		{"KNN", "MCFR", func(sys *mistique.System, layer string, _ []int, st cost.Strategy) error {
			res, _, err := fetchSecs(sys, "vgg16", layer, nil, 0, st)
			if err != nil {
				return err
			}
			diag.KNN(res.Data, res.Data.Row(5), 10, 5)
			return nil
		}},
		{"ROW_DIFF", "MCFR", func(sys *mistique.System, layer string, _ []int, st cost.Strategy) error {
			res, _, err := fetchSecs(sys, "vgg16", layer, nil, 8, st)
			if err != nil {
				return err
			}
			_, err = diag.RowDiff(res.Data.Row(3), res.Data.Row(7))
			return err
		}},
		{"VIS", "MCMR", func(sys *mistique.System, layer string, labels []int, st cost.Strategy) error {
			res, _, err := fetchSecs(sys, "vgg16", layer, nil, 0, st)
			if err != nil {
				return err
			}
			_, err = diag.VIS(res.Data, labels[:res.Data.Rows], 10)
			return err
		}},
		{"SVCCA", "MCMR", func(sys *mistique.System, layer string, _ []int, st cost.Strategy) error {
			rep, _, err := fetchSecs(sys, "vgg16", layer, nil, 0, st)
			if err != nil {
				return err
			}
			logits, _, err := fetchSecs(sys, "vgg16", "logits", nil, 0, st)
			if err != nil {
				return err
			}
			a := subsampleCols(rep.Data, 16)
			_, err = diag.SVCCA(a, logits.Data)
			return err
		}},
	}
}

// subsampleCols keeps every k-th column so SVCCA's rows >= cols holds on
// wide conv layers (the paper subsamples units the same way).
func subsampleCols(d *tensor.Dense, maxCols int) *tensor.Dense {
	if d.Cols <= maxCols {
		return d
	}
	stride := d.Cols / maxCols
	idx := make([]int, 0, maxCols)
	for j := 0; j < d.Cols && len(idx) < maxCols; j += stride {
		idx = append(idx, j)
	}
	return d.SelectCols(idx)
}

// Fig5bcd reproduces the DNN end-to-end query times at the last, middle
// and first layers (Figs. 5b, 5c, 5d), read vs re-run.
func Fig5bcd(o Options) (*Table, error) {
	o = o.withDefaults()
	net := nn.VGG16("probe", 10, o.VGGWidth, o.Seed)
	first, mid, last := vggLayers(net)
	sys, net, _, labels, cleanup, err := dnnSystem(o, mistique.SchemePool2, []int{first, mid, last})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	names := net.LayerNames()

	t := &Table{
		ID:     "Fig5bcd",
		Title:  "DNN end-to-end query time by layer: READ vs RERUN (asterisk = cost-model choice)",
		Header: []string{"layer", "query", "category", "read", "rerun", "speedup", "chosen"},
	}
	for _, li := range []int{last, mid, first} {
		layer := names[li]
		estRead, estRerun, err := sys.Estimate("vgg16", layer, 0)
		if err != nil {
			return nil, err
		}
		chosen := cost.Choose(estRerun, estRead).String()
		for _, q := range dnnQueries() {
			if li == last && q.name == "SVCCA" {
				continue // logits vs logits is degenerate
			}
			readSecs, err := runMedian(3, func() (float64, error) {
				start := time.Now()
				if err := q.run(sys, layer, labels, cost.Read); err != nil {
					return 0, err
				}
				return time.Since(start).Seconds(), nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s READ: %w", layer, q.name, err)
			}
			rerunSecs, err := runMedian(3, func() (float64, error) {
				start := time.Now()
				if err := q.run(sys, layer, labels, cost.Rerun); err != nil {
					return 0, err
				}
				return time.Since(start).Seconds(), nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s RERUN: %w", layer, q.name, err)
			}
			t.AddRow(layer, q.name, q.category,
				fmtSecs(readSecs)+star(chosen == "READ"),
				fmtSecs(rerunSecs)+star(chosen == "RERUN"),
				speedup(rerunSecs, readSecs), chosen)
		}
	}
	t.Note("paper: reading wins 60-210X at the last layer, 2-42X mid-network; re-running can win at Layer1 (large, near input)")
	return t, nil
}

// Fig6b reproduces the DNN storage comparison: STORE_ALL vs the
// quantization schemes, for the simple CNN and the fine-tuned VGG16, over
// training checkpoints. DEDUP is applied on top of POOL2 as in the paper.
func Fig6b(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:     "Fig6b",
		Title:  fmt.Sprintf("DNN storage for %d checkpoint(s): quantization schemes (+DEDUP on pool2)", o.Epochs),
		Header: []string{"model", "scheme", "disk", "encoded", "vs STORE_ALL"},
	}

	type modelCase struct {
		name   string
		build  func() *nn.Network
		frozen bool
	}
	cases := []modelCase{
		{"CIFAR10_CNN", func() *nn.Network { return nn.SimpleCNN("cnn", 10, o.Seed) }, false},
		{"CIFAR10_VGG16", func() *nn.Network {
			n := nn.VGG16("vgg16", 10, o.VGGWidth, o.Seed)
			n.FreezeConv()
			return n
		}, true},
	}
	schemes := []struct {
		label  string
		scheme mistique.Scheme
		dedup  bool
	}{
		{"STORE_ALL (float32)", mistique.SchemeFull, false},
		{"LP_QT (float16)", mistique.SchemeLP, false},
		{"8BIT_QT", mistique.Scheme8Bit, false},
		{"POOL_QT sigma=2", mistique.SchemePool2, false},
		{"POOL_QT sigma=32", mistique.SchemePool32, false},
		{"POOL2 + DEDUP", mistique.SchemePool2, true},
	}

	imgs, labels := data.Images(o.DNNExamples, 10, o.Seed+1)
	for _, mc := range cases {
		var storeAllDisk int64
		for _, sc := range schemes {
			dir, err := os.MkdirTemp("", "mistique-fig6b-*")
			if err != nil {
				return nil, err
			}
			cfg := mistique.Config{Store: colstore.Config{RowBlockRows: 256, Mode: colstore.ModeArrival}}
			if !sc.dedup {
				cfg.Store.DisableExactDedup = true
			}
			sys, err := mistique.Open(dir, cfg)
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			net := mc.build()
			for e := 0; e < o.Epochs; e++ {
				name := fmt.Sprintf("%s@e%d", mc.name, e)
				if _, err := sys.LogDNN(name, net, imgs, mistique.DNNLogOptions{Scheme: sc.scheme}); err != nil {
					os.RemoveAll(dir)
					return nil, fmt.Errorf("%s %s epoch %d: %w", mc.name, sc.label, e, err)
				}
				if e < o.Epochs-1 {
					net.TrainEpochs(imgs, labels, 1, 32, 0.02, nil)
				}
			}
			if err := sys.Flush(); err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			disk, err := sys.DiskBytes()
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			encoded := sys.Store().Stats().StoredBytes
			if sc.scheme == mistique.SchemeFull {
				storeAllDisk = disk
			}
			ratio := "1.0X"
			if storeAllDisk > 0 && disk > 0 {
				ratio = speedup(float64(storeAllDisk), float64(disk))
			}
			t.AddRow(mc.name, sc.label, fmtBytes(disk), fmtBytes(encoded), ratio)
			os.RemoveAll(dir)
		}
	}
	t.Note("paper: LP 2X, 8BIT ~3.3X, pool(2) ~6.2X, pool(32) ~95X; DEDUP adds ~10X more for the frozen-conv VGG16 but little for the CNN")
	return t, nil
}

// Fig7 validates the cost model's two sides: (a) time to re-run the model
// up to each layer (fixed model-load cost plus per-layer growth), and (b)
// time to read each stored intermediate under each quantization scheme.
func Fig7(o Options) (*Table, error) {
	o = o.withDefaults()
	net := nn.VGG16("probe", 10, o.VGGWidth, o.Seed)
	first, mid, last := vggLayers(net)
	layers := []int{first, mid, last}

	t := &Table{
		ID:     "Fig7",
		Title:  "Cost model components: re-run time per layer (a) and read time per layer/scheme (b)",
		Header: []string{"layer", "rerun (measured)", "LP_QT read", "8BIT_QT read", "pool(2) read", "pool(32) read"},
	}

	// (a) measured re-run time to each layer.
	imgs, _ := data.Images(o.DNNExamples, 10, o.Seed+1)
	rerunSecs := make(map[int]float64)
	probeNet := nn.VGG16("probe", 10, o.VGGWidth, o.Seed)
	for _, li := range layers {
		start := time.Now()
		probeNet.ForwardBatched(imgs, li, 256)
		rerunSecs[li] = time.Since(start).Seconds()
	}

	// (b) read time per scheme.
	readSecs := make(map[mistique.Scheme]map[int]float64)
	for _, scheme := range []mistique.Scheme{mistique.SchemeLP, mistique.Scheme8Bit, mistique.SchemePool2, mistique.SchemePool32} {
		sys, snet, _, _, cleanup, err := dnnSystem(o, scheme, layers)
		if err != nil {
			return nil, err
		}
		names := snet.LayerNames()
		readSecs[scheme] = make(map[int]float64)
		for _, li := range layers {
			secs, err := runMedian(3, func() (float64, error) {
				if err := sys.Store().DropCache(); err != nil {
					return 0, err
				}
				_, secs, err := fetchSecs(sys, "vgg16", names[li], nil, 0, cost.Read)
				return secs, err
			})
			if err != nil {
				cleanup()
				return nil, err
			}
			readSecs[scheme][li] = secs
		}
		cleanup()
	}

	names := net.LayerNames()
	for _, li := range layers {
		t.AddRow(names[li],
			fmtSecs(rerunSecs[li]),
			fmtSecs(readSecs[mistique.SchemeLP][li]),
			fmtSecs(readSecs[mistique.Scheme8Bit][li]),
			fmtSecs(readSecs[mistique.SchemePool2][li]),
			fmtSecs(readSecs[mistique.SchemePool32][li]))
	}
	t.Note("paper: re-run grows with layer depth (plus fixed load cost); reads rank 8BIT (reconstruction) > LP > pool(2) > pool(32)")
	return t, nil
}

// Fig8 compares measured read/re-run times against the cost model's
// predictions across layers and n_ex, verifying the linear trade-off and
// that the predicted winner matches the measured winner.
func Fig8(o Options) (*Table, error) {
	o = o.withDefaults()
	net := nn.VGG16("probe", 10, o.VGGWidth, o.Seed)
	first, mid, last := vggLayers(net)
	quarter := (first + mid) / 2
	threeQ := (mid + last) / 2
	layers := []int{first, quarter, mid, threeQ, last}

	sys, snet, imgs, _, cleanup, err := dnnSystem(o, mistique.SchemePool2, layers)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	names := snet.LayerNames()

	// Calibrate rho_d (read bytes/sec) from one full read of the mid layer.
	if err := sys.Store().DropCache(); err != nil {
		return nil, err
	}
	calib, calibSecs, err := fetchSecs(sys, "vgg16", names[mid], nil, 0, cost.Read)
	if err != nil {
		return nil, err
	}
	calibBytes := float64(calib.Data.Rows*calib.Data.Cols) * 4
	rho := calibBytes / calibSecs

	t := &Table{
		ID:     "Fig8",
		Title:  "Measured vs predicted read/re-run trade-off (pool(2) storage)",
		Header: []string{"layer", "n_ex", "read meas", "rerun meas", "read pred", "rerun pred", "winner meas", "winner pred", "agree"},
	}
	agree, total := 0, 0
	for _, li := range layers {
		layer := names[li]
		for _, frac := range []int{8, 4, 2, 1} {
			nEx := imgs.N / frac
			if err := sys.Store().DropCache(); err != nil {
				return nil, err
			}
			readRes, readMeas, err := fetchSecs(sys, "vgg16", layer, nil, nEx, cost.Read)
			if err != nil {
				return nil, err
			}
			_, rerunMeas, err := fetchSecs(sys, "vgg16", layer, nil, nEx, cost.Rerun)
			if err != nil {
				return nil, err
			}
			readPred := float64(readRes.Data.Rows*readRes.Data.Cols) * 4 / rho
			_, rerunPred, err := sys.Estimate("vgg16", layer, nEx)
			if err != nil {
				return nil, err
			}
			wm := cost.Choose(rerunMeas, readMeas).String()
			wp := cost.Choose(rerunPred, readPred).String()
			ok := "yes"
			if wm != wp {
				ok = "NO"
			} else {
				agree++
			}
			total++
			t.AddRow(layer, fmt.Sprintf("%d", nEx),
				fmtSecs(readMeas), fmtSecs(rerunMeas),
				fmtSecs(readPred), fmtSecs(rerunPred), wm, wp, ok)
		}
	}
	t.Note("cost model picked the measured winner in %d/%d cells", agree, total)
	t.Note("paper: both sides scale linearly in n_ex; model predicts the crossover correctly")
	return t, nil
}
