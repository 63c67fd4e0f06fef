package experiments

import (
	"fmt"

	"mistique/internal/data"
	"mistique/internal/diag"
	"mistique/internal/nn"
	"mistique/internal/quant"
	"mistique/internal/tensor"
)

// rawActivations computes full-precision activations of a VGG16 layer for
// the fidelity experiments.
func rawActivations(o Options, layerPick func(net *nn.Network) int) (*tensor.T4, []int, *nn.Network, int) {
	net := nn.VGG16("vgg16", 10, o.VGGWidth, o.Seed)
	imgs, labels := data.Images(o.DNNExamples, 10, o.Seed+1)
	li := layerPick(net)
	act := net.ForwardBatched(imgs, li, 256)
	return act, labels, net, li
}

// applyScheme produces the reconstructed view of an activation tensor
// under a storage scheme (what a reader of the store observes).
func applyScheme(act *tensor.T4, scheme string) (*tensor.T4, error) {
	switch scheme {
	case "FULL":
		return act, nil
	case "LP_QT":
		out := act.Clone()
		q := quant.NewLP()
		copy(out.Data, q.Apply(act.Data))
		return out, nil
	case "8BIT_QT":
		q, err := quant.FitKBit(act.Data, 8)
		if err != nil {
			return nil, err
		}
		out := act.Clone()
		copy(out.Data, q.Apply(act.Data))
		return out, nil
	case "3BIT_QT":
		q, err := quant.FitKBit(act.Data, 3)
		if err != nil {
			return nil, err
		}
		out := act.Clone()
		copy(out.Data, q.Apply(act.Data))
		return out, nil
	case "THRESHOLD_QT":
		q, err := quant.FitThreshold(act.Data, 0.995)
		if err != nil {
			return nil, err
		}
		out := act.Clone()
		copy(out.Data, q.Apply(act.Data))
		return out, nil
	case "POOL2_QT":
		return quant.Pool(act, 2, quant.Avg), nil
	case "POOL32_QT":
		return quant.Pool(act, max(act.H, act.W), quant.Avg), nil
	}
	return nil, fmt.Errorf("unknown scheme %q", scheme)
}

// unitMeans collapses an activation tensor to per-channel means so that
// heat-maps of pooled and unpooled schemes are comparable (one cell per
// unit/channel, as in ActiVis).
func unitMeans(act *tensor.T4, labels []int, classes int) (*tensor.Dense, error) {
	perChan := tensor.NewDense(act.N, act.C)
	plane := act.H * act.W
	for n := 0; n < act.N; n++ {
		for c := 0; c < act.C; c++ {
			var sum float32
			for _, v := range act.Plane(n, c) {
				sum += v
			}
			perChan.Set(n, c, sum/float32(plane))
		}
	}
	return diag.VIS(perChan, labels, classes)
}

// Fig9 reproduces the VIS fidelity comparison: the per-class mean
// activation heat-map of a mid conv layer under each quantization scheme,
// quantified as max/mean absolute error and rank correlation against full
// precision (the paper compares the heat-maps visually).
func Fig9(o Options) (*Table, error) {
	o = o.withDefaults()
	act, labels, _, _ := rawActivations(o, func(net *nn.Network) int {
		_, mid, _ := vggLayers(net)
		return mid
	})
	full, err := unitMeans(act, labels, 10)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "Fig9",
		Title:  "VIS heat-map fidelity under quantization (vs full precision)",
		Header: []string{"scheme", "max abs err", "mean abs err", "rank corr"},
	}
	for _, scheme := range []string{"FULL", "LP_QT", "8BIT_QT", "POOL2_QT", "POOL32_QT", "3BIT_QT", "THRESHOLD_QT"} {
		recon, err := applyScheme(act, scheme)
		if err != nil {
			return nil, err
		}
		hm, err := unitMeans(recon, labels, 10)
		if err != nil {
			return nil, err
		}
		maxAbs, meanAbs, rank, err := diag.HeatmapDistance(full, hm)
		if err != nil {
			return nil, err
		}
		t.AddRow(scheme, fmt.Sprintf("%.5f", maxAbs), fmt.Sprintf("%.5f", meanAbs), fmt.Sprintf("%.4f", rank))
	}
	t.Note("paper: LP/8BIT/POOL visually indistinguishable from full precision; 3BIT and THRESHOLD show obvious discrepancies")
	return t, nil
}

// Table2 reproduces the SVCCA fidelity comparison: the mean CCA
// coefficient between the network logits and several layer representations
// at full precision vs 8BIT_QT vs POOL_QT(2).
func Table2(o Options) (*Table, error) {
	o = o.withDefaults()
	net := nn.VGG16("vgg16", 10, o.VGGWidth, o.Seed)
	imgs, _ := data.Images(o.DNNExamples, 10, o.Seed+1)
	_, mid, last := vggLayers(net)
	// Layers roughly matching the paper's 11/13/18/21 ladder.
	conv53 := -1
	for i, n := range net.LayerNames() {
		if n == "relu5_3" {
			conv53 = i
		}
	}
	layers := []int{mid, conv53, last - 3, last - 1}
	logits := net.ForwardBatched(imgs, last, 256).Flatten()

	t := &Table{
		ID:     "Table2",
		Title:  "SVCCA mean CCA coefficient: logits vs layer representation",
		Header: []string{"layer", "full precision", "8BIT_QT", "POOL_QT(2)"},
	}
	for _, li := range layers {
		if li < 0 {
			continue
		}
		act := net.ForwardBatched(imgs, li, 256)
		row := []string{net.LayerNames()[li]}
		for _, scheme := range []string{"FULL", "8BIT_QT", "POOL2_QT"} {
			recon, err := applyScheme(act, scheme)
			if err != nil {
				return nil, err
			}
			rep := subsampleCols(recon.Flatten(), 16)
			cca, err := diag.SVCCA(rep, logits)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.4f", cca))
		}
		t.AddRow(row...)
	}
	t.Note("paper: 8BIT_QT tracks full precision closely; POOL(2)'s discrepancy shrinks with layer depth")
	return t, nil
}

// Table3 reproduces the KNN fidelity comparison: overlap between the true
// 50 nearest neighbors (full precision) and those computed on 8BIT_QT and
// POOL_QT(2) representations, at three layers.
func Table3(o Options) (*Table, error) {
	o = o.withDefaults()
	net := nn.VGG16("vgg16", 10, o.VGGWidth, o.Seed)
	imgs, _ := data.Images(o.DNNExamples, 10, o.Seed+1)
	_, mid, last := vggLayers(net)
	layers := []int{mid, (mid + last) / 2, last - 1}
	k := 50
	if k > o.DNNExamples/4 {
		k = o.DNNExamples / 4
	}
	queries := []int{0, 7, 23}

	t := &Table{
		ID:     "Table3",
		Title:  fmt.Sprintf("KNN accuracy (k=%d): overlap with full-precision neighbors", k),
		Header: []string{"layer", "full precision", "8BIT_QT", "POOL_QT(2)"},
	}
	for _, li := range layers {
		act := net.ForwardBatched(imgs, li, 256)
		fullRep := act.Flatten()
		truth := make(map[int][]int, len(queries))
		for _, q := range queries {
			truth[q] = diag.KNN(fullRep, fullRep.Row(q), k, q)
		}
		row := []string{net.LayerNames()[li]}
		for _, scheme := range []string{"FULL", "8BIT_QT", "POOL2_QT"} {
			recon, err := applyScheme(act, scheme)
			if err != nil {
				return nil, err
			}
			rep := recon.Flatten()
			var sum float64
			for _, q := range queries {
				got := diag.KNN(rep, rep.Row(q), k, q)
				sum += diag.Overlap(truth[q], got)
			}
			row = append(row, fmt.Sprintf("%.2f", sum/float64(len(queries))))
		}
		t.AddRow(row...)
	}
	t.Note("paper: 8BIT_QT ~0.94-1.0 overlap; POOL(2) ~0.74-1.0, improving with depth")
	return t, nil
}
