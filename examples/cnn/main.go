// CNN activation diagnosis: log a convolutional network's per-layer
// activations across two fine-tuning checkpoints, then run the paper's DNN
// diagnostics — TOPK activating images, per-class VIS means, SVCCA layer
// similarity and NetDissect concept alignment — against the store.
//
//	go run ./examples/cnn
package main

import (
	"fmt"
	"log"
	"os"

	"mistique"
	"mistique/internal/colstore"
	"mistique/internal/data"
	"mistique/internal/diag"
	"mistique/internal/nn"
)

func main() {
	dir, err := os.MkdirTemp("", "mistique-cnn-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	sys, err := mistique.Open(dir, mistique.Config{
		Store: colstore.Config{RowBlockRows: 128, Mode: colstore.ModeArrival},
	})
	if err != nil {
		log.Fatal(err)
	}

	// A VGG16-shaped network fine-tuned on synthetic CIFAR10-like images:
	// conv stack frozen, FC head trainable — the paper's CIFAR10_VGG16.
	const classes = 10
	net := nn.VGG16("vgg16", classes, 2, 1)
	net.FreezeConv()
	imgs, labels := data.Images(256, classes, 2)

	// Log two checkpoints. Frozen conv layers produce byte-identical
	// activations, so epoch 1 dedups against epoch 0.
	for epoch := 0; epoch < 2; epoch++ {
		name := fmt.Sprintf("vgg16@e%d", epoch)
		rep, err := sys.LogDNN(name, net, imgs, mistique.DNNLogOptions{Scheme: mistique.SchemePool2})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("logged %s: %d layer intermediates, %d B stored, %d chunks deduped\n",
			name, rep.Intermediates, rep.StoredBytes, rep.ColumnsDedup)
		if epoch == 0 {
			net.TrainEpochs(imgs, labels, 1, 32, 0.05, func(_ int, loss float64) {
				fmt.Printf("  fine-tuned FC head for 1 epoch (loss %.3f)\n", loss)
			})
		}
	}

	// --- TOPK: which images excite unit 3 of conv3_3 the most? ---
	res, err := sys.GetIntermediate("vgg16@e1", "conv3_3", []string{"u3"}, 0)
	if err != nil {
		log.Fatal(err)
	}
	top := diag.TopK(res.Data.Col(0), 5)
	fmt.Printf("\nTOPK — images most activating conv3_3/u3 (fetched via %s): %v\n", res.Strategy, top)
	fmt.Print("their classes: ")
	for _, i := range top {
		fmt.Printf("%d ", labels[i])
	}
	fmt.Println()

	// --- VIS: per-class mean activations of the FC layer ---
	fc, err := sys.GetIntermediate("vgg16@e1", "relu_fc1", nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	heat, err := diag.VIS(fc.Data, labels, classes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nVIS — mean activation of the first 8 fc1 units per class:")
	for c := 0; c < classes; c += 3 {
		fmt.Printf("  class %d:", c)
		for j := 0; j < 8 && j < heat.Cols; j++ {
			fmt.Printf(" %6.3f", heat.At(c, j))
		}
		fmt.Println()
	}

	// --- SVCCA: how similar are conv4_3 and the logits? ---
	rep4, err := sys.GetIntermediate("vgg16@e1", "conv4_3", nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	logits, err := sys.GetIntermediate("vgg16@e1", "logits", nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	sub := rep4.Data.SelectCols(stride(rep4.Data.Cols, 12))
	cca, err := diag.SVCCA(sub, logits.Data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSVCCA — mean CCA coefficient between conv4_3 and logits: %.4f\n", cca)

	// --- NetDissect: does any conv1_1 unit align with "bright region"? ---
	raw, err := sys.RerunRawDNN("vgg16@e1", "conv1_1", 64)
	if err != nil {
		log.Fatal(err)
	}
	concept := data.ConceptMasks(imgs, 64)
	iou, err := diag.NetDissect(raw, concept, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	best, bestIoU := 0, 0.0
	for k, v := range iou {
		if v > bestIoU {
			best, bestIoU = k, v
		}
	}
	fmt.Printf("NetDissect — conv1_1 unit best aligned with the brightness concept: u%d (IoU %.3f)\n", best, bestIoU)
}

func stride(total, want int) []int {
	if want > total {
		want = total
	}
	step := total / want
	out := make([]int, 0, want)
	for j := 0; j < total && len(out) < want; j += step {
		out = append(out, j)
	}
	return out
}
