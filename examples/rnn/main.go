// RNN diagnosis: the paper's future-work extension to recurrent models.
// An Elman RNN is expressed as shared-weight step layers, so every
// timestep's hidden state is a loggable intermediate — query how the
// hidden representation separates classes as the sequence unfolds.
//
//	go run ./examples/rnn
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
	dir, err := os.MkdirTemp("", "mistique-rnn-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	const (
		seqLen   = 10
		inputDim = 2
		hidden   = 12
		classes  = 3
	)
	seqs, labels := data.Sequences(120, seqLen, inputDim, classes, 1)
	net := nn.ElmanRNN("rnn", seqLen, inputDim, hidden, classes, 2)
	net.TrainEpochs(seqs, labels, 25, 24, 0.05, nil)
	fmt.Printf("trained Elman RNN: accuracy %.2f on %d sequences\n", net.Accuracy(seqs, labels), seqs.N)

	sys, err := mistique.Open(dir, mistique.Config{
		Store: colstore.Config{RowBlockRows: 64, Mode: colstore.ModeArrival},
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sys.LogDNN("rnn", net, seqs, mistique.DNNLogOptions{Scheme: mistique.SchemeFull})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("logged %d step intermediates (%d B stored; %d pass-through chunks deduped)\n\n",
		rep.Intermediates, rep.StoredBytes, rep.ColumnsDedup)

	// How does class separation evolve across timesteps? Fetch each step's
	// hidden state from the store and measure SVCCA against the logits.
	logits, err := sys.GetIntermediate("rnn", "logits", nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	hiddenCols := make([]string, hidden)
	for j := range hiddenCols {
		hiddenCols[j] = fmt.Sprintf("u%d", seqLen*inputDim+j) // the hidden tail
	}
	fmt.Println("SVCCA(hidden state at step t, final logits):")
	for t := 0; t < seqLen; t += 2 {
		res, err := sys.GetIntermediate("rnn", fmt.Sprintf("step%d", t), hiddenCols, 0)
		if err != nil {
			log.Fatal(err)
		}
		cca, err := diag.SVCCA(res.Data, logits.Data)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  step %2d: %.4f  (fetched via %s)\n", t, cca, res.Strategy)
	}

	// Per-class mean hidden activations at the final step (the VIS query).
	last, err := sys.GetIntermediate("rnn", fmt.Sprintf("step%d", seqLen-1), hiddenCols, 0)
	if err != nil {
		log.Fatal(err)
	}
	heat, err := diag.VIS(last.Data, labels, classes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nVIS — mean final hidden state per class (first 6 units):")
	for c := 0; c < classes; c++ {
		fmt.Printf("  class %d:", c)
		for j := 0; j < 6; j++ {
			fmt.Printf(" %+6.3f", heat.At(c, j))
		}
		fmt.Println()
	}
}
