// Cross-version dedup across a fine-tuning run: log ten checkpoints of
// the same CNN as delta-linked generations, watch what each epoch
// actually costs on disk, then walk the lineage chain and read an old
// version back through its delta chain.
//
// The run uses the oracle harness from internal/cas/oracletest — the same
// simulated fine-tune the differential tests prove bit-exact — so what
// this example prints is exactly what the test suite verifies.
//
//	go run ./examples/epochs
package main

import (
	"fmt"
	"log"
	"os"

	"mistique"
	"mistique/internal/cas/oracletest"
)

func main() {
	dir, err := os.MkdirTemp("", "mistique-epochs-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Default config: similarity-partitioned store, exact dedup and delta
	// generations on.
	sys, err := mistique.Open(dir, mistique.Config{})
	if err != nil {
		log.Fatal(err)
	}

	const epochs = 10
	sc := oracletest.NewScenario(1, 64)
	// Log pool2 (frozen conv output) and the drifting fc head, each epoch
	// chained to the previous via Parent.
	layers := append([]int{9}, oracletest.FCLayers...)

	fmt.Println("epoch  stored(act)  dedup  delta")
	for e := 0; e < epochs; e++ {
		sc.Advance(e)
		rep, err := oracletest.LogEpoch(sys, sc.Snapshot(), sc.Input, "cnn", e,
			mistique.SchemeFull, true, layers)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d  %8d B  %5d  %5d\n", e, rep.StoredBytes, rep.ColumnsDedup, rep.ColumnsDelta)
	}
	if err := sys.Flush(); err != nil {
		log.Fatal(err)
	}

	// Walk the lineage chain of the last checkpoint, newest first.
	chain, err := sys.Lineage(oracletest.VersionName("cnn", epochs-1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nlineage of", chain[0].Model)
	for _, e := range chain {
		parent := e.Parent
		if parent == "" {
			parent = "(root)"
		}
		fmt.Printf("  %s <- %s  interms=%d stored=%d B chain-depth=%d\n",
			e.Model, parent, e.Intermediates, e.StoredBytes, e.MaxDeltaDepth)
	}

	// Read an early version back: the store pages in its delta chain and
	// reconstructs bit-exact activations.
	mid := oracletest.VersionName("cnn", 2)
	res, err := sys.GetIntermediate(mid, "logits", nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nread %s/logits via %s: %dx%d values, first logit of image 0 = %.4f\n",
		mid, res.Strategy, res.Data.Rows, res.Data.Cols, res.Data.At(0, 0))

	total, err := sys.DiskBytes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d checkpoints on disk: %d B total\n", epochs, total)
}
