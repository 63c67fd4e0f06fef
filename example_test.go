package mistique_test

// Runnable godoc examples for the public API. Each uses deterministic
// synthetic data so the Output blocks are stable.

import (
	"fmt"
	"log"
	"os"
	"slices"

	"mistique"
	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/data"
	"mistique/internal/nn"
	"mistique/internal/pipeline"
	"mistique/internal/zillow"
)

// Example logs a small pipeline and queries one of its intermediates.
func Example() {
	dir, _ := os.MkdirTemp("", "mq-example-*")
	defer os.RemoveAll(dir)

	sys, err := mistique.Open(dir, mistique.Config{})
	if err != nil {
		log.Fatal(err)
	}

	spec, err := pipeline.SpecFromYAML(`
name: demo
stages:
  - name: props
    op: read_table
    params: {table: properties}
  - name: sales
    op: read_table
    params: {table: train}
  - name: joined
    op: join
    inputs: [sales, props]
    params: {on: parcelid}
`)
	if err != nil {
		log.Fatal(err)
	}
	p, err := pipeline.New(spec)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.LogPipeline(p, zillow.Env(100, 400, 1)); err != nil {
		log.Fatal(err)
	}

	res, err := sys.GetIntermediate("demo", "joined", []string{"logerror"}, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Strategy, res.Data.Rows, res.Data.Cols)
	// Output: READ 5 1
}

// ExampleSystem_LogDNN logs a network's layer activations and reads one
// layer back.
func ExampleSystem_LogDNN() {
	dir, _ := os.MkdirTemp("", "mq-example-*")
	defer os.RemoveAll(dir)

	sys, err := mistique.Open(dir, mistique.Config{Store: colstore.Config{RowBlockRows: 64}})
	if err != nil {
		log.Fatal(err)
	}
	net := nn.SimpleCNN("cnn", 4, 1)
	imgs, _ := data.Images(64, 4, 2)
	rep, err := sys.LogDNN("cnn", net, imgs, mistique.DNNLogOptions{Scheme: mistique.SchemePool2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("intermediates:", rep.Intermediates)

	res, err := sys.GetIntermediate("cnn", "logits", nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("logits shape:", res.Data.Rows, "x", res.Data.Cols)
	// Output:
	// intermediates: 14
	// logits shape: 64 x 4
}

// ExampleSystem_Fetch measures both sides of the read-vs-re-run trade-off
// by forcing each strategy.
func ExampleSystem_Fetch() {
	dir, _ := os.MkdirTemp("", "mq-example-*")
	defer os.RemoveAll(dir)

	sys, _ := mistique.Open(dir, mistique.Config{})
	spec, _ := pipeline.SpecFromYAML(`
name: demo
stages:
  - name: sales
    op: read_table
    params: {table: train}
  - name: filled
    op: fillna
    inputs: [sales]
`)
	p, _ := pipeline.New(spec)
	if _, err := sys.LogPipeline(p, zillow.Env(100, 400, 1)); err != nil {
		log.Fatal(err)
	}

	read, _ := sys.Fetch("demo", "filled", nil, 0, cost.Read)
	rerun, _ := sys.Fetch("demo", "filled", nil, 0, cost.Rerun)
	same := read.Data.Cols == rerun.Data.Cols && slices.Equal(read.Data.Data, rerun.Data.Data)
	fmt.Println("read equals rerun:", same)
	// Output: read equals rerun: true
}
