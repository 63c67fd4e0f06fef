// Command mistique-perf is the repository's benchmark: it runs one named
// workload end to end against the program built from this checkout,
// checks the answers, and prints every metric by name with its unit.
// BENCHMARK.json at the repository root names the command, the workloads
// and the metrics; README.md in this directory explains them.
//
//	bash bench/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type options struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	procs    int
	codec    string
	toy      bool
}

func main() {
	var o options
	flag.StringVar(&o.root, "root", ".", "checkout root (holds go.mod and cmd/mistique)")
	flag.StringVar(&o.workload, "workload", "", "serve-warm, lib-cold, write-mixed or cluster-scatter")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "1 makes the traced run that yields the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "traced run: write the recorded spans to this file (JSON lines)")
	flag.IntVar(&o.procs, "procs", 0, "GOMAXPROCS of the harness and its children (0 = all CPUs; diagnostic)")
	flag.StringVar(&o.codec, "codec", "", "lib-cold: partition codec of the store (layer-prediction check only)")
	flag.BoolVar(&o.toy, "toy", false, "toy scale (smoke test)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mistique-perf:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "mistique-perf:", err)
		os.Exit(1)
	}
}

// run executes one workload, traced or not. Progress goes to log.
func run(ctx context.Context, o options, log io.Writer) (*result, error) {
	if o.procs <= 0 {
		o.procs = runtime.NumCPU()
	}
	runtime.GOMAXPROCS(o.procs)
	if _, ok := setups[o.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "mistique")); err != nil {
		return nil, fmt.Errorf("%s is not a checkout of the repository: %w", root, err)
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	e := &env{
		work: work, workload: o.workload, seed: o.seed,
		seconds: time.Duration(o.seconds * float64(time.Second)),
		procs:   o.procs, codec: o.codec, sc: fullScale, traced: o.trace != 0,
	}
	if o.toy {
		e.sc = toyScale
	}
	fmt.Fprintf(log, "workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), o.procs, runtime.Version(), commitOf(root))
	if e.traced {
		return runTraced(ctx, e, o.out)
	}
	e.serveBin = filepath.Join(build, "mistique")
	if err := buildServeBinary(root, e.serveBin); err != nil {
		return nil, err
	}
	return runWorkload(ctx, e)
}

// commitOf names the checkout's commit when it is a git work tree.
func commitOf(root string) string {
	b, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	head := strings.TrimSpace(string(b))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
	}
	return head
}

// report prints every metric by name with its unit, then the notes, and
// as the last line the JSON object the driver reads.
func report(w io.Writer, res *result) error {
	line := func(kind string, m metric) {
		fmt.Fprintf(w, "%-6s %-34s %14.6g %-8s iqr=%.4g n=%d\n", kind, m.name, m.value, m.unit, m.iqr, m.n)
	}
	for _, m := range res.metrics {
		line("metric", m)
	}
	for _, m := range res.diag {
		line("diag", m)
	}
	for i, n := range res.notes {
		if i == 20 {
			fmt.Fprintf(w, "note   ... %d more\n", len(res.notes)-i)
			break
		}
		fmt.Fprintln(w, "note  ", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]value)}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		if _, dup := out.Metrics[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
