package main

// surface.go is the only file of the harness that calls into the program
// under test. It keeps to the surface ROADMAP.md says later refactors
// preserve: client.Client methods, mistique.Open/Config and the *Ctx
// System methods, server.New/Config, cluster.New/Router, the serve flags
// -addr -pipelines -shard -seed, /metrics, and for layer probes
// codec.ByName, quant.Quantizer.Encode/Decode, colstore.Store
// GetColumn/PutColumn/Flush/DropCache, nindex.Manager TopK/FilterRows,
// sample.Builder/Sample, wal.Log.AppendBatch and cas.Store.Put.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mistique"
	"mistique/client"
	"mistique/internal/cas"
	"mistique/internal/cas/oracletest"
	"mistique/internal/cluster"
	"mistique/internal/codec"
	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/data"
	"mistique/internal/nindex"
	"mistique/internal/obs"
	"mistique/internal/quant"
	smp "mistique/internal/sample"
	"mistique/internal/server"
	"mistique/internal/tensor"
	"mistique/internal/wal"
	"mistique/internal/zillow"
)

// ---------------------------------------------------------------------
// Building and running `mistique serve` children.

// buildServeBinary compiles ./cmd/mistique of the checkout at root.
func buildServeBinary(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/mistique")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/mistique: %v\n%s", err, b)
	}
	return nil
}

// child is one running `mistique serve` process.
type child struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	done   chan struct{} // closed once the stdout drain has ended
}

var servingLine = regexp.MustCompile(`serving queries on (http://[^/]+)/`)

// startServe launches `mistique -dir dir serve -addr 127.0.0.1:0 ...` and
// returns once the child has printed its listen address, which it does
// after logging its pipelines and binding the port.
func startServe(bin, dir string, pipelines int, seed int64, shard, codecName string, procs int) (*child, error) {
	args := []string{"-dir", dir, "serve", "-addr", "127.0.0.1:0",
		"-pipelines", strconv.Itoa(pipelines), "-seed", strconv.FormatInt(seed, 10)}
	if shard != "" {
		args = append(args, "-shard", shard)
	}
	if codecName != "" {
		// Only the layer-prediction check sets this (harness flag -codec).
		args = append(args, "-codec", codecName)
	}
	c := &child{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	c.cmd.Stderr = &c.stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	urlCh := make(chan string, 1)
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case urlCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case c.url = <-urlCh:
		return c, nil
	case <-c.done:
		_ = c.cmd.Wait()
		return nil, fmt.Errorf("mistique serve exited before listening: %s", c.stderr.String())
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, errors.New("mistique serve did not start listening within 60s")
	}
}

// kill sends SIGKILL and reaps the child.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
	_ = c.cmd.Wait()
}

// terminate sends SIGTERM (graceful drain + flush) and reaps the child.
func (c *child) terminate() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	<-c.done
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("mistique serve: %v: %s", err, c.stderr.String())
	}
	return nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// rssPeakMB reads a live process's peak resident set (VmHWM).
func rssPeakMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// scrapeMetrics fetches a server's /metrics and returns every plain
// series (histogram buckets skipped; _sum and _count kept).
func scrapeMetrics(baseURL string) (map[string]float64, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// systemMetrics flattens an in-process System's snapshot to the same
// shape, adding <hist>_p50 for histograms.
func systemMetrics(sys *mistique.System) map[string]float64 {
	snap := sys.Metrics()
	out := make(map[string]float64, len(snap.Counters)+len(snap.Gauges)+3*len(snap.Histograms))
	for k, v := range snap.Counters {
		out[k] = float64(v)
	}
	for k, v := range snap.Gauges {
		out[k] = float64(v)
	}
	for k, h := range snap.Histograms {
		out[k+"_sum"] = h.Sum
		out[k+"_count"] = float64(h.Count)
		out[k+"_p50"] = h.P50
	}
	return out
}

// registryMetrics flattens a bare obs registry (the cluster router's).
func registryMetrics(reg *obs.Registry) map[string]float64 {
	snap := reg.Snapshot()
	out := make(map[string]float64, len(snap.Counters))
	for k, v := range snap.Counters {
		out[k] = float64(v)
	}
	return out
}

// ---------------------------------------------------------------------
// The library: opening a System and logging models into it.

// serveConfig mirrors the Config `mistique serve` opens its store with,
// so a directory the harness populates through the library reopens under
// a child with the same placement policy.
func serveConfig(codecName string) mistique.Config {
	cfg := mistique.Config{Cost: cost.DefaultParams()}
	cfg.Store.Mode = colstore.ModeSimilarity
	cfg.Store.Codec = codecName
	return cfg
}

// dnnConfig is the paper's DNN store configuration (exact dedup only)
// with a buffer pool of poolBytes and the named partition codec.
func dnnConfig(poolBytes int64, codecName string) mistique.Config {
	cfg := mistique.Config{Cost: cost.DefaultParams()}
	cfg.Store.MemBudgetBytes = poolBytes
	cfg.Store.PartitionTargetBytes = poolBytes / 4
	cfg.Store.DisableApproxDedup = true
	cfg.Store.Codec = codecName
	return cfg
}

func openSystem(dir string, cfg mistique.Config) (*mistique.System, error) {
	return mistique.Open(dir, cfg)
}

// logZillow logs the first n Zillow pipelines and returns the raw float32
// bytes of the intermediates handed to the store.
func logZillow(sys *mistique.System, n int, seed int64) (rawBytes int64, err error) {
	env := zillow.Env(400, 2048, seed)
	pipes, err := zillow.Build(env)
	if err != nil {
		return 0, err
	}
	if n > len(pipes) {
		n = len(pipes)
	}
	for _, p := range pipes[:n] {
		rep, err := sys.LogPipeline(p, env)
		if err != nil {
			return 0, fmt.Errorf("log pipeline %s: %w", p.Name, err)
		}
		rawBytes += rep.LogicalBytes // FULL scheme: logical bytes are the raw float32 bytes
	}
	return rawBytes, nil
}

const cnnWeightSeed = 7

// cnnLayers are the SimpleCNN layers the harness logs when it restricts a
// checkpoint: the last pooled conv output and the fine-tuning head.
var cnnLayers = append([]int{9}, oracletest.FCLayers...)

// logCNN logs `epochs` Parent-linked fine-tune checkpoints of a SimpleCNN
// over nImages synthetic images under LP_QT and returns the model names
// and the raw float32 bytes logged. layers nil logs every layer.
func logCNN(sys *mistique.System, epochs, nImages int, seed int64, layers []int) (models []string, rawBytes int64, err error) {
	// The network is the same on every seed; only its input images are
	// generated from the seed. (Different weights leave different neurons
	// dead, and the stored bytes would swing by 15% from seed to seed.)
	sc := oracletest.NewScenario(cnnWeightSeed, nImages)
	sc.Input, _ = data.Images(nImages, 4, seed)
	for e := 0; e < epochs; e++ {
		sc.Advance(e)
		rep, err := oracletest.LogEpoch(sys, sc.Snapshot(), sc.Input, "cnn", e, mistique.SchemeLP, true, layers)
		if err != nil {
			return nil, 0, fmt.Errorf("log cnn epoch %d: %w", e, err)
		}
		models = append(models, oracletest.VersionName("cnn", e))
		rawBytes += 2 * rep.LogicalBytes // LP_QT keeps 2 of every 4 raw bytes
	}
	return models, rawBytes, nil
}

// intermInfo is the catalog entry the generators need.
type intermInfo struct {
	Name string
	Cols []string
	Rows int
}

// libCatalog lists a model's intermediates from an in-process System.
func libCatalog(sys *mistique.System, model string) []intermInfo {
	var out []intermInfo
	for _, it := range sys.Metadata().IntermSnapshots(model) {
		out = append(out, intermInfo{Name: it.Name, Cols: it.Columns, Rows: it.Rows})
	}
	return out
}

// clientCatalog lists every model's intermediates over HTTP.
func clientCatalog(ctx context.Context, c *client.Client) (map[string][]intermInfo, error) {
	models, err := c.Models(ctx)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]intermInfo, len(models))
	for _, m := range models {
		for _, it := range m.Intermediates {
			out[m.Name] = append(out[m.Name], intermInfo{Name: it.Name, Cols: it.Columns, Rows: it.Rows})
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Targets: the three ways a request reaches the program.

func newClient(baseURL string, retries int) (*client.Client, error) {
	// One keep-alive connection per Client: a "connection" of the load
	// generator is one Client.
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return client.New(baseURL, client.WithHTTPClient(&http.Client{Transport: tr}),
		client.WithMaxRetries(retries), client.WithTimeout(30*time.Second))
}

// clientTarget issues requests through one client.Client.
type clientTarget struct{ c *client.Client }

func (t clientTarget) Do(ctx context.Context, r *request) (*reply, error) {
	rep := &reply{}
	switch r.Class {
	case pointq:
		resp, err := t.c.GetRows(ctx, r.Model, r.Interm, r.Cols, r.From, r.To)
		if err != nil {
			return nil, err
		}
		rep.raw = resp
	case topk:
		if r.MaxErr > 0 {
			resp, err := t.c.ApproxTopK(ctx, r.Model, r.Interm, r.Col, r.K, r.MaxErr)
			if err != nil {
				return nil, err
			}
			rep.raw, rep.Strategy, rep.FetchSecs = resp, resp.Strategy, resp.FetchSeconds
			break
		}
		resp, err := t.c.TopK(ctx, r.Model, r.Interm, r.Col, r.K)
		if err != nil {
			return nil, err
		}
		rep.raw = resp
	case filter:
		resp, err := t.c.FilterRows(ctx, r.Model, r.Interm, r.Col, r.Cmp, float64(r.Bound))
		if err != nil {
			return nil, err
		}
		rep.raw = resp
	case coldist:
		resp, err := t.c.ColDist(ctx, r.Model, r.Interm, r.Col, r.MaxErr)
		if err != nil {
			return nil, err
		}
		rep.raw, rep.Strategy, rep.FetchSecs = resp, resp.Strategy, resp.FetchSeconds
	case fetch:
		var resp *client.QueryResponse
		var err error
		if r.Strategy == "" {
			resp, err = t.c.GetIntermediate(ctx, r.Model, r.Interm, r.Cols, r.NEx)
		} else {
			resp, err = t.c.Fetch(ctx, r.Model, r.Interm, r.Cols, r.NEx, r.Strategy)
		}
		if err != nil {
			return nil, err
		}
		rep.raw, rep.Strategy, rep.FetchSecs = resp, resp.Strategy, resp.FetchSeconds
		rep.EstRead, rep.EstRerun = resp.EstReadSecs, resp.EstRerunSecs
	case ingest:
		resp, err := t.c.IngestRows(ctx, r.Model, r.Interm, r.Cols, r.Rows)
		if err != nil {
			return nil, err
		}
		rep.Acked, rep.Flushed = resp.Rows, resp.FlushedRows
	default:
		return nil, fmt.Errorf("client target: no %s", r.Class)
	}
	return rep, nil
}

func (clientTarget) Decode(r *request, rep *reply) {
	switch v := rep.raw.(type) {
	case *client.RowsResponse:
		rep.Matrix = wireMatrix(v.Data)
	case *client.QueryResponse:
		rep.Matrix = wireMatrix(v.Data)
	case []client.TopKEntry:
		rep.TopK = make([]rank, len(v))
		for i, e := range v {
			rep.TopK[i] = rank{Row: e.Row, Value: float32(e.Value)}
		}
	case *client.ApproxTopKResponse:
		rep.TopK = make([]rank, len(v.Entries))
		for i, e := range v.Entries {
			rep.TopK[i] = rank{Row: int(e.Row), Value: float32(e.Value)}
		}
		rep.Approx = &approx{RankBound: v.RankBound, Rows: v.Rows, SampleRows: v.SampleRows}
	case []int:
		rep.Rows = v
	case *client.ColDistResponse:
		rep.Dist = &dist{Rows: v.Rows, Finite: v.Finite, NaN: v.NaN, PosInf: v.PosInf, NegInf: v.NegInf,
			Min: float32(v.Min), Max: float32(v.Max), Mean: v.Mean, MeanBound: v.MeanBound, Std: v.Std,
			P50: float32(v.P50), P50RankBound: v.P50RankBound, SampleRows: v.SampleRows}
	}
}

func wireMatrix(rows [][]client.F32) [][]float32 {
	out := make([][]float32, len(rows))
	for i, r := range rows {
		out[i] = client.Floats(r)
	}
	return out
}

// libTarget calls the *Ctx methods of an in-process System.
type libTarget struct{ sys *mistique.System }

var cmpOps = map[string]colstore.Op{"gt": colstore.Gt, "ge": colstore.Ge, "lt": colstore.Lt, "le": colstore.Le}

func strategyOf(name string) (cost.Strategy, error) {
	switch name {
	case cost.Read.String():
		return cost.Read, nil
	case cost.Rerun.String():
		return cost.Rerun, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", name)
}

func (t libTarget) Do(ctx context.Context, r *request) (*reply, error) {
	rep := &reply{}
	switch r.Class {
	case pointq:
		m, err := t.sys.GetRowsCtx(ctx, r.Model, r.Interm, r.Cols, r.From, r.To)
		if err != nil {
			return nil, err
		}
		rep.raw = m
	case topk:
		if r.MaxErr > 0 {
			a, err := t.sys.ApproxTopKCtx(ctx, r.Model, r.Interm, r.Col, r.K, r.MaxErr)
			if err != nil {
				return nil, err
			}
			rep.raw, rep.Strategy, rep.FetchSecs = a, a.Strategy.String(), a.FetchSeconds
			break
		}
		es, err := t.sys.TopKCtx(ctx, r.Model, r.Interm, r.Col, r.K)
		if err != nil {
			return nil, err
		}
		rep.raw = es
	case filter:
		rows, err := t.sys.FilterRowsCtx(ctx, r.Model, r.Interm, r.Col, cmpOps[r.Cmp], r.Bound)
		if err != nil {
			return nil, err
		}
		rep.raw = rows
	case coldist:
		d, err := t.sys.ColDistCtx(ctx, r.Model, r.Interm, r.Col, r.MaxErr)
		if err != nil {
			return nil, err
		}
		rep.raw, rep.Strategy, rep.FetchSecs = d, d.Strategy.String(), d.FetchSeconds
		rep.EstRead, rep.EstSample = d.EstReadSecs, d.EstSampleSecs
	case fetch:
		var res *mistique.Result
		var err error
		if r.Strategy == "" {
			res, err = t.sys.GetIntermediateCtx(ctx, r.Model, r.Interm, r.Cols, r.NEx)
		} else {
			var st cost.Strategy
			if st, err = strategyOf(r.Strategy); err == nil {
				res, err = t.sys.FetchCtx(ctx, r.Model, r.Interm, r.Cols, r.NEx, st)
			}
		}
		if err != nil {
			return nil, err
		}
		rep.raw, rep.Strategy, rep.FetchSecs = res, res.Strategy.String(), res.FetchSeconds
		rep.EstRead, rep.EstRerun = res.EstReadSecs, res.EstRerunSecs
	case ingest:
		// IngestRows has no Ctx twin; it is the only entry point.
		res, err := t.sys.IngestRows(r.Model, r.Interm, r.Cols, r.Rows)
		if err != nil {
			return nil, err
		}
		rep.Acked, rep.Flushed = res.Rows, res.FlushedRows
	default:
		return nil, fmt.Errorf("lib target: no %s", r.Class)
	}
	return rep, nil
}

func (libTarget) Decode(r *request, rep *reply) {
	switch v := rep.raw.(type) {
	case *mistique.Result:
		rep.Matrix = denseRows(v.Data.Rows, v.Data.Cols, v.Data.Data)
	case []mistique.TopKEntry:
		rep.TopK = engineRanks(v)
	case *mistique.TopKApprox:
		rep.TopK = make([]rank, len(v.Entries))
		for i, e := range v.Entries {
			rep.TopK[i] = rank{Row: int(e.Row), Value: e.Value}
		}
		rep.Approx = &approx{RankBound: v.RankBound, Rows: v.Rows, SampleRows: v.SampleRows}
	case []int:
		rep.Rows = v
	case *mistique.ColDist:
		rep.Dist = &dist{Rows: v.Rows, Finite: v.Finite, NaN: v.NaN, PosInf: v.PosInf, NegInf: v.NegInf,
			Min: v.Min, Max: v.Max, Mean: v.Mean, MeanBound: v.MeanBound, Std: v.Std,
			P50: v.P50, P50RankBound: v.P50RankBound, SampleRows: v.SampleRows}
	case *tensor.Dense:
		rep.Matrix = denseRows(v.Rows, v.Cols, v.Data)
	}
}

func engineRanks(es []mistique.TopKEntry) []rank {
	out := make([]rank, len(es))
	for i, e := range es {
		out[i] = rank{Row: e.Row, Value: e.Value}
	}
	return out
}

func denseRows(rows, cols int, data []float32) [][]float32 {
	out := make([][]float32, rows)
	for i := range out {
		out[i] = data[i*cols : (i+1)*cols]
	}
	return out
}

// routerTarget issues the four router-capable classes through a
// cluster.Router and, because the router has no ColDist yet, sends
// coldist to the shards round-robin through their own clients.
type routerTarget struct {
	r      *cluster.Router
	shards []*client.Client
	next   *atomic.Uint64
}

func (t routerTarget) Do(ctx context.Context, r *request) (*reply, error) {
	rep := &reply{}
	switch r.Class {
	case pointq:
		res, err := t.r.GetRows(ctx, r.Model, r.Interm, r.Cols, r.From, r.To)
		if err != nil {
			return nil, err
		}
		rep.raw = res
	case topk:
		res, err := t.r.TopK(ctx, r.Model, r.Interm, r.Col, r.K)
		if err != nil {
			return nil, err
		}
		rep.raw = res
	case filter:
		res, err := t.r.FilterRows(ctx, r.Model, r.Interm, r.Col, r.Cmp, float64(r.Bound))
		if err != nil {
			return nil, err
		}
		rep.raw = res
	case fetch:
		res, err := t.r.GetIntermediate(ctx, r.Model, r.Interm, r.Cols, r.NEx)
		if err != nil {
			return nil, err
		}
		rep.raw, rep.Strategy = res, cost.Read.String()
	case coldist:
		c := t.shards[int(t.next.Add(1))%len(t.shards)]
		return clientTarget{c}.Do(ctx, r)
	default:
		return nil, fmt.Errorf("router target: no %s", r.Class)
	}
	return rep, nil
}

func (t routerTarget) Decode(r *request, rep *reply) {
	switch v := rep.raw.(type) {
	case *cluster.RowsResult:
		rep.Matrix = v.Data
	case *cluster.TopKResult:
		rep.TopK = engineRanks(v.Entries)
	case *cluster.FilterResult:
		rep.Rows = v.Rows
	default:
		clientTarget{}.Decode(r, rep)
	}
}

// shardCall is one sub-request a router made to a shard.
type shardCall struct {
	start time.Time
	dur   time.Duration
}

// timedBackend wraps a shard backend and records every sub-request, so
// the traced run can take the router's self time as its call minus the
// slowest shard call inside it.
type timedBackend struct {
	cluster.Backend
	mu    *sync.Mutex
	calls *[]shardCall
}

func (b timedBackend) note(start time.Time) {
	b.mu.Lock()
	*b.calls = append(*b.calls, shardCall{start: start, dur: time.Since(start)})
	b.mu.Unlock()
}

func (b timedBackend) FilterRowsRange(ctx context.Context, model, interm, column, op string, bound float64, from, to int) ([]int, error) {
	defer b.note(time.Now())
	return b.Backend.FilterRowsRange(ctx, model, interm, column, op, bound, from, to)
}

func (b timedBackend) TopKRange(ctx context.Context, model, interm, column string, k, from, to int) ([]client.TopKEntry, error) {
	defer b.note(time.Now())
	return b.Backend.TopKRange(ctx, model, interm, column, k, from, to)
}

func (b timedBackend) GetRows(ctx context.Context, model, interm string, cols []string, from, to int) (*client.RowsResponse, error) {
	defer b.note(time.Now())
	return b.Backend.GetRows(ctx, model, interm, cols, from, to)
}

// routerHandle is a router plus what the harness reads back from it.
type routerHandle struct {
	target routerTarget
	reg    *obs.Registry
	mu     sync.Mutex
	calls  []shardCall
}

// drainCalls returns and clears the shard sub-requests recorded so far.
func (h *routerHandle) drainCalls() []shardCall {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.calls
	h.calls = nil
	return out
}

func (h *routerHandle) close() { h.target.r.Close() }

// newRouter builds a cluster.Router over the shard URLs (replication 2
// clamped to the shard count, block-rows 512). timed wraps each backend
// in a timedBackend.
func newRouter(urls []string, timed bool) (*routerHandle, error) {
	h := &routerHandle{reg: obs.New()}
	var shards []cluster.Shard
	var clients []*client.Client
	for i, u := range urls {
		// The router owns retries, hedging and failover.
		c, err := client.New(u, client.WithMaxRetries(0), client.WithTimeout(30*time.Second))
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
		var be cluster.Backend = cluster.NewHTTPBackend(c)
		if timed {
			be = timedBackend{Backend: be, mu: &h.mu, calls: &h.calls}
		}
		shards = append(shards, cluster.Shard{ID: cluster.ShardID(fmt.Sprintf("s%d", i)), Backend: be})
	}
	r, err := cluster.New(shards, cluster.Config{Replication: 2, BlockRows: 512, Obs: h.reg})
	if err != nil {
		return nil, err
	}
	h.target = routerTarget{r: r, shards: clients, next: new(atomic.Uint64)}
	return h, nil
}

// ---------------------------------------------------------------------
// Hosting the stack inside the harness (traced run).

// hostInProcess serves sys through server.New(...).Handler() behind a
// harness-owned loopback listener; wrap is the harness middleware.
func hostInProcess(sys *mistique.System, shard string, wrap func(http.Handler) http.Handler) (baseURL string, stop func(), err error) {
	srv := server.New(sys, server.Config{ShardName: shard})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: wrap(srv.Handler())}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	stop = func() {
		_ = hs.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// wireEncode marshals a request the way client.Client does, with the
// client package's own wire types.
func wireEncode(r *request) ([]byte, error) {
	switch r.Class {
	case pointq:
		return json.Marshal(client.RowsRequest{Model: r.Model, Intermediate: r.Interm, Cols: r.Cols, From: r.From, To: r.To})
	case topk:
		if r.MaxErr > 0 {
			return json.Marshal(client.ApproxTopKRequest{Model: r.Model, Intermediate: r.Interm, Column: r.Col, K: r.K, MaxError: r.MaxErr})
		}
		return json.Marshal(client.TopKRequest{Model: r.Model, Intermediate: r.Interm, Column: r.Col, K: r.K})
	case filter:
		return json.Marshal(client.FilterRequest{Model: r.Model, Intermediate: r.Interm, Column: r.Col, Op: r.Cmp, Bound: float64(r.Bound)})
	case coldist:
		return json.Marshal(client.ColDistRequest{Model: r.Model, Intermediate: r.Interm, Column: r.Col, MaxError: r.MaxErr})
	case fetch:
		return json.Marshal(client.QueryRequest{Model: r.Model, Intermediate: r.Interm, Cols: r.Cols, NEx: r.NEx, Strategy: r.Strategy})
	case ingest:
		req := client.IngestRequest{Columns: r.Cols, Rows: make([][]client.F32, len(r.Rows))}
		for i, row := range r.Rows {
			w := make([]client.F32, len(row))
			for j, v := range row {
				w[j] = client.F32(v)
			}
			req.Rows[i] = w
		}
		return json.Marshal(req)
	}
	return nil, fmt.Errorf("wire encode: no %s", r.Class)
}

// wireDecode unmarshals a captured response body into the client wire
// type of the request's class.
func wireDecode(r *request, body []byte) error {
	var dst any
	switch c := r.Class; c {
	case pointq:
		dst = new(client.RowsResponse)
	case topk:
		dst = new(client.TopKResponse)
		if r.MaxErr > 0 {
			dst = new(client.ApproxTopKResponse)
		}
	case filter:
		dst = new(client.FilterResponse)
	case coldist:
		dst = new(client.ColDistResponse)
	case fetch:
		dst = new(client.QueryResponse)
	case ingest:
		dst = new(client.IngestResponse)
	default:
		return fmt.Errorf("wire decode: no %s", r.Class)
	}
	return json.Unmarshal(body, dst)
}

// estimateProbe times the cost model's read-vs-rerun estimate for a
// fetch, through the client's Estimate call minus nothing: the estimate
// endpoint does no other work.
func estimateProbe(ctx context.Context, c *client.Client, model, interm string, nEx int) (time.Duration, error) {
	t0 := time.Now()
	_, err := c.Estimate(ctx, model, interm, nEx)
	return time.Since(t0), err
}

// ---------------------------------------------------------------------
// Layer probes. Each times direct calls into one layer with data the
// workload itself produced, and returns plain numbers.

const mb = 1e6

// partitionImages reads up to maxBytes of the partition files a store
// wrote under dir/data and returns their uncompressed images.
func partitionImages(dir string, maxBytes int64) ([][]byte, error) {
	files, err := filepath.Glob(filepath.Join(dir, "data", "partition_*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var out [][]byte
	var total int64
	for _, f := range files {
		comp, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		img, err := decodeImage(comp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, img)
		if total += int64(len(img)); total >= maxBytes {
			break
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no partition files under %s", dir)
	}
	return out, nil
}

// decodeImage undoes the partition file framing: a bare gzip stream, or
// "MQPC" | version | codec id | payload.
func decodeImage(comp []byte) ([]byte, error) {
	if len(comp) >= 2 && comp[0] == 0x1f && comp[1] == 0x8b {
		c, err := codec.ByName("gzip")
		if err != nil {
			return nil, err
		}
		return c.Decompress(nil, comp)
	}
	if len(comp) >= 7 && string(comp[:4]) == "MQPC" {
		for _, name := range []string{"actz", "store", "gzip"} {
			c, err := codec.ByName(name)
			if err != nil {
				return nil, err
			}
			if c.ID() == comp[6] {
				return c.Decompress(nil, comp[7:])
			}
		}
	}
	return nil, errors.New("unknown partition file framing")
}

// codecProbe compresses and decompresses the images with one codec.
func codecProbe(name string, images [][]byte) (encMBs, decMBs, ratio float64, err error) {
	c, err := codec.ByName(name)
	if err != nil {
		return 0, 0, 0, err
	}
	var raw, packed int64
	var encT, decT time.Duration
	for _, img := range images {
		t0 := time.Now()
		comp, err := c.Compress(nil, img, 0)
		encT += time.Since(t0)
		if err != nil {
			return 0, 0, 0, err
		}
		t0 = time.Now()
		back, err := c.Decompress(make([]byte, 0, len(img)), comp)
		decT += time.Since(t0)
		if err != nil {
			return 0, 0, 0, err
		}
		if !bytes.Equal(back, img) {
			return 0, 0, 0, fmt.Errorf("codec %s: round trip differs", name)
		}
		raw += int64(len(img))
		packed += int64(len(comp))
	}
	return float64(raw) / mb / encT.Seconds(), float64(raw) / mb / decT.Seconds(), float64(packed) / float64(raw), nil
}

type quantResult struct {
	lpEncMBs, lpDecMBs, kbitDecMBs, fitMs float64
}

// quantProbe runs the LP_QT and 8BIT_QT quantizers over the columns.
func quantProbe(cols [][]float32) (quantResult, error) {
	var res quantResult
	lp := quant.NewLP()
	var n int64
	var encT, decT, kdecT, fitT time.Duration
	var fits int
	for _, col := range cols {
		if len(col) == 0 {
			continue
		}
		t0 := time.Now()
		enc := lp.Encode(nil, col)
		encT += time.Since(t0)
		t0 = time.Now()
		if _, err := lp.Decode(make([]float32, 0, len(col)), enc, len(col)); err != nil {
			return res, err
		}
		decT += time.Since(t0)

		t0 = time.Now()
		kb, err := quant.FitKBit(col, 8)
		fitT += time.Since(t0)
		if err != nil {
			continue // a column of NaNs only has nothing to fit
		}
		fits++
		kenc := kb.Encode(nil, col)
		t0 = time.Now()
		if _, err := kb.Decode(make([]float32, 0, len(col)), kenc, len(col)); err != nil {
			return res, err
		}
		kdecT += time.Since(t0)
		n += int64(len(col))
	}
	if n == 0 || fits == 0 {
		return res, errors.New("quant probe: no finite columns")
	}
	raw := float64(4*n) / mb
	res.lpEncMBs, res.lpDecMBs = raw/encT.Seconds(), raw/decT.Seconds()
	res.kbitDecMBs = raw / kdecT.Seconds()
	res.fitMs = fitT.Seconds() * 1e3 / float64(fits)
	return res, nil
}

type colstoreResult struct {
	putUsPerChunk, flushMsPerPartition, writeBytesPerRawByte float64
	fsyncs, dedupRatio, coldGetMs, warmGetUs                 float64
}

// colstoreProbe writes the columns into a private column store under dir
// (LP_QT, the named codec), flushes, and reads them back cold then warm.
func colstoreProbe(dir, codecName string, cols [][]float32) (colstoreResult, error) {
	var res colstoreResult
	st, err := colstore.Open(dir, colstore.Config{Codec: codecName, DisableApproxDedup: true})
	if err != nil {
		return res, err
	}
	lp := quant.NewLP()
	blockRows := st.RowBlockRows()
	var keys []colstore.ColumnKey
	var raw int64
	t0 := time.Now()
	for j, col := range cols {
		for b := 0; b*blockRows < len(col); b++ {
			end := (b + 1) * blockRows
			if end > len(col) {
				end = len(col)
			}
			key := colstore.ColumnKey{Model: "probe", Intermediate: "cols", Column: fmt.Sprintf("c%d", j), Block: b}
			if _, err := st.PutColumn(key, col[b*blockRows:end], lp); err != nil {
				return res, err
			}
			keys = append(keys, key)
			raw += int64(4 * (end - b*blockRows))
		}
	}
	putT := time.Since(t0)
	t0 = time.Now()
	if err := st.Flush(); err != nil {
		return res, err
	}
	flushT := time.Since(t0)
	stats := st.Stats()
	if len(keys) == 0 || stats.Partitions == 0 {
		return res, errors.New("colstore probe: nothing stored")
	}
	res.putUsPerChunk = putT.Seconds() * 1e6 / float64(len(keys))
	res.flushMsPerPartition = flushT.Seconds() * 1e3 / float64(stats.Partitions)
	res.writeBytesPerRawByte = float64(stats.DiskWriteBytes) / float64(raw)
	res.fsyncs = float64(stats.FsyncCount)
	res.dedupRatio = float64(stats.ChunksDeduped) / float64(stats.ChunksPut)

	// Cold: drop the pool before every read, so each pages its partition in.
	probes := keys
	if len(probes) > 16 {
		probes = probes[:16]
	}
	var coldT, warmT time.Duration
	for _, k := range probes {
		if err := st.DropCache(); err != nil {
			return res, err
		}
		t0 = time.Now()
		if _, err := st.GetColumn(k); err != nil {
			return res, err
		}
		coldT += time.Since(t0)
		t0 = time.Now()
		if _, err := st.GetColumn(k); err != nil {
			return res, err
		}
		warmT += time.Since(t0)
	}
	res.coldGetMs = coldT.Seconds() * 1e3 / float64(len(probes))
	res.warmGetUs = warmT.Seconds() * 1e6 / float64(len(probes))
	return res, nil
}

type nindexResult struct {
	buildMs, probeUs, decodedPerResult float64
}

// nindexProbe builds one neuron index per column in a private manager
// under dir and probes it with TOPK(k) and a FilterRows.
func nindexProbe(dir string, cols [][]float32, bounds []float32, k, blockRows int) (nindexResult, error) {
	var res nindexResult
	m, err := nindex.NewManager(nindex.ManagerConfig{Dir: dir})
	if err != nil {
		return res, err
	}
	var buildT, probeT time.Duration
	var probes, decoded, results int
	for j, col := range cols {
		col := col
		key := nindex.Key{Model: "probe", Intermediate: "cols", Column: fmt.Sprintf("c%d", j)}
		fetchCol := func() ([]float32, int, error) { return col, blockRows, nil }
		t0 := time.Now()
		x, err := m.Get(key, 1, fetchCol) // first touch builds
		buildT += time.Since(t0)
		if err != nil {
			return res, err
		}
		for rep := 0; rep < 8; rep++ {
			t0 = time.Now()
			if _, err := m.TopK(key, 1, k, fetchCol); err != nil {
				return res, err
			}
			if _, err := m.FilterRows(key, 1, nindex.Gt, bounds[j], fetchCol); err != nil {
				return res, err
			}
			probeT += time.Since(t0)
			probes += 2
		}
		es, dec, err := x.TopK(k)
		if err != nil {
			return res, err
		}
		decoded += dec
		results += len(es)
	}
	if probes == 0 || results == 0 {
		return res, errors.New("nindex probe: no columns")
	}
	res.buildMs = buildT.Seconds() * 1e3 / float64(len(cols))
	res.probeUs = probeT.Seconds() * 1e6 / float64(probes)
	res.decodedPerResult = float64(decoded) / float64(results)
	return res, nil
}

type sampleResult struct {
	addNsPerRow, queryUs float64
}

// sampleProbe streams the rows through a reservoir builder and queries
// the resulting sample the way ColDist and ApproxTopK do.
func sampleProbe(colNames []string, rows [][]float32, k int) (sampleResult, error) {
	var res sampleResult
	b := smp.NewBuilder(colNames, smp.Config{})
	t0 := time.Now()
	for _, r := range rows {
		if err := b.Add(r); err != nil {
			return res, err
		}
	}
	addT := time.Since(t0)
	s := b.Snapshot()
	const reps = 8
	t0 = time.Now()
	for rep := 0; rep < reps; rep++ {
		for j := range colNames {
			s.Quantile(j, 0.5)
			s.MeanEstimate(j)
			s.TopK(j, k, true)
		}
	}
	queryT := time.Since(t0)
	if len(rows) == 0 {
		return res, errors.New("sample probe: no rows")
	}
	res.addNsPerRow = float64(addT.Nanoseconds()) / float64(len(rows))
	res.queryUs = queryT.Seconds() * 1e6 / float64(reps*len(colNames))
	return res, nil
}

type walResult struct {
	appendUs, fsyncsPerBatch, bytesPerRow float64
}

// walProbe appends the batches (one record each, one fsync each) to a
// private log under dir.
func walProbe(dir string, batches [][]byte, rowsPerBatch int) (walResult, error) {
	var res walResult
	l, _, err := wal.Open(filepath.Join(dir, "probe.wal"), nil)
	if err != nil {
		return res, err
	}
	defer l.Close()
	_, syncs0 := l.Stats()
	size0 := l.Size()
	t0 := time.Now()
	for _, b := range batches {
		if err := l.AppendBatch([][]byte{b}); err != nil {
			return res, err
		}
	}
	appendT := time.Since(t0)
	_, syncs1 := l.Stats()
	if len(batches) == 0 {
		return res, errors.New("wal probe: no batches")
	}
	res.appendUs = appendT.Seconds() * 1e6 / float64(len(batches))
	res.fsyncsPerBatch = float64(syncs1-syncs0) / float64(len(batches))
	res.bytesPerRow = float64(l.Size()-size0) / float64(len(batches)*rowsPerBatch)
	return res, nil
}

type casResult struct {
	putMBs, dedupRatio float64
}

// casProbe puts the blobs, then puts them again under new names, into a
// private content-addressed store under dir.
func casProbe(dir string, blobs [][]byte) (casResult, error) {
	var res casResult
	st, err := cas.OpenStore(dir, cas.Config{})
	if err != nil {
		return res, err
	}
	var total, fresh int64
	t0 := time.Now()
	for round := 0; round < 2; round++ {
		for i, b := range blobs {
			info, err := st.Put(fmt.Sprintf("blob-%d-%d", round, i), b)
			if err != nil {
				return res, err
			}
			total += info.Size
			fresh += info.NewBytes
		}
	}
	if err := st.Flush(); err != nil {
		return res, err
	}
	putT := time.Since(t0)
	if total == 0 {
		return res, errors.New("cas probe: no bytes")
	}
	res.putMBs = float64(total) / mb / putT.Seconds()
	res.dedupRatio = 1 - float64(fresh)/float64(total)
	return res, nil
}

// dropCache empties the in-process System's buffer pool, so the next
// reads page their partitions in from disk.
func dropCache(sys *mistique.System) error { return sys.Store().DropCache() }

// ---------------------------------------------------------------------
// The traced run's descent below the engine. After a request has been
// timed through the client and as a direct engine call, descend times the
// equivalent direct call on each lower layer, with the same arguments and
// cache state, as spans under the engine span.

type lowerLayers struct {
	sys       *mistique.System
	storeDir  string // the node's store directory
	dir       string // private scratch for harness-owned layer instances
	blockRows int

	idx     *nindex.Manager
	built   map[nindex.Key][]float32 // indexed columns and their values
	builder *smp.Builder             // private reservoir the ingest descent feeds
	sampled *smp.Sample              // snapshot the COL_DIST descent queries
	log     *wal.Log
	priv    *colstore.Store
	puts    int
}

func newLowerLayers(sys *mistique.System, storeDir, dir string) (*lowerLayers, error) {
	// Partition files must exist for the codec descent; Flush evicts nothing.
	if err := sys.Flush(); err != nil {
		return nil, err
	}
	l := &lowerLayers{sys: sys, storeDir: storeDir, dir: dir, blockRows: sys.Store().RowBlockRows(),
		built: make(map[nindex.Key][]float32)}
	var err error
	if l.idx, err = nindex.NewManager(nindex.ManagerConfig{Dir: filepath.Join(dir, "nindex")}); err != nil {
		return nil, err
	}
	if l.log, _, err = wal.Open(filepath.Join(dir, "descent.wal"), nil); err != nil {
		return nil, err
	}
	if l.priv, err = colstore.Open(filepath.Join(dir, "descent-store"), colstore.Config{}); err != nil {
		return nil, err
	}
	return l, nil
}

// quantizerOf is the scheme the workloads store an intermediate under:
// LP_QT for the CNN checkpoints, FULL for pipelines and streams.
func quantizerOf(model string) *quant.Quantizer {
	if strings.HasPrefix(model, "cnn@") {
		return quant.NewLP()
	}
	return quant.NewFull()
}

// chunkKeys lists the column chunks a pointq/fetch/exact-coldist touches
// (at most 8 columns of it).
func (l *lowerLayers) chunkKeys(r *request, allCols []string) []colstore.ColumnKey {
	cols := r.Cols
	if r.Col != "" {
		cols = []string{r.Col}
	}
	if len(cols) == 0 {
		cols = allCols
	}
	if len(cols) > 8 {
		cols = cols[:8]
	}
	from, to := 0, r.NEx
	if r.Class == pointq {
		from, to = r.From, r.To
	}
	var keys []colstore.ColumnKey
	for _, c := range cols {
		for b := from / l.blockRows; ; b++ {
			key := colstore.ColumnKey{Model: r.Model, Intermediate: r.Interm, Column: c, Block: b}
			if !l.sys.Store().Has(key) {
				break
			}
			keys = append(keys, key)
			if to > 0 && (b+1)*l.blockRows >= to {
				break
			}
		}
	}
	return keys
}

// readDescent: colstore.get ⊃ codec.decode, quant.decode.
func (l *lowerLayers) readDescent(tr *tracer, parent int64, r *request, allCols []string, vals series) error {
	keys := l.chunkKeys(r, allCols)
	if len(keys) == 0 {
		return nil
	}
	st := l.sys.Store()
	var values int
	getID, getDur, err := tr.timed("colstore.get", parent, func() error {
		for _, k := range keys {
			v, err := st.GetColumn(k)
			if err != nil {
				return err
			}
			values += len(v)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// codec.decode: decompress the partition files that hold those chunks,
	// each once — what a page-in pays the codec.
	parts := make(map[int64]bool)
	for _, k := range keys {
		if id, ok := st.Lookup(k); ok {
			parts[id.Partition] = true
		}
	}
	var comps [][]byte
	for pid := range parts {
		files, _ := filepath.Glob(filepath.Join(l.storeDir, "data", fmt.Sprintf("partition_%08d*", pid)))
		if len(files) == 0 {
			continue
		}
		comp, err := os.ReadFile(files[len(files)-1])
		if err != nil {
			return err
		}
		comps = append(comps, comp)
	}
	_, decDur, err := tr.timed("codec.decode", getID, func() error {
		for _, comp := range comps {
			if _, err := decodeImage(comp); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// quant.decode: dequantize as many values under the stored scheme.
	q := quantizerOf(r.Model)
	src := make([]float32, values)
	enc := q.Encode(nil, src)
	_, qDur, err := tr.timed("quant.decode", getID, func() error {
		_, err := q.Decode(make([]float32, 0, values), enc, values)
		return err
	})
	if err != nil {
		return err
	}
	vals.add("colstore.get_us", us(getDur))
	vals.add("codec.decode_us", us(decDur))
	vals.add("quant.decode_us", us(qDur))
	return nil
}

// columnValues reads one whole column through the engine (forced READ).
func (l *lowerLayers) columnValues(ctx context.Context, r *request) ([]float32, error) {
	res, err := l.sys.FetchCtx(ctx, r.Model, r.Interm, []string{r.Col}, 0, cost.Read)
	if err != nil {
		return nil, err
	}
	return res.Data.Col(0), nil
}

// indexDescent: nindex.probe on a harness-owned manager holding an index
// of the same column.
func (l *lowerLayers) indexDescent(ctx context.Context, tr *tracer, parent int64, r *request, vals series) error {
	key := nindex.Key{Model: r.Model, Intermediate: r.Interm, Column: r.Col}
	col, ok := l.built[key]
	fetchCol := func() ([]float32, int, error) { return col, l.blockRows, nil }
	if !ok {
		var err error
		if col, err = l.columnValues(ctx, r); err != nil {
			return err
		}
		l.built[key] = col
		t0 := time.Now()
		if _, err := l.idx.Get(key, 1, fetchCol); err != nil {
			return err
		}
		vals.add("nindex.build_ms", ms(time.Since(t0)))
	}
	_, dur, err := tr.timed("nindex.probe", parent, func() error {
		if r.Class == topk {
			_, err := l.idx.TopK(key, 1, r.K, fetchCol)
			return err
		}
		_, err := l.idx.FilterRows(key, 1, nindex.Gt, r.Bound, fetchCol)
		return err
	})
	if err != nil {
		return err
	}
	vals.add("nindex.probe_us", us(dur))
	if r.Class == topk {
		x, err := l.idx.Get(key, 1, fetchCol)
		if err != nil {
			return err
		}
		es, decoded, err := x.TopK(r.K)
		if err != nil {
			return err
		}
		if len(es) > 0 {
			vals.add("nindex.rows_decoded_per_result", float64(decoded)/float64(len(es)))
		}
	}
	return nil
}

// sampleDescent: sample.query on the private reservoir.
func (l *lowerLayers) sampleDescent(tr *tracer, parent int64, r *request, vals series) error {
	if l.sampled == nil {
		return nil
	}
	j := l.sampled.ColIndex(r.Col)
	if j < 0 {
		j = 0
	}
	_, dur, err := tr.timed("sample.query", parent, func() error {
		l.sampled.Quantile(j, 0.5)
		l.sampled.MeanEstimate(j)
		l.sampled.TopK(j, topK, true)
		return nil
	})
	vals.add("sample.query_us", us(dur))
	return err
}

// batchPayload serialises an ingest batch as the stream WAL does: four
// bytes a value behind a small header.
func batchPayload(rows [][]float32) []byte {
	buf := make([]byte, 0, 16+4*len(rows)*len(rows[0]))
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(len(rows[0])))
	for _, r := range rows {
		for _, v := range r {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	return buf
}

// writeDescent: wal.append, sample.add, colstore.put for one batch.
func (l *lowerLayers) writeDescent(tr *tracer, parent int64, r *request, vals series) error {
	payload := batchPayload(r.Rows)
	_, walDur, err := tr.timed("wal.append", parent, func() error { return l.log.AppendBatch([][]byte{payload}) })
	if err != nil {
		return err
	}
	if l.builder == nil {
		l.builder = smp.NewBuilder(r.Cols, smp.Config{})
	}
	_, addDur, err := tr.timed("sample.add", parent, func() error {
		for _, row := range r.Rows {
			if err := l.builder.Add(row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.sampled = l.builder.Snapshot()
	cols := make([][]float32, len(r.Cols))
	for j := range cols {
		cols[j] = make([]float32, len(r.Rows))
		for i, row := range r.Rows {
			cols[j][i] = row[j]
		}
	}
	full := quant.NewFull()
	l.puts++
	_, putDur, err := tr.timed("colstore.put", parent, func() error {
		for j, c := range cols {
			key := colstore.ColumnKey{Model: streamModel, Intermediate: "descent", Column: r.Cols[j], Block: l.puts}
			if _, err := l.priv.PutColumn(key, c, full); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	vals.add("wal.append_us", us(walDur))
	vals.add("sample.add_ns_per_row", float64(addDur.Nanoseconds())/float64(len(r.Rows)))
	vals.add("colstore.put_us_per_chunk", us(putDur)/float64(len(cols)))
	return nil
}

// descend routes a request to the lower layers its class uses.
func (l *lowerLayers) descend(ctx context.Context, tr *tracer, parent int64, r *request, rep *reply, allCols []string, vals series) error {
	switch r.Class {
	case pointq, fetch:
		return l.readDescent(tr, parent, r, allCols, vals)
	case topk, filter:
		return l.indexDescent(ctx, tr, parent, r, vals)
	case coldist:
		if rep.Strategy == "SAMPLE" {
			return l.sampleDescent(tr, parent, r, vals)
		}
		return l.readDescent(tr, parent, r, allCols, vals)
	case ingest:
		return l.writeDescent(tr, parent, r, vals)
	}
	return nil
}

func (l *lowerLayers) close() {
	_ = l.log.Close()
}
