package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mistique"
)

// scale sizes a workload. fullScale is what BENCHMARK.json measures;
// toyScale is the smoke test's.
type scale struct {
	pipelines     int // Zillow pipelines a serve node logs
	shardPipes    int // per shard in cluster-scatter
	streamRows    int // rows of the activation stream ingested at set-up
	streamCols    int
	batchRows     int   // rows per IngestRows batch
	cnnImages     int   // rows of every CNN activation
	cnnEpochs     int   // lib-cold checkpoints (all layers)
	mixedEpochs   int   // write-mixed Phase L checkpoints (head layers)
	poolBytes     int64 // lib-cold buffer pool
	schedLen      int   // closed-loop schedule length per client
	traceReqs     int   // traced requests per class
	probeBytes    int64 // partition image bytes the codec probe reads
	setupReps     int   // set-ups per run; setup_s is their median
	fetchRows     int   // n_ex of a FETCH on a Zillow intermediate
	openLoopScale float64
}

// growBase is how many rows of write-mixed's growing stream exist before
// the window opens: an eighth of streamRows, in whole batches.
func (sc scale) growBase() int {
	batches := sc.streamRows / 8 / sc.batchRows
	if batches < 1 {
		batches = 1
	}
	return batches * sc.batchRows
}

var fullScale = scale{
	pipelines: 8, shardPipes: 4,
	streamRows: 40 << 10, streamCols: 32, batchRows: 1024,
	cnnImages: 128, cnnEpochs: 2, mixedEpochs: 4,
	poolBytes: 1 << 20, schedLen: 4096, traceReqs: 200, probeBytes: 16 << 20,
	setupReps: 3, fetchRows: 256, openLoopScale: 1,
}

var toyScale = scale{
	pipelines: 2, shardPipes: 2,
	streamRows: 4 << 10, streamCols: 8, batchRows: 1024,
	cnnImages: 32, cnnEpochs: 2, mixedEpochs: 2,
	poolBytes: 1 << 20, schedLen: 256, traceReqs: 12, probeBytes: 2 << 20,
	setupReps: 1, fetchRows: 64, openLoopScale: 0.25,
}

// Open-loop rates, requests per second. Set once on the commit that added
// the harness, at about 40% of that commit's closed-loop ops_per_s on the
// 2-core reference box, and never computed at run time: parent and change
// always face the same schedule.
var openLoopRate = map[string]float64{
	"serve-warm":      600,
	"write-mixed":     50,
	"cluster-scatter": 300,
}

// The Table-1 mix of the read workloads.
var readShares = [numClasses]float64{pointq: 0.30, topk: 0.20, filter: 0.15, coldist: 0.15, fetch: 0.20}

const (
	// maxBatchesPerSec sizes the rows generated for write-mixed's writer;
	// it ingests about 27 batches a second on the reference box.
	maxBatchesPerSec = 48
	streamModel      = "live"
	streamInterm     = "acts" // the stream the workloads query (and write-mixed writes)
	staticInterm     = "base" // write-mixed: a second stream nobody writes during the window
	zipfS            = 1.1
	topK             = 10
)

// env is one run's fixed inputs.
type env struct {
	work, serveBin string
	workload       string
	seed           int64
	seconds        time.Duration
	procs          int
	codec          string
	sc             scale
	traced         bool
	// wrap is the traced run's middleware around every in-process handler.
	wrap func(http.Handler) http.Handler
	dirs int
	// streams caches the generated activation stream across a run's
	// set-up repetitions (same seed, same rows).
	streams map[string]*stream
}

// streamOf returns the run's activation stream `interm` of nRows rows.
func (e *env) streamOf(interm string, nRows int) *stream {
	if s, ok := e.streams[interm]; ok && len(s.rows) == nRows {
		return s
	}
	if e.streams == nil {
		e.streams = make(map[string]*stream)
	}
	s := newStream(e.seed, interm, nRows, e.sc.streamCols, e.sc.batchRows)
	e.streams[interm] = s
	return s
}

func (e *env) newDir(name string) (string, error) {
	e.dirs++
	dir := filepath.Join(e.work, fmt.Sprintf("%s-%d", name, e.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// node is one serving MISTIQUE: a `mistique serve` child, or in the
// traced run the same stack hosted inside the harness.
type node struct {
	dir   string
	url   string
	child *child
	sys   *mistique.System
	stop  func()
	// logSecs is the wall time the node spent logging its pipelines
	// (child: process start to listening).
	logSecs float64
}

// startNode brings up a node over dir that logs `pipelines` Zillow
// pipelines before serving.
func (e *env) startNode(dir string, pipelines int, shard string) (*node, error) {
	n := &node{dir: dir}
	t0 := time.Now()
	if !e.traced {
		c, err := startServe(e.serveBin, dir, pipelines, e.seed, shard, e.codec, e.procs)
		if err != nil {
			return nil, err
		}
		n.child, n.url, n.logSecs = c, c.url, time.Since(t0).Seconds()
		return n, nil
	}
	sys, err := openSystem(dir, serveConfig(e.codec))
	if err != nil {
		return nil, err
	}
	if _, err := logZillow(sys, pipelines, e.seed); err != nil {
		return nil, err
	}
	n.logSecs = time.Since(t0).Seconds()
	url, stop, err := hostInProcess(sys, shard, e.wrap)
	if err != nil {
		return nil, err
	}
	n.sys, n.url, n.stop = sys, url, stop
	return n, nil
}

// shutdown stops the node gracefully, flushing its store.
func (n *node) shutdown() error {
	if n.child != nil {
		return n.child.terminate()
	}
	n.stop()
	return n.sys.Close()
}

// abort stops the node without caring for its data.
func (n *node) abort() {
	if n.child != nil {
		n.child.kill()
		return
	}
	n.stop()
	_ = n.sys.Close()
}

// stack is what a set-up leaves behind: the running program, the ways to
// reach it, and what the oracle and the metrics need to know about it.
type stack struct {
	nodes   []*node
	lib     *mistique.System // the in-process System of lib-cold
	readers []target
	writer  target
	router  *routerHandle
	plan    *plan
	tables  map[string]*table
	stream  *stream
	// dumper answers the set-up's oracle dumps (a fetch with forced READ).
	dumper target

	rawBytes    int64   // raw float32 bytes handed to the store
	logBytes    int64   // ... of which through LogPipeline/LogDNN
	logSecs     float64 // wall time of that logging (+Flush when in-process)
	storedBytes int64   // on-disk bytes, when known at set-up
	rssPIDs     []int
}

func (st *stack) abort() {
	if st.router != nil {
		st.router.close()
	}
	for _, n := range st.nodes {
		n.abort()
	}
	if st.lib != nil {
		_ = st.lib.Close()
	}
}

// ---------------------------------------------------------------------
// The activation stream.

// stream is the 32-column activation stream: every value comes from the
// seed, column j is N(0.1j, 1+0.05j).
type stream struct {
	interm string
	cols   []string
	rows   [][]float32 // row-major, all rows the run may ever ingest
	tab    *table
}

func newStream(seed int64, interm string, nRows, nCols, block int) *stream {
	salt := int64(0x5eed)
	for _, c := range interm {
		salt = salt*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(seed ^ salt))
	s := &stream{interm: interm, rows: make([][]float32, nRows)}
	byCol := make([][]float32, nCols)
	for j := range byCol {
		s.cols = append(s.cols, fmt.Sprintf("c%02d", j))
		byCol[j] = make([]float32, nRows)
	}
	flat := make([]float32, nRows*nCols)
	for i := range s.rows {
		row := flat[i*nCols : (i+1)*nCols]
		for j := range row {
			v := float32(0.1*float64(j) + (1+0.05*float64(j))*rng.NormFloat64())
			row[j], byCol[j][i] = v, v
		}
		s.rows[i] = row
	}
	s.tab = &table{rows: nRows, cols: make(map[string][]float32, nCols), order: s.cols, block: block}
	for j, name := range s.cols {
		s.tab.cols[name] = byCol[j]
	}
	return s
}

func (s *stream) batch(i, batchRows int) *request {
	return &request{Class: ingest, Model: streamModel, Interm: s.interm, Cols: s.cols,
		Rows: s.rows[i*batchRows : (i+1)*batchRows]}
}

// ingestBase sends the first n rows through t, in order, one batch at a
// time (row ids are assigned in arrival order).
func (s *stream) ingestBase(ctx context.Context, t target, n, batchRows int) error {
	for i := 0; i*batchRows < n; i++ {
		rep, err := t.Do(ctx, s.batch(i, batchRows))
		if err != nil {
			return fmt.Errorf("ingest batch %d: %w", i, err)
		}
		if want := int64((i + 1) * batchRows); rep.Acked != want {
			return fmt.Errorf("ingest batch %d: %d rows acknowledged, want %d", i, rep.Acked, want)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Request generation.

// tgt is one intermediate a class may query.
type tgt struct {
	model, interm string
	cols          []string
	rows          int
	perm          []int // column popularity order
}

// plan turns the seed into requests. Everything a request needs except a
// filter's bound is decided here; bounds come from the oracle tables.
type plan struct {
	shares  [numClasses]float64
	byClass [numClasses][]tgt
	// zipf ranks targets and columns by Zipf(1.1) popularity; false picks
	// uniformly (lib-cold: nearly every request pages a partition in).
	zipf      bool
	pointCols int // columns of a POINTQ (0 = all)
	fetchCols int // columns of a FETCH (0 = all)
	fetchRows int
	maxErr    float64
	// topkErr > 0 ranks through the sample (ApproxTopK at that max_error)
	// instead of the exact index: how a stream that is being written is
	// ranked. The reservoir's rank bound settles near 0.011 once the stream
	// outgrows it, so 0.01 would fall back to the exact path mid-window.
	topkErr  float64
	strategy string  // forced FETCH strategy ("" = cost model)
	filterQ  float64 // a filter's bound is this quantile of its column
}

func zipfPick(rng *rand.Rand, n int, on bool) int {
	if !on || n == 1 {
		return rng.Intn(n)
	}
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), zipfS)
	}
	u := rng.Float64() * total
	for i := 0; i < n; i++ {
		if u -= 1 / math.Pow(float64(i+1), zipfS); u <= 0 {
			return i
		}
	}
	return n - 1
}

func (p *plan) pickClass(rng *rand.Rand) class {
	u := rng.Float64()
	for _, c := range queryClasses {
		if u -= p.shares[c]; u <= 0 {
			return c
		}
	}
	return fetch
}

func (t *tgt) pickCols(rng *rand.Rand, n int, zipf bool) []string {
	if n <= 0 || n >= len(t.cols) {
		return nil
	}
	seen := make(map[int]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		j := t.perm[zipfPick(rng, len(t.cols), zipf)]
		if !seen[j] {
			seen[j] = true
			out = append(out, t.cols[j])
		}
	}
	return out
}

func (p *plan) one(rng *rand.Rand, c class) request {
	cands := p.byClass[c]
	t := &cands[zipfPick(rng, len(cands), p.zipf)]
	r := request{Class: c, Model: t.model, Interm: t.interm}
	col := func() string { return t.cols[t.perm[zipfPick(rng, len(t.cols), p.zipf)]] }
	switch c {
	case pointq:
		r.Cols = t.pickCols(rng, p.pointCols, p.zipf)
		r.From = rng.Intn(t.rows)
		r.To = r.From + 1
	case topk:
		r.Col, r.K = col(), topK
		r.MaxErr = p.topkErr
	case filter:
		r.Col, r.Cmp = col(), "gt"
	case coldist:
		r.Col, r.MaxErr = col(), p.maxErr
	case fetch:
		r.Cols = t.pickCols(rng, p.fetchCols, p.zipf)
		r.NEx, r.Strategy = p.fetchRows, p.strategy
	}
	return r
}

// gen makes n requests of the plan's mix; every 16th is marked for
// verification.
func (p *plan) gen(rng *rand.Rand, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = p.one(rng, p.pickClass(rng))
		out[i].Verify = i%16 == 0
	}
	return out
}

// genClass makes n requests of one class (traced run, warm-up).
func (p *plan) genClass(rng *rand.Rand, c class, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = p.one(rng, c)
		out[i].Verify = i%16 == 0
	}
	return out
}

// openSchedule spaces n = rate*dur requests evenly with a seeded jitter
// of up to half a gap, so due times are fixed before the window opens.
func (p *plan) openSchedule(rng *rand.Rand, rate float64, dur time.Duration) []request {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	out := p.gen(rng, n)
	gap := float64(dur) / float64(n)
	for i := range out {
		out[i].Due = time.Duration((float64(i) + 0.5*rng.Float64()) * gap)
	}
	return out
}

func newTgt(rng *rand.Rand, model string, it intermInfo) tgt {
	return tgt{model: model, interm: it.Name, cols: it.Cols, rows: it.Rows, perm: rng.Perm(len(it.Cols))}
}

// needed lists, per table key, the columns the verified requests touch
// (nil = every column).
func needed(reqs ...[]request) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, rs := range reqs {
		for i := range rs {
			r := &rs[i]
			if !r.Verify {
				continue
			}
			key := tableKey(r.Model, r.Interm)
			if _, ok := out[key]; !ok {
				out[key] = make(map[string]bool)
			}
			if r.Col != "" {
				out[key][r.Col] = true
			}
			if len(r.Cols) == 0 && (r.Class == pointq || r.Class == fetch) {
				out[key]["*"] = true
			}
			for _, c := range r.Cols {
				out[key][c] = true
			}
		}
	}
	return out
}

// dumpTables reads, once, every column the verified requests will touch
// (forced READ through the stack's own fetch path) into oracle tables.
func (st *stack) dumpTables(ctx context.Context, need map[string]map[string]bool) error {
	infos := make(map[string]tgt)
	for _, ts := range st.plan.byClass {
		for _, t := range ts {
			infos[tableKey(t.model, t.interm)] = t
		}
	}
	keys := make([]string, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		t, known := infos[key]
		if !known {
			continue // a stream: the harness generated it
		}
		tab := st.tables[key]
		if tab == nil {
			tab = &table{cols: make(map[string][]float32), order: t.cols}
			st.tables[key] = tab
		}
		want := t.cols
		if !need[key]["*"] {
			want = want[:0:0]
			for c := range need[key] {
				want = append(want, c)
			}
			sort.Strings(want)
		}
		var cols []string
		for _, c := range want {
			if _, have := tab.cols[c]; !have {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			continue
		}
		req := &request{Class: fetch, Model: t.model, Interm: t.interm, Cols: cols, Strategy: "READ"}
		rep, err := st.dumper.Do(ctx, req)
		if err != nil {
			return fmt.Errorf("dump %s: %w", key, err)
		}
		st.dumper.Decode(req, rep)
		tab.rows = len(rep.Matrix)
		for j, name := range cols {
			col := make([]float32, len(rep.Matrix))
			for i, row := range rep.Matrix {
				col[i] = row[j]
			}
			tab.cols[name] = col
		}
	}
	return nil
}

// fillBounds sets every filter's bound to the plan's quantile of its
// column where the oracle has the column, and to the median of the
// intermediate's known bounds elsewhere.
func (st *stack) fillBounds(reqs ...[]request) {
	known := make(map[string]float32)
	perTable := make(map[string][]float64)
	bound := func(r *request) (float32, bool) {
		key := tableKey(r.Model, r.Interm)
		id := key + "/" + r.Col
		if b, ok := known[id]; ok {
			return b, true
		}
		tab := st.tables[key]
		if tab == nil {
			return 0, false
		}
		col, ok := tab.cols[r.Col]
		if !ok {
			return 0, false
		}
		b := columnQuantile(col, st.plan.filterQ)
		known[id] = b
		perTable[key] = append(perTable[key], float64(b))
		return b, true
	}
	var later []*request
	for _, rs := range reqs {
		for i := range rs {
			r := &rs[i]
			if r.Class != filter {
				continue
			}
			if b, ok := bound(r); ok {
				r.Bound = b
			} else {
				later = append(later, r)
			}
		}
	}
	for _, r := range later {
		if bs := perTable[tableKey(r.Model, r.Interm)]; len(bs) > 0 {
			med, _ := medianIQR(bs)
			r.Bound = float32(med)
		}
	}
}

// ---------------------------------------------------------------------
// Set-ups, one per workload.

// Every FETCH target has the same shape (2048 x 14), so which models the
// seed makes popular does not change what a typical FETCH costs.
var fetchInterms = []string{"joined"}

// zillowTargets lists the FETCH targets of a serve node's Zillow models.
func zillowTargets(rng *rand.Rand, catalog map[string][]intermInfo, interms []string) []tgt {
	models := make([]string, 0, len(catalog))
	for m := range catalog {
		if m != streamModel {
			models = append(models, m)
		}
	}
	sort.Strings(models)
	var out []tgt
	for _, m := range models {
		for _, it := range catalog[m] {
			for _, want := range interms {
				if it.Name == want {
					out = append(out, newTgt(rng, m, it))
				}
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// setupServeWarm: one serve node with 8 Zillow pipelines and the
// activation stream ingested over HTTP; everything fits the default
// 256 MiB pool, so the window sees warm indexes and samples.
func setupServeWarm(ctx context.Context, e *env) (*stack, error) {
	dir, err := e.newDir("serve")
	if err != nil {
		return nil, err
	}
	n, err := e.startNode(dir, e.sc.pipelines, "")
	if err != nil {
		return nil, err
	}
	st := &stack{nodes: []*node{n}, tables: make(map[string]*table), logSecs: n.logSecs}
	rng := rand.New(rand.NewSource(e.seed))
	st.stream = e.streamOf(streamInterm, e.sc.streamRows)
	st.tables[tableKey(streamModel, streamInterm)] = st.stream.tab

	setupC, err := newClient(n.url, 3)
	if err != nil {
		return st, err
	}
	if err := st.stream.ingestBase(ctx, clientTarget{setupC}, e.sc.streamRows, e.sc.batchRows); err != nil {
		return st, err
	}
	for i := 0; i < e.procs; i++ {
		c, err := newClient(n.url, 3)
		if err != nil {
			return st, err
		}
		st.readers = append(st.readers, clientTarget{c})
	}
	st.dumper = clientTarget{setupC}
	catalog, err := clientCatalog(ctx, setupC)
	if err != nil {
		return st, err
	}
	live := newTgt(rng, streamModel, intermInfo{Name: streamInterm, Cols: st.stream.cols, Rows: e.sc.streamRows})
	st.plan = &plan{shares: readShares, zipf: true, fetchRows: e.sc.fetchRows, maxErr: 0.01, filterQ: 0.999}
	for _, c := range []class{pointq, topk, filter, coldist} {
		st.plan.byClass[c] = []tgt{live}
	}
	st.plan.byClass[fetch] = zillowTargets(rng, catalog, fetchInterms)
	st.logBytes = catalogBytes(catalog)
	st.rawBytes = st.logBytes + int64(4*e.sc.streamRows*e.sc.streamCols)
	if n.child != nil {
		st.rssPIDs = []int{n.child.pid()}
	}
	return st, nil
}

// catalogBytes is the raw float32 size of every non-stream intermediate.
func catalogBytes(catalog map[string][]intermInfo) int64 {
	var total int64
	for m, its := range catalog {
		if m == streamModel {
			continue
		}
		for _, it := range its {
			total += int64(4 * it.Rows * len(it.Cols))
		}
	}
	return total
}

// setupLibCold: no server. The harness opens the store itself with a
// small buffer pool and logs Parent-linked LP_QT CNN checkpoints whose
// encoded size is about ten times the pool, then drops the cache.
func setupLibCold(ctx context.Context, e *env) (*stack, error) {
	dir, err := e.newDir("lib")
	if err != nil {
		return nil, err
	}
	sys, err := openSystem(dir, dnnConfig(e.sc.poolBytes, e.codec))
	if err != nil {
		return nil, err
	}
	st := &stack{lib: sys, tables: make(map[string]*table)}
	t0 := time.Now()
	models, raw, err := logCNN(sys, e.sc.cnnEpochs, e.sc.cnnImages, e.seed, nil)
	if err != nil {
		return st, err
	}
	if err := sys.Flush(); err != nil {
		return st, err
	}
	st.logSecs = time.Since(t0).Seconds()
	st.logBytes, st.rawBytes = raw, raw
	if st.storedBytes, err = sys.DiskBytes(); err != nil {
		return st, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	st.plan = &plan{shares: readShares, pointCols: 8, fetchCols: 8, maxErr: 1e-12, strategy: "READ", filterQ: 0.9}
	for _, m := range models {
		for _, it := range libCatalog(sys, m) {
			t := newTgt(rng, m, it)
			for _, c := range queryClasses {
				st.plan.byClass[c] = append(st.plan.byClass[c], t)
			}
		}
	}
	for i := 0; i < e.procs; i++ {
		st.readers = append(st.readers, libTarget{sys})
	}
	st.dumper = libTarget{sys}
	if e.traced {
		url, stop, err := hostInProcess(sys, "", e.wrap)
		if err != nil {
			return st, err
		}
		st.nodes = []*node{{dir: dir, url: url, sys: sys, stop: stop}}
		st.lib = nil // the node owns the System now
	}
	st.rssPIDs = []int{os.Getpid()}
	return st, nil
}

// setupWriteMixed: Phase L logs 8 Zillow pipelines and 4 fine-tune
// checkpoints through the library into a fresh directory and flushes;
// a serve node then reopens that directory and takes a base of the
// stream, which the window keeps writing while a reader queries it.
func setupWriteMixed(ctx context.Context, e *env) (*stack, error) {
	dir, err := e.newDir("mixed")
	if err != nil {
		return nil, err
	}
	st := &stack{tables: make(map[string]*table)}
	sys, err := openSystem(dir, serveConfig(e.codec))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	zBytes, err := logZillow(sys, e.sc.pipelines, e.seed)
	if err == nil {
		var cBytes int64
		if _, cBytes, err = logCNN(sys, e.sc.mixedEpochs, e.sc.cnnImages, e.seed, cnnLayers); err == nil {
			st.logBytes = zBytes + cBytes
			err = sys.Flush()
		}
	}
	st.logSecs = time.Since(t0).Seconds()
	if err == nil {
		st.storedBytes, err = sys.DiskBytes()
	}
	if cerr := sys.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("phase L: %w", err)
	}

	n, err := e.startNode(dir, e.sc.pipelines, "")
	if err != nil {
		return nil, err
	}
	st.nodes = []*node{n}
	// A static stream nobody writes during the window, and the base of the
	// growing one, which holds every row the window could possibly ingest.
	static := e.streamOf(staticInterm, e.sc.streamRows/2)
	st.tables[tableKey(streamModel, staticInterm)] = static.tab
	base := e.sc.growBase()
	st.stream = e.streamOf(streamInterm, base+int(e.seconds.Seconds()*maxBatchesPerSec+1)*e.sc.batchRows)
	st.stream.tab.growing = true
	st.tables[tableKey(streamModel, streamInterm)] = st.stream.tab

	writerC, err := newClient(n.url, 3)
	if err != nil {
		return st, err
	}
	st.writer = clientTarget{writerC}
	if err := static.ingestBase(ctx, st.writer, len(static.rows), e.sc.batchRows); err != nil {
		return st, err
	}
	if err := st.stream.ingestBase(ctx, st.writer, base, e.sc.batchRows); err != nil {
		return st, err
	}
	readerC, err := newClient(n.url, 3)
	if err != nil {
		return st, err
	}
	st.readers = []target{clientTarget{readerC}}
	st.dumper = st.readers[0]
	catalog, err := clientCatalog(ctx, readerC)
	if err != nil {
		return st, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	// COL_DIST and TOPK read the stream being written, both through its
	// sample at max_error 0.01 (an exact TOPK would rebuild the column's
	// index after every batch, ~90 ms a query and growing with the stream);
	// POINTQ, FILTER and FETCH read data at rest beside it.
	live := newTgt(rng, streamModel, intermInfo{Name: streamInterm, Cols: st.stream.cols, Rows: base})
	rest := newTgt(rng, streamModel, intermInfo{Name: staticInterm, Cols: static.cols, Rows: len(static.rows)})
	st.plan = &plan{shares: readShares, zipf: true, fetchRows: e.sc.fetchRows, maxErr: 0.01, topkErr: 0.02, filterQ: 0.999}
	st.plan.byClass[topk], st.plan.byClass[coldist] = []tgt{live}, []tgt{live}
	st.plan.byClass[pointq], st.plan.byClass[filter] = []tgt{rest}, []tgt{rest}
	st.plan.byClass[fetch] = zillowTargets(rng, catalog, fetchInterms)
	st.rawBytes = st.logBytes
	if n.child != nil {
		st.rssPIDs = []int{n.child.pid()}
	}
	return st, nil
}

var scatterInterms = []string{"joined"}

// setupClusterScatter: three serve shards holding the same four Zillow
// pipelines, behind an in-process router (replication 2, 512-row blocks).
func setupClusterScatter(ctx context.Context, e *env) (*stack, error) {
	st := &stack{tables: make(map[string]*table)}
	const shards = 3
	st.nodes = make([]*node, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < shards; i++ {
		dir, err := e.newDir("shard")
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(i int, dir string) {
			defer wg.Done()
			st.nodes[i], errs[i] = e.startNode(dir, e.sc.shardPipes, fmt.Sprintf("s%d", i))
		}(i, dir)
	}
	wg.Wait()
	st.logSecs = time.Since(t0).Seconds()
	var live []*node
	for _, n := range st.nodes {
		if n != nil {
			live = append(live, n)
		}
	}
	st.nodes = live
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	var urls []string
	for _, n := range st.nodes {
		urls = append(urls, n.url)
		if n.child != nil {
			st.rssPIDs = append(st.rssPIDs, n.child.pid())
		}
	}
	var err error
	if st.router, err = newRouter(urls, e.traced); err != nil {
		return st, err
	}
	for i := 0; i < e.procs; i++ {
		st.readers = append(st.readers, st.router.target)
	}
	// The oracle is a single shard's own answer: scatter-gather must agree
	// with it bit for bit.
	dumpC, err := newClient(urls[0], 3)
	if err != nil {
		return st, err
	}
	st.dumper = clientTarget{dumpC}
	catalog, err := clientCatalog(ctx, dumpC)
	if err != nil {
		return st, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	st.plan = &plan{shares: readShares, zipf: true, fetchCols: 2, maxErr: 0.01, filterQ: 0.99}
	ts := zillowTargets(rng, catalog, scatterInterms)
	for _, c := range queryClasses {
		st.plan.byClass[c] = ts
	}
	st.logBytes = shards * catalogBytes(catalog)
	st.rawBytes = st.logBytes
	return st, nil
}

var setups = map[string]func(context.Context, *env) (*stack, error){
	"serve-warm":      setupServeWarm,
	"lib-cold":        setupLibCold,
	"write-mixed":     setupWriteMixed,
	"cluster-scatter": setupClusterScatter,
}

// ---------------------------------------------------------------------
// Preparing a stack for its window.

// schedules holds a window's pre-generated requests.
type schedules struct {
	closed [][]request // one per reader
	open   []request
	warm   []request
}

// prepare generates the window's requests from the seed, dumps the
// oracle tables they need, fills the filter bounds and runs the untimed
// warm-up.
func (st *stack) prepare(ctx context.Context, e *env, openDur time.Duration) (*schedules, error) {
	rng := rand.New(rand.NewSource(e.seed + 1))
	sch := &schedules{}
	for range st.readers {
		sch.closed = append(sch.closed, st.plan.gen(rng, e.sc.schedLen))
	}
	if openDur > 0 {
		sch.open = st.plan.openSchedule(rng, openLoopRate[e.workload]*e.sc.openLoopScale, openDur)
	}
	// Warm-up touches every column of the ranked/filtered/summarised
	// targets once when the workload is meant to run warm, so the window
	// sees built indexes; a cold workload gets a handful of requests.
	if st.plan.zipf {
		for _, c := range []class{topk, filter, coldist} {
			for _, t := range st.plan.byClass[c] {
				for _, col := range t.cols {
					r := request{Class: c, Model: t.model, Interm: t.interm, Col: col, K: topK, Cmp: "gt", MaxErr: st.plan.maxErr}
					if c == topk {
						r.MaxErr = st.plan.topkErr
					}
					sch.warm = append(sch.warm, r)
				}
			}
		}
	}
	sch.warm = append(sch.warm, st.plan.gen(rng, 32)...)
	for i := range sch.warm {
		sch.warm[i].Verify = false
	}

	all := append([][]request{sch.open, sch.warm}, sch.closed...)
	need := needed(all...)
	if st.plan.zipf {
		// The warm-up filters every column, verified or not, and each needs
		// a bound.
		for _, t := range st.plan.byClass[filter] {
			need[tableKey(t.model, t.interm)] = map[string]bool{"*": true}
		}
	}
	if err := st.dumpTables(ctx, need); err != nil {
		return nil, err
	}
	st.fillBounds(all...)
	for i := range sch.warm {
		if _, err := st.readers[i%len(st.readers)].Do(ctx, &sch.warm[i]); err != nil {
			return nil, fmt.Errorf("warm-up %s %s/%s: %w", sch.warm[i].Class, sch.warm[i].Model, sch.warm[i].Interm, err)
		}
	}
	if st.lib != nil {
		if err := dropCache(st.lib); err != nil {
			return nil, err
		}
	}
	return sch, nil
}

// verify decodes and checks every kept reply; it returns how many were
// checked and the errors of those that were wrong.
func (st *stack) verify(reqOf func(sample) *request, tgtOf func(sample) target, samples []sample) (checked int, wrong []error) {
	o := &oracle{tables: st.tables}
	for _, s := range samples {
		if s.err != nil || s.rep == nil || s.class == ingest {
			continue
		}
		r := reqOf(s)
		tgtOf(s).Decode(r, s.rep)
		checked++
		if err := o.check(r, s); err != nil {
			wrong = append(wrong, fmt.Errorf("%s %s/%s: %w", r.Class, r.Model, r.Interm, err))
		}
	}
	return checked, wrong
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// ackCounter is the growing stream's acknowledged row count.
func ackCounter(rows int) *atomic.Int64 {
	a := new(atomic.Int64)
	a.Store(int64(rows))
	return a
}
